"""repro — Congestion-Aware Logic Synthesis (DATE 2002), reproduced.

A from-scratch Python implementation of Pandini, Pileggi and Strojwas,
"Congestion-Aware Logic Synthesis" (DATE 2002), together with every
substrate the paper relies on: a SIS-style technology-independent
synthesis engine, a DAGON-style technology mapper, a standard-cell
library, a min-cut placer, a negotiated global router, and a static
timing analyzer.

Quickstart::

    from repro.circuits import spla_like
    from repro.network import decompose
    from repro.library import CORELIB018
    from repro.core import FlowConfig, congestion_aware_flow
    from repro.place import Floorplan

    base = decompose(spla_like())
    config = FlowConfig(library=CORELIB018)
    result = congestion_aware_flow(base, Floorplan.from_rows(32), config)
    print(result.chosen_k, result.converged)

Sub-packages: :mod:`repro.network` (logic representations),
:mod:`repro.synth` (technology-independent synthesis),
:mod:`repro.library` (cells and patterns), :mod:`repro.core` (the
congestion-aware mapper and flows), :mod:`repro.place`,
:mod:`repro.route`, :mod:`repro.timing`, :mod:`repro.circuits`,
:mod:`repro.io`.
"""

from . import errors, measures

__version__ = "1.0.0"

__all__ = ["errors", "measures", "__version__"]
