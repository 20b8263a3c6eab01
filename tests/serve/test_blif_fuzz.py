"""BLIF fuzzing: a mangled netlist ends in rows or a typed error line.

Each example mutates a ``spla@0.004`` BLIF by deleting, duplicating and
swapping lines and replacing tokens, then runs it as a one-job
:class:`ServeEngine` ksweep at K = 0 and 0.001.  The job must either
sweep both Ks or end in a ``ParseError`` / ``NetworkError`` line; any
other exception type in the line is a crash the parser or the network
checks let through.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.circuits import benchmark
from repro.core import FlowConfig
from repro.io import dump_blif
from repro.library import CORELIB018
from repro.serve import Job, ServeEngine

LINES = dump_blif(benchmark("spla", 0.004)).splitlines()

#: Replacement tokens: every token of the file plus a few that make
#: malformed headers, covers and directives.
TOKENS = sorted({token for line in LINES for token in line.split()}
                | {"", "-", "2", "x", "0", "1", ".names", ".end",
                   ".inputs", ".outputs", ".latch"})

#: One edit: (operation, line index, second index, replacement token);
#: indices are taken modulo the current line count.
EDITS = st.tuples(st.sampled_from(("delete", "duplicate", "swap", "token")),
                  st.integers(0, 1000), st.integers(0, 1000),
                  st.sampled_from(TOKENS))


def mutate(lines, edits):
    """``lines`` with each edit applied in turn."""
    out = list(lines)
    for op, i, j, token in edits:
        i %= len(out)
        if op == "delete" and len(out) > 1:
            del out[i]
        elif op == "duplicate":
            out.insert(i, out[i])
        elif op == "swap":
            j %= len(out)
            out[i], out[j] = out[j], out[i]
        elif op == "token":
            words = out[i].split()
            if words:
                words[j % len(words)] = token
                out[i] = " ".join(words)
    return out


@pytest.fixture(scope="module")
def blif_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "mutant.blif"


def test_unmutated_netlist_sweeps(blif_path):
    blif_path.write_text("\n".join(LINES) + "\n")
    result, _ = ServeEngine(FlowConfig(library=CORELIB018)).run_job(
        Job(id="orig", cmd="ksweep", source=str(blif_path), k=(0.0, 0.001)))
    assert result.ok and len(result.rows) == 2


@settings(max_examples=80, deadline=None)
@given(edits=st.lists(EDITS, min_size=1, max_size=4))
def test_mutants_end_in_rows_or_a_typed_error(blif_path, edits):
    blif_path.write_text("\n".join(mutate(LINES, edits)) + "\n")
    engine = ServeEngine(FlowConfig(library=CORELIB018))
    result, points = engine.run_job(
        Job(id="m", cmd="ksweep", source=str(blif_path), k=(0.0, 0.001)))
    if result.ok:
        assert len(result.rows) == len(points) == 2
    else:
        assert result.verdict == "error"
        assert result.error.split(":")[0] in ("ParseError",
                                              "NetworkError"), result.error
