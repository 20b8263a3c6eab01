"""The pipeline benchmark's workloads and their seeded inputs.

Everything here is plain data and :mod:`random`; nothing imports the
program under test.  The benchmark turns ``(workload, seed, seconds)``
into a list of operations and hands only that list to the workload
process, so the program never sees the seed.

Every workload repeats a *cycle* of operations whose total work is the
same whatever the seed (the seed permutes the cycle or draws each job
inside a narrow band), and a run executes a whole number of cycles
sized from ``seconds`` by the cycle's nominal duration.  Parent and
change therefore always measure the same work, and a faster program
finishes sooner instead of doing more.  Each operation names its
``slot``, its position in the cycle, so the benchmark can take the
median of a slot's repetitions.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Callable, Dict, List

__all__ = ["WORKLOADS", "Workload", "make_inputs"]

#: Violations still "basically routable" (the paper's 2- and 9-violation
#: rows), as in the Table 2-5 benches.
TOLERANCE = 6

#: Figure-3 problems: a marginal SPLA die whose K = 0 mapping leaves 12
#: violations (the loop escalates to K = 0.0001), and its one-row
#: relaxation, where K = 0 routes.
FIG3_PROBLEMS = (("spla", 0.04, 14), ("spla", 0.04, 15))

#: The Table-4 sweep die: congested at every K of the paper's schedule.
SWEEP_PROBLEM = ("pdc", 0.04, 14)

#: K list of the ksweep jobs.
JOB_K = [0.0, 0.001, 0.01]

#: Warm-session job mix: flow, ksweep and ksearch on five netlists.
WARM_TEMPLATES = (
    {"cmd": "flow", "source": "spla@0.02", "rows": 18,
     "tolerance": TOLERANCE},
    {"cmd": "ksweep", "source": "spla@0.02", "rows": 16, "k": JOB_K},
    {"cmd": "ksearch", "source": "spla@0.06", "rows": 22,
     "tolerance": TOLERANCE},
    {"cmd": "flow", "source": "spla@0.04", "tolerance": TOLERANCE},
    {"cmd": "ksweep", "source": "pdc@0.03", "k": JOB_K},
    {"cmd": "ksearch", "source": "pdc@0.04", "rows": 15,
     "tolerance": TOLERANCE},
    {"cmd": "flow", "source": "pdc@0.03", "rows": 14,
     "tolerance": TOLERANCE},
)

#: Cold-session slots: (circuit, command, scale centre).  Each job draws
#: its scale as centre + j * COLD_STEP with a fresh j, so every job is a
#: new cache key (and a new circuit name) while the generated PLA, and
#: with it a cycle's work, keeps its size: no centre + draw crosses a
#: rounding step of the product, output or group counts.  The slots'
#: latencies lie further apart than a garbage-collection pause, so each
#: latency quantile stays on one slot.
COLD_SLOTS = (("spla", "flow", 0.010), ("pdc", "ksweep", 0.0202),
              ("spla", "ksearch", 0.060))
COLD_STEP = 0.000003
COLD_DRAWS = 64


@dataclass(frozen=True)
class Workload:
    """One named workload: its runner, its cycle and the cycle's length."""

    name: str
    #: Which runner executes the operations: "flow", "sweep" or "serve".
    kind: str
    #: Wall seconds of one cycle on the reference host (README.md).
    nominal_cycle_s: float
    #: (seed, cycle index) -> the cycle's operations.
    make_cycle: Callable[[int, int], List[Dict]]
    #: Run one untimed cycle first, so timed cycles see warm caches.
    warmup: bool = False


def _fig3_cycle(seed: int, cycle: int) -> List[Dict]:
    ops = [{"key": f"flow {name}@{scale:g} rows={rows} tol={TOLERANCE}",
            "slot": slot, "circuit": name, "scale": scale, "rows": rows,
            "tolerance": TOLERANCE}
           for slot, (name, scale, rows) in enumerate(FIG3_PROBLEMS)]
    random.Random(f"{seed}:{cycle}").shuffle(ops)
    return ops


def _sweep_cycle(seed: int, cycle: int) -> List[Dict]:
    name, scale, rows = SWEEP_PROBLEM
    return [{"key": f"ksweep {name}@{scale:g} rows={rows} k=paper",
             "slot": 0, "circuit": name, "scale": scale, "rows": rows}]


def _serve_op(job: Dict, slot: int, job_id: str) -> Dict:
    return {"key": json.dumps(job, sort_keys=True), "slot": slot,
            "line": json.dumps(dict(job, id=job_id), sort_keys=True)}


def _warm_cycle(seed: int, cycle: int) -> List[Dict]:
    order = list(range(len(WARM_TEMPLATES)))
    random.Random(f"{seed}:{cycle}").shuffle(order)
    return [_serve_op(WARM_TEMPLATES[i], i, f"c{cycle}-t{i}") for i in order]


def _cold_cycle(seed: int, cycle: int) -> List[Dict]:
    ops = []
    for slot, (circuit, cmd, centre) in enumerate(COLD_SLOTS):
        # One permutation per slot and seed: cycles never repeat a draw.
        draws = random.Random(f"{seed}:s{slot}").sample(range(COLD_DRAWS),
                                                        COLD_DRAWS)
        scale = round(centre + draws[cycle] * COLD_STEP, 6)
        job = {"cmd": cmd, "source": f"{circuit}@{scale:g}"}
        if cmd == "ksweep":
            job["k"] = JOB_K
        else:
            job["tolerance"] = TOLERANCE
        ops.append(_serve_op(job, slot, f"c{cycle}-s{slot}"))
    # Fixed slot order: the session heap grows with every job, and which
    # job a long garbage collection lands on follows the job order.
    return ops


#: Why each workload was chosen is recorded in BENCHMARK.json and README.md.
WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("fig3_spla", "flow", 4.3, _fig3_cycle),
    Workload("sweep_pdc", "sweep", 13.5, _sweep_cycle),
    Workload("serve_warm", "serve", 1.1, _warm_cycle, warmup=True),
    Workload("serve_cold", "serve", 4.4, _cold_cycle),
)}


def make_inputs(name: str, seed: int, seconds: float,
                trace: bool = False) -> Dict:
    """The operations one run of ``name`` executes, from ``seed``.

    Returns ``{"kind", "warmup", "ops"}``; every operation carries its
    ``cycle`` index, a ``key`` naming its input (equal keys must produce
    equal rows) and whether it runs ``traced``.  Warm-up operations
    carry cycle -1.  With ``trace`` every cycle gets a traced twin, in
    ABBA order (plain, traced, traced, plain, ...), so a steady drift in
    host speed or heap size cancels out of the tracing overhead.
    """
    workload = WORKLOADS[name]
    cycles = max(1, round(seconds / workload.nominal_cycle_s))
    cycles *= 2 if trace else 1
    if workload.name == "serve_cold" and cycles > COLD_DRAWS:
        raise ValueError(f"serve_cold supports at most {COLD_DRAWS} cycles")
    warmup = []
    if workload.warmup:
        warmup = [dict(op, cycle=-1, traced=False)
                  for op in workload.make_cycle(seed, -1)]
    ops = [dict(op, cycle=c, traced=trace and (c % 2 != (c // 2) % 2))
           for c in range(cycles) for op in workload.make_cycle(seed, c)]
    return {"kind": workload.kind, "warmup": warmup, "ops": ops}
