"""Dependency-aware cross-job scheduling for the batch engine.

``repro serve --serve-workers N`` runs *independent* jobs concurrently
on the :mod:`repro.exec` process pool without giving up one byte of the
determinism contract.  The unit of scheduling is the **affinity
chain**:

* Two jobs are *dependent* (same chain) when they share an affinity
  key — the (netlist content, die) pair — because those are exactly the
  jobs that feed each other's warm starts: same layout entry, same
  matcher memos, same per-(netlist, die) route pool and evaluation
  memo.  Within a chain, jobs run **sequentially, in submission
  order**, so every job's cache reads see exactly the snapshot the
  fully sequential engine would have produced for that (netlist, die).
* Jobs with different keys share no route pool, evaluation memo or
  layout entry, so their relative order cannot change any warm start
  a job observes — they interleave freely across chains.

Each chain executes in a pool worker with its own chain-local
:class:`~repro.serve.caches.SessionCaches` (optionally backed by the
shared ``--cache-dir`` disk tier, whose atomic writes make concurrent
chains safe).  Because every cache is a pure speedup, chain-local
caches produce byte-identical result lines to the shared sequential
cache — asserted by ``tests/serve/test_scheduler.py`` and the CI
serve-parallel smoke step.  Results return keyed by submission index
and the engine re-emits them in submission order, so the output stream
of ``--serve-workers N`` is byte-identical to ``--serve-workers 1``.

Inside a pool worker the per-job ``workers`` fan-out degrades to the
serial loop (pool workers cannot fork their own pools); cross-job
parallelism and in-job parallelism are therefore alternatives — use
``--serve-workers`` for many small jobs, ``--workers`` for few large
ones.
"""

from __future__ import annotations

from typing import Any, Dict, List, NamedTuple, Optional, Sequence, Tuple

from ..obs.registry import StatsRegistry
from ..obs.tracer import Span, Tracer
from .jobs import Job, JobResult

__all__ = ["ChainOutcome", "affinity_key", "plan_chains", "run_chain"]

#: (netlist content key or raw source, die rows) — the scheduling key.
AffinityKey = Tuple[str, int]


def affinity_key(job: Job) -> AffinityKey:
    """The (netlist, die) scheduling key of a job.

    Uses the same content key as the session caches (two paths to the
    same BLIF bytes belong to one chain).  A source with no content key
    (an unreadable file, a malformed ``name@scale``) falls back to the
    raw source string: the job will fail identically wherever it runs,
    and grouping such jobs together keeps their error lines in
    submission order trivially.
    """
    from .caches import source_key
    try:
        skey = source_key(job.source)
    except (OSError, ValueError):
        skey = f"raw:{job.source}"
    return (skey, job.rows)


def plan_chains(jobs: Sequence[Job]) -> List[List[int]]:
    """Partition submission indices into affinity chains.

    Chains are ordered by first appearance and preserve submission
    order internally, so chain 0 always contains submission index 0 —
    which is what lets the engine stream results in submission order
    while chains complete in task (= chain-index) order.
    """
    chains: Dict[AffinityKey, List[int]] = {}
    order: List[AffinityKey] = []
    for index, job in enumerate(jobs):
        key = affinity_key(job)
        if key not in chains:
            chains[key] = []
            order.append(key)
        chains[key].append(index)
    return [chains[key] for key in order]


class ChainOutcome(NamedTuple):
    """What one executed chain sends back to the scheduling engine."""

    #: (submission index, result, job seconds), in chain (= submission)
    #: order.
    results: List[Tuple[int, JobResult, float]]
    #: The chain engine's one registry (:meth:`ServeEngine.stats`).
    stats: StatsRegistry
    #: The chain's detached trace, when the parent traces.
    span: Optional[Span]


def run_chain(payload: Any, task: Tuple[int, Tuple[Tuple[int, Job], ...]]
              ) -> ChainOutcome:
    """Execute one affinity chain in a worker process (the pool task fn).

    ``payload`` is the engine-constant tuple ``(config, workers,
    bounds, cache_dir, artifacts_dir, want_trace, slow_job_s)``;
    ``task`` carries the chain index and its (submission index, job)
    pairs.  The chain gets a private single-threaded engine over
    chain-local caches; its trace (when the parent traces) comes back
    as a detached span for :meth:`repro.obs.tracer.Tracer.adopt`, its
    counters and instruments as the engine's one registry, which the
    parent engine merges in chain order.
    """
    from .engine import ServeEngine

    chain_index, indexed_jobs = task
    (config, workers, bounds, cache_dir, artifacts_dir, want_trace,
     slow_job_s) = payload
    tracer = Tracer("chain", index=chain_index, jobs=len(indexed_jobs)) \
        if want_trace else None
    engine = ServeEngine(config, workers=workers, tracer=tracer,
                         artifacts_dir=artifacts_dir, bounds=bounds,
                         cache_dir=cache_dir, slow_job_s=slow_job_s)
    results = engine.run([job for _, job in indexed_jobs])
    span = tracer.close() if tracer is not None else None
    timings = engine.summary()["per_job"]
    return ChainOutcome(
        [(index, result, timing["t_s"]) for (index, _), result, timing
         in zip(indexed_jobs, results, timings)],
        engine.stats(), span)
