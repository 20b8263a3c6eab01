"""Process-pool fan-out for embarrassingly parallel flow stages.

The paper's methodology (Section 5, Figure 3) is built on re-mapping
being cheap relative to re-synthesis; this module makes the repeated
trials — the K points of a K loop's rounds, the affinity chains of a
serve session — run concurrently when the hardware allows, without
ever changing their results:

* **Ordered collection** — results come back in task order, so callers
  see exactly the sequence the serial loop would have produced.
* **Deterministic tasks** — a task's result depends only on the
  payload and the task, never on which worker ran it: seeds come from
  the payload, and a per-process cache (the matcher a K point maps
  with) is a pure speedup.
* **Graceful fallback** — ``workers <= 1``, a single task, or *any*
  failure to stand the pool up (missing ``multiprocessing`` support,
  unpicklable payloads, sandboxed environments) degrades to the serial
  loop.  Parallelism only ever changes wall time.  The degradation is
  *observable*: a failed pool records ``exec.fallback`` in the caller's
  stats registry and emits an ``exec_fallback`` tracer event carrying
  the exception class, so a "parallel" run that actually ran serial is
  diagnosable instead of silent.

Workers receive one constant ``payload`` through the pool initializer
(sent once per worker, not once per task) and then stream tasks.  Task
functions must be module-level callables of ``(payload, task)``.
"""

from __future__ import annotations

import math
import multiprocessing
import os
from typing import Any, Callable, List, Optional, Sequence

from ..obs import StatsRegistry

__all__ = ["default_workers", "fan_out", "pool_available"]

#: Task function signature: (payload, task) -> result.
TaskFn = Callable[[Any, Any], Any]


def default_workers() -> int:
    """A sensible worker count for this machine (scheduler-affinity aware)."""
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        return max(1, os.cpu_count() or 1)


def pool_available() -> bool:
    """Whether a process pool can be created at all on this platform."""
    try:
        multiprocessing.get_context(_start_method())
        return True
    except (ImportError, ValueError, OSError):  # pragma: no cover
        return False


def _start_method() -> str:
    """Prefer fork (cheap, shares loaded modules) where supported."""
    methods = multiprocessing.get_all_start_methods()
    return "fork" if "fork" in methods else methods[0]


# Worker-process state, installed once per worker by the initializer.
_worker_fn: Optional[TaskFn] = None
_worker_payload: Any = None


def _pool_initializer(fn: TaskFn, payload: Any) -> None:
    global _worker_fn, _worker_payload
    _worker_fn = fn
    _worker_payload = payload


def _pool_call(task: Any) -> Any:
    assert _worker_fn is not None
    return _worker_fn(_worker_payload, task)


def fan_out(fn: TaskFn, payload: Any, tasks: Sequence[Any],
            workers: int = 1,
            stats: Optional[StatsRegistry] = None,
            tracer: Optional[Any] = None,
            on_result: Optional[Callable[[Any], None]] = None) -> List[Any]:
    """Apply ``fn(payload, task)`` to every task; results in task order.

    ``workers <= 1`` (or a single task) runs the plain serial loop.
    With ``workers > 1`` a process pool is attempted; contiguous chunks
    are handed to each worker so per-process caches (e.g. the matcher
    memo) amortise across a worker's share of the tasks.  Any failure
    to create or use the pool falls back to the serial loop — the
    results are the same either way.

    ``on_result``, when given, is invoked once per result **in task
    order** as results become available (``pool.imap`` under the pool,
    per-iteration in the serial loop) — this is what lets a caller
    stream an ordered output while later tasks are still running.  The
    callback runs in the calling process and must not raise.  Under the
    serial fallback, results already delivered before a mid-stream pool
    failure are recomputed (task functions are deterministic) but *not*
    re-delivered, so the callback sees every task exactly once.

    ``stats``, when given, is a :class:`StatsRegistry` receiving the
    environment facts ``exec.workers`` (processes actually used; 1 for
    serial) and ``exec.parallel`` (0/1).  A pool/pickling failure
    additionally records ``exec.fallback = 1`` there; the registry
    holds numbers only, so the exception *class* goes to ``tracer``
    (an :class:`repro.obs.Tracer`, optional) as an ``exec_fallback``
    event span with ``error``/``detail`` attributes.
    """
    tasks = list(tasks)
    workers = max(1, int(workers))
    nproc = min(workers, len(tasks))
    delivered = 0

    def deliver(result: Any) -> None:
        nonlocal delivered
        if on_result is not None:
            on_result(result)
        delivered += 1

    if nproc > 1 and pool_available():
        try:
            results = _fan_out_pool(fn, payload, tasks, nproc, deliver)
            if stats is not None:
                stats.env("exec.workers", nproc)
                stats.env("exec.parallel", 1)
            return results
        except Exception as exc:
            # Pool or pickling failure: fall through to serial, but
            # leave a trail — a run asked to be parallel that was not
            # should never look identical to one that was.
            if stats is not None:
                stats.env("exec.fallback", 1)
            if tracer is not None:
                with tracer.span("exec_fallback",
                                 error=type(exc).__name__,
                                 detail=str(exc)[:200]):
                    pass
    if stats is not None:
        stats.env("exec.workers", 1)
        stats.env("exec.parallel", 0)
    results = []
    for index, task in enumerate(tasks):
        result = fn(payload, task)
        results.append(result)
        if index >= delivered:
            deliver(result)
    return results


def _fan_out_pool(fn: TaskFn, payload: Any, tasks: List[Any],
                  nproc: int,
                  deliver: Callable[[Any], None]) -> List[Any]:
    ctx = multiprocessing.get_context(_start_method())
    chunksize = max(1, math.ceil(len(tasks) / nproc))
    with ctx.Pool(processes=nproc, initializer=_pool_initializer,
                  initargs=(fn, payload)) as pool:
        results: List[Any] = []
        for result in pool.imap(_pool_call, tasks, chunksize=chunksize):
            results.append(result)
            deliver(result)
        return results
