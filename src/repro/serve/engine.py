"""The long-lived batch engine behind ``repro serve``.

One :class:`ServeEngine` owns a :class:`~repro.serve.caches.SessionCaches`
and executes a stream of :class:`~repro.serve.jobs.Job` requests
against it.  The execution model is deterministic by construction:

* **Results stream in submission order, keyed by job id** — at any
  ``serve_workers`` count.  With ``serve_workers == 1`` jobs run
  strictly sequentially; with ``serve_workers > 1`` the
  :mod:`~repro.serve.scheduler` groups jobs into (netlist, die)
  *affinity chains* — same-key jobs stay ordered on one worker,
  cross-key chains interleave freely across the :mod:`repro.exec`
  process pool.  A job's cache reads therefore see exactly the
  snapshot a sequential run would have produced for its (netlist,
  die), and because every cache is a pure speedup, the emitted result
  lines are byte-identical either way (asserted by
  ``tests/serve/test_scheduler.py`` and ``benchmarks/bench_serve.py``).
* **Parallelism also lives inside jobs.**  Each job's K points and
  portfolio probes fan out over the :mod:`repro.exec` pool
  (``workers`` = the engine default or the job's override), with the
  PR 1/PR 7 guarantees intact: rows are bit-identical at any worker
  count.  Inside a chain worker the inner
  fan-out degrades to the serial loop (pool workers cannot fork), so
  ``serve_workers`` and ``workers`` are complementary, not
  multiplicative.
* **Caches are injected, not rebuilt — and they have a lifecycle.**
  The netlist, layout, matcher and the per-(die, netlist) route-cache
  pool and evaluation memo come from the session cache, so a netlist
  is mapped once per session at each K and a netlist a job maps is
  placed once per session on each die;
  :class:`~repro.serve.caches.CacheBounds` adds LRU entry/byte limits
  for long sessions, and ``cache_dir``
  attaches the persistent disk tier so even *cold* engines warm-start
  layouts and route pools (:mod:`repro.serve.persist`).
* **The heap is frozen at every job boundary.**  After a job the
  engine calls :func:`gc.freeze`, so full collections stop re-walking
  the session caches (and, in a process that embeds an engine, that
  process's own heap).  Cached payloads must stay acyclic: an evicted
  entry is then freed by reference counting, frozen or not.

A failing job (unknown benchmark, unroutable die, bad BLIF, or any
other ``Exception`` raised while it runs) reports ``ok: false`` with
the error type and message and the stream continues — one poisoned
request must not take down a batch of hundreds.

Live telemetry
--------------
The engine keeps one :class:`~repro.obs.registry.StatsRegistry` per
session (:attr:`ServeEngine.metrics`).  Every finished job adds its
tallies (``serve.jobs_done``, ``serve.jobs_ok``, ``serve.slow_jobs``
and the point-work counters ``route.routes_reused``,
``route.reuse_skipped``, ``cover.memo_hits``, ``map.match_cache_hits``,
``map.reused``, ``eval.reused`` and ``place.reused`` summed over its K
points) and
feeds the histograms of its latency, queue wait and per-phase times
(its points' ``map``, ``place`` and ``route`` span durations and
``cover.t_dp``) and the rolling gauge of the estimated cache
footprint.  Its share of the process's garbage-collection pauses
(``gc.t_full`` for generation 2, ``gc.t_young`` for generations 0-1,
timed by one ``gc.callbacks`` hook the first engine installs) goes
into the registry and onto the job's ``job`` span.  A chain worker
sends back its engine's :meth:`ServeEngine.stats` — cache counters
included — which the engine merges in chain order before it emits the
chain's jobs in submission order.  :meth:`ServeEngine.stats` (the
session caches' counters merged with :attr:`~ServeEngine.metrics`) is
what ``--metrics-out`` renders; the heartbeat, the summary and the
``session_caches`` span are views of it, so they agree at every
write.  The **slow-job watchdog** counts jobs that blow a soft
per-job deadline (``slow_job_s``) into ``serve.slow_jobs`` with a
``slow_job`` trace event — the observability groundwork for
admission control.  A :class:`~repro.serve.status.StatusWriter`
(``--status-file``) gets an atomic heartbeat after every job and
chain outcome.  None of this can change a result byte: telemetry is
written on the side, never read back by the flow.
"""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import hashlib
import os
import re
import time
from typing import (
    Callable, Dict, Iterable, List, Mapping, Optional, Tuple)

from ..core import (
    EvalPoint,
    FlowConfig,
    PAPER_K_VALUES,
    congestion_aware_flow,
    k_search,
    k_sweep,
)
from ..exec import fan_out
from ..library import library_build_stats
from ..obs import StatsRegistry, Tracer, write_congestion_artifacts
from ..place import Floorplan
from .caches import FAMILIES, CacheBounds, SessionCaches
from .jobs import Job, JobResult
from .persist import PersistentCache, cache_fingerprint
from .scheduler import plan_chains, run_chain
from .status import STATUS_SCHEMA_VERSION, StatusWriter

__all__ = ["ServeEngine"]

#: Stats keys summed over a job's evaluated points into the engine's
#: registry (all plan-dependent by design).
_POINT_WORK_KEYS = ("route.routes_reused", "route.reuse_skipped",
                    "cover.memo_hits", "map.match_cache_hits",
                    "map.reused", "eval.reused", "place.reused")

#: (histogram key, span name) — a job's per-phase wall-time is the
#: summed duration of its points' spans of that name.
_PHASE_SPANS = (("serve.map_seconds", "map"),
                ("serve.place_seconds", "place"),
                ("serve.route_seconds", "route"))

#: Seconds this process spent in garbage collections since the first
#: engine installed :func:`_time_collection`: full (generation 2) and
#: young (generations 0-1) ones.
_GC_SECONDS = {"gc.t_full": 0.0, "gc.t_young": 0.0}
_gc_start = 0.0


def _time_collection(phase: str, info: Dict[str, int]) -> None:
    """The ``gc.callbacks`` hook adding each pause to :data:`_GC_SECONDS`."""
    global _gc_start
    if phase == "start":
        _gc_start = time.perf_counter()
    else:
        key = "gc.t_full" if info["generation"] == 2 else "gc.t_young"
        _GC_SECONDS[key] += time.perf_counter() - _gc_start


def _tally(jobs: int, ok: int, slow: int,
           counters: Mapping[str, float]) -> StatsRegistry:
    """Job tallies as ``work`` stats: jobs finished, ok and slow, and
    the :data:`_POINT_WORK_KEYS` counters of ``counters`` (the merged
    counters of a job's points' spans)."""
    tally = StatsRegistry()
    tally.work("serve.jobs_done", jobs)
    tally.work("serve.jobs_ok", ok)
    tally.work("serve.slow_jobs", slow)
    for key in _POINT_WORK_KEYS:
        tally.work(key, int(counters.get(key, 0)))
    return tally


def _artifact_slug(job_id: str) -> str:
    """The directory, inside ``--artifacts DIR``, of one job's artifacts.

    A job id made only of ``A-Za-z0-9._-`` names its directory, unless
    it is empty, ``.`` or ``..``.  Any other id gets its other
    characters replaced by ``_``, then ``+`` and 8 hex digits of its
    SHA-256 appended: the ``+`` keeps such names apart from every kept
    id, and the digest keeps ids apart that sanitize alike (``a b`` and
    ``a/b``).
    """
    slug = re.sub(r"[^A-Za-z0-9._-]", "_", job_id)
    if slug == job_id and job_id not in ("", ".", ".."):
        return slug
    return f"{slug}+{hashlib.sha256(job_id.encode('utf-8')).hexdigest()[:8]}"


class ServeEngine:
    """Session-scoped batch executor: jobs in, deterministic results out.

    ``workers`` is the default in-job fan-out; ``serve_workers`` the
    cross-job chain fan-out (see the module docstring for how the two
    compose).  ``bounds`` caps the session caches, ``cache_dir``
    attaches the persistent disk tier; both default to off.  An
    explicitly injected ``caches`` wins over ``bounds``/``cache_dir``.

    ``status`` attaches a heartbeat writer, ``progress`` receives the
    K lines of ksweep and ksearch jobs, and ``slow_job_s`` arms the soft
    per-job deadline watchdog (0 = off); none of them affects results.
    """

    def __init__(self, config: FlowConfig, workers: int = 1,
                 tracer: Optional[Tracer] = None,
                 artifacts_dir: str = "",
                 caches: Optional[SessionCaches] = None,
                 serve_workers: int = 1,
                 bounds: Optional[CacheBounds] = None,
                 cache_dir: str = "",
                 status: Optional[StatusWriter] = None,
                 progress: Optional[Callable[[str], None]] = None,
                 slow_job_s: float = 0.0):  # noqa: D107
        self.config = config
        self.workers = max(1, workers)
        self.serve_workers = max(1, serve_workers)
        self.tracer = tracer
        self.artifacts_dir = artifacts_dir
        self.bounds = bounds
        self.cache_dir = cache_dir
        self.status = status
        self.slow_job_s = max(0.0, slow_job_s)
        self.progress = progress
        if caches is not None:
            self.caches = caches
        else:
            persist = PersistentCache(
                cache_dir, cache_fingerprint(config.library)) \
                if cache_dir else None
            self.caches = SessionCaches(config.library, bounds=bounds,
                                        persist=persist)
        self.results: List[JobResult] = []
        #: The session's tallies and instruments, plus every parallel
        #: chain's registry; :meth:`stats` adds this engine's caches.
        self.metrics = _tally(0, 0, 0, {})
        self.metrics.env("serve.serve_workers", self.serve_workers)
        self.metrics.env("serve.workers", self.workers)
        if _time_collection not in gc.callbacks:
            gc.callbacks.append(_time_collection)
        self._t_jobs: List[dict] = []
        self._t_wall = 0.0
        self._t_run = 0.0
        self._t_accept: Optional[float] = None
        self._jobs_total = 0
        self._pool_fallbacks = 0
        self._finished = False

    # -- one job ---------------------------------------------------------

    def run_job(self, job: Job) -> Tuple[JobResult, List[EvalPoint]]:
        """Execute one job against the session caches (sequential path);
        returns its result line and evaluated points (none on failure)."""
        t0 = time.perf_counter()
        gc0 = dict(_GC_SECONDS)
        if self._t_accept is None:
            self._t_accept = t0
        span_cm = (self.tracer.span("job", id=job.id, cmd=job.cmd,
                                    source=job.source)
                   if self.tracer is not None else contextlib.nullcontext())
        span = None
        try:
            with span_cm as span:
                result, points = self._dispatch(job)
        except Exception as exc:
            result, points = JobResult(
                id=job.id, cmd=job.cmd, source=job.source, ok=False,
                verdict="error", error=f"{type(exc).__name__}: {exc}"), []
        # Matchers, route pools and evaluation memos may have grown
        # during the job: re-account them (writing advanced route pools
        # through to the disk tier) before the next job.
        self.caches.sync()
        # Move everything alive now, the session caches above all, to
        # the collector's permanent generation, so later collections
        # scan only what is born after this boundary.  Sound while no
        # job leaves cyclic garbage and cached payloads stay acyclic
        # (tests/serve/test_gc.py): reference counting then frees a
        # frozen entry once it is evicted or replaced.
        gc.freeze()
        t_job = time.perf_counter() - t0
        gc_job = StatsRegistry()
        for key, total in _GC_SECONDS.items():
            gc_job.time(key, total - gc0[key])
        if span is not None:
            span.counters.absorb(gc_job)
        self.metrics.merge(gc_job)
        if self.artifacts_dir and points:
            write_congestion_artifacts(
                points,
                os.path.join(self.artifacts_dir, _artifact_slug(job.id)))
        self._emit(result, t_job)
        self._observe_job(result, points, t_job,
                          queue_wait=t0 - self._t_accept)
        if self.status is not None:
            self.status.update(self.heartbeat())
        return result, points

    def _emit(self, result: JobResult, t_job: float) -> None:
        """Record one finished job in :attr:`results` and the per-job
        timings; callers emit jobs in submission order."""
        self._t_jobs.append({"id": result.id, "cmd": result.cmd,
                             "ok": result.ok, "t_s": t_job})
        self._t_wall += t_job
        self.results.append(result)

    def _observe_job(self, result: JobResult, points: List[EvalPoint],
                     t_job: float, queue_wait: float) -> None:
        """Feed one finished job into the tallies and instruments."""
        slow = bool(self.slow_job_s) and t_job > self.slow_job_s
        spans = [span for p in points for span in p.trace.iter_spans()]
        counters = StatsRegistry.merged(span.counters for span in spans)
        self.metrics.merge(_tally(1, int(result.ok), int(slow), counters))
        self.metrics.observe("serve.job_seconds", t_job)
        self.metrics.observe("serve.queue_wait_seconds", max(0.0,
                                                             queue_wait))
        if points:
            for key, name in _PHASE_SPANS:
                self.metrics.observe(key, sum(span.duration for span in spans
                                              if span.name == name))
            self.metrics.observe("serve.cover_seconds",
                                 counters.get("cover.t_dp", 0.0))
        self.metrics.record("serve.cache_bytes_recent",
                            float(self.caches.cache_bytes()))
        if slow and self.tracer is not None:
            with self.tracer.span("slow_job", id=result.id,
                                  deadline_s=self.slow_job_s,
                                  t_s=round(t_job, 6)):
                pass

    def _dispatch(self, job: Job):
        """Run the job's entry point; returns (result, evaluated points)."""
        key, _network, base = self.caches.network(job.source)
        config = dataclasses.replace(
            self.config,
            workers=job.workers if job.workers is not None else self.workers)
        floorplan = Floorplan.for_gates(base.num_gates(), job.rows)
        positions, part = self.caches.layout(key, base, floorplan, config)
        matcher = self.caches.matcher(key, base)
        route_cache = (self.caches.route_pool(key, floorplan)
                       if config.route_reuse else None)
        memo = self.caches.evaluation(key, floorplan)
        k_values = list(job.k) if job.k is not None else list(PAPER_K_VALUES)
        injected = dict(positions=positions, tracer=self.tracer,
                        partition=part, matcher=matcher,
                        route_cache=route_cache, memo=memo)
        if job.cmd == "flow":
            flow = congestion_aware_flow(
                base, floorplan, config, k_schedule=k_values,
                tolerance=job.tolerance, **injected)
            return JobResult(
                id=job.id, cmd=job.cmd, source=job.source,
                ok=flow.converged, verdict=flow.verdict,
                chosen_k=flow.chosen_k,
                rows=[p.row() for p in flow.history]), flow.history
        if job.cmd == "ksweep":
            points = k_sweep(base, floorplan, config, k_values=k_values,
                             progress=self.progress, **injected)
            return JobResult(
                id=job.id, cmd=job.cmd, source=job.source, ok=True,
                verdict="swept", rows=[p.row() for p in points]), points
        assert job.cmd == "ksearch"
        search = k_search(
            base, floorplan, config, k_values=k_values,
            strategy=job.strategy, tolerance=job.tolerance,
            progress=self.progress, **injected)
        return JobResult(
            id=job.id, cmd=job.cmd, source=job.source,
            ok=search.chosen is not None, verdict=search.verdict,
            chosen_k=search.chosen_k,
            rows=[p.row() for p in search.table_points()]), search.evaluated

    # -- the stream ------------------------------------------------------

    def run(self, jobs: Iterable[Job],
            on_result: Optional[Callable[[JobResult], None]] = None
            ) -> List[JobResult]:
        """Run a job stream; ``on_result`` streams lines out.

        Results are returned — and streamed — in submission order
        regardless of ``serve_workers``; see the module docstring for
        the scheduling/determinism contract.
        """
        jobs = list(jobs)
        t0 = time.perf_counter()
        if self._t_accept is None:
            self._t_accept = t0
        self._jobs_total += len(jobs)
        start = len(self.results)
        if self.serve_workers > 1 and len(jobs) > 1:
            self._run_parallel(jobs, on_result)
        else:
            for job in jobs:
                result, _points = self.run_job(job)
                if on_result is not None:
                    on_result(result)
        self._t_run += time.perf_counter() - t0
        if self.status is not None:
            self.status.update(self.heartbeat(state="done"), force=True)
        return self.results[start:]

    def _run_parallel(self, jobs: List[Job],
                      on_result: Optional[Callable[[JobResult], None]]
                      ) -> None:
        """Fan affinity chains out over the process pool.

        Chains come back in chain-index order (ordered streaming), and
        chain 0 holds submission index 0, so buffering per-job results
        until their submission index is next reproduces the sequential
        emission order exactly.  A chain's registry is merged when it
        arrives, so a heartbeat's job tallies count its buffered jobs
        too.
        """
        chains = plan_chains(jobs)
        payload = (self.config, self.workers, self.bounds, self.cache_dir,
                   self.artifacts_dir, self.tracer is not None,
                   self.slow_job_s)
        tasks = [(index, tuple((i, jobs[i]) for i in chain))
                 for index, chain in enumerate(chains)]

        pending: Dict[int, Tuple[JobResult, float]] = {}
        next_emit = 0
        chains_done = 0

        def collect(outcome) -> None:
            nonlocal next_emit, chains_done
            chains_done += 1
            if self.tracer is not None:
                self.tracer.adopt(outcome.span)
            # Chain outcomes arrive in chain-index order (ordered
            # streaming), so this merge order is deterministic.
            self.metrics.merge(outcome.stats)
            for index, result, t_job in outcome.results:
                pending[index] = (result, t_job)
            while next_emit in pending:
                result, t_job = pending.pop(next_emit)
                self._emit(result, t_job)
                if on_result is not None:
                    on_result(result)
                next_emit += 1
            if self.status is not None:
                self.status.update(self.heartbeat(
                    in_flight_chains=len(chains) - chains_done))

        exec_stats = StatsRegistry()
        fan_out(run_chain, payload, tasks, workers=self.serve_workers,
                stats=exec_stats, tracer=self.tracer, on_result=collect)
        if exec_stats.get("exec.fallback", 0):
            self._pool_fallbacks += 1

    # -- reporting -------------------------------------------------------

    def stats(self) -> StatsRegistry:
        """The session's one registry: what ``--metrics-out`` renders.

        This engine's cache counters merged with :attr:`metrics`: the
        job tallies, the point-work counters, the worker counts, the
        instruments and, under ``serve_workers > 1``, every chain's
        registry, whose chain-local cache counters sum into this
        engine's (so hit/miss/eviction/persistence arithmetic holds
        across scheduling modes).  The heartbeat, the summary and the
        ``session_caches`` span are views of it.
        """
        registry = self.caches.stats()
        registry.merge(self.metrics)
        return registry

    def _cache_stats(self, stats: StatsRegistry) -> StatsRegistry:
        """The session-cache entries of ``stats``, kinds kept."""
        view = StatsRegistry()
        for key, kind in self.caches.stats().kinds().items():
            # Each scalar kind is written by the method of its name.
            getattr(view, kind)(key, stats[key])
        return view

    def _cache_view(self, stats: StatsRegistry) -> tuple:
        """(the ``cache`` object, per-family hit rates) of ``stats``.

        The object holds the session-cache counters by bare name, the
        point-work counters by key, and the process-wide library
        build-memo counters.
        """
        cache = {key.split(".", 1)[1]: int(value) for key, value
                 in self._cache_stats(stats).items()}
        cache.update((key, int(stats[key])) for key in _POINT_WORK_KEYS)
        lib = library_build_stats()
        cache["library_build_hits"] = int(lib["library.build_hits"])
        cache["library_build_misses"] = int(lib["library.build_misses"])
        rates = {}
        for family in FAMILIES + ("library_build",):
            hits = cache[f"{family}_hits"]
            total = hits + cache[f"{family}_misses"]
            rates[family] = (hits / total) if total else 0.0
        return cache, rates

    def cache_counters(self) -> Dict[str, int]:
        """The ``cache`` object of the heartbeat and the summary
        (``<family>_hits``, ``<family>_misses``, ...)."""
        return self._cache_view(self.stats())[0]

    def finish(self) -> None:
        """Attach the end-of-session cache stats to the trace (idempotent).

        Called by the CLI before closing the tracer so ``--profile``
        shows the ``serve.*`` counters — hits/misses, evictions,
        ``serve.cache_bytes`` and the persistent-tier tallies — next
        to the per-phase times.
        """
        if self._finished or self.tracer is None:
            return
        self._finished = True
        with self.tracer.span("session_caches") as span:
            span.counters.absorb(self._cache_stats(self.stats()))

    def heartbeat(self, state: str = "running",
                  in_flight_chains: int = 0) -> dict:
        """One live-status document (see :mod:`repro.serve.status`).

        Read from :meth:`stats`, so its job tallies are the ones
        ``--metrics-out`` renders at the same moment; under parallel
        scheduling they include jobs whose chain has returned but that
        wait, buffered, for an earlier submission index.
        """
        stats = self.stats()
        cache, rates = self._cache_view(stats)
        jobs_done = stats["serve.jobs_done"]
        ok = stats["serve.jobs_ok"]
        last = self._t_jobs[-1] if self._t_jobs else None
        return {
            "schema_version": STATUS_SCHEMA_VERSION,
            "event": "status",
            "state": state,
            "pid": os.getpid(),
            "t_unix": time.time(),
            "jobs_total": self._jobs_total,
            "jobs_done": jobs_done,
            "ok": ok,
            "failed": jobs_done - ok,
            "in_flight_chains": in_flight_chains,
            "slow_jobs": stats["serve.slow_jobs"],
            "serve_workers": self.serve_workers,
            "cache": cache,
            "cache_hit_rates": rates,
            "instruments": {key: inst.snapshot() for key, inst
                            in stats.instruments().items()},
            "last_job": dict(last) if last else None,
        }

    def summary(self) -> dict:
        """Machine-readable session summary (plan-dependent numbers).

        Jobs/sec over the engine's run wall-time, the session-cache
        hit/miss/eviction counters with derived rates, the persistent
        disk-tier counters, the library build-memo counters, and the
        per-job timing list.  Everything here may legitimately vary
        run to run; the deterministic payload is the result lines
        themselves.
        """
        stats = self.stats()
        cache, rates = self._cache_view(stats)
        n = len(self.results)
        t_rate = self._t_run if self._t_run > 0 else self._t_wall
        return {
            "jobs": n,
            "ok": stats["serve.jobs_ok"],
            "workers": self.workers,
            "serve_workers": self.serve_workers,
            "pool_fallbacks": self._pool_fallbacks,
            "slow_jobs": stats["serve.slow_jobs"],
            "t_jobs_s": self._t_wall,
            "t_run_s": self._t_run,
            "jobs_per_sec": (n / t_rate) if t_rate > 0 else 0.0,
            "cache": cache,
            "cache_hit_rates": rates,
            "per_job": list(self._t_jobs),
        }
