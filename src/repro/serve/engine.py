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
* **Parallelism also lives inside jobs.**  Each job's K points,
  portfolio probes and placement attempts fan out over the
  :mod:`repro.exec` pool (``workers`` = the engine default or the
  job's override), with the PR 1/PR 7 guarantees intact: rows are
  bit-identical at any worker count.  Inside a chain worker the inner
  fan-out degrades to the serial loop (pool workers cannot fork), so
  ``serve_workers`` and ``workers`` are complementary, not
  multiplicative.
* **Caches are injected, not rebuilt — and they have a lifecycle.**
  The netlist, layout, matcher and per-(die, netlist) route-cache pool
  come from the session cache; :class:`~repro.serve.caches.CacheBounds`
  adds LRU entry/byte limits for long sessions, and ``cache_dir``
  attaches the persistent disk tier so even *cold* engines warm-start
  layouts and route pools (:mod:`repro.serve.persist`).

A failing job (unknown benchmark, unroutable die, bad BLIF, or any
other ``Exception`` raised while it runs) reports ``ok: false`` with
the error type and message and the stream continues — one poisoned
request must not take down a batch of hundreds.

Live telemetry
--------------
The engine additionally streams **metrics** while it runs: per-job
latency, queue wait and per-phase (map / place / route / covering DP)
times land in fixed-bucket histograms, the estimated cache footprint
in a rolling gauge (one :class:`~repro.obs.metrics.MetricsRegistry`
per engine, chain registries merged back in chain order), and a
**slow-job watchdog** counts jobs that blow a soft per-job deadline
(``slow_job_s``) into ``serve.slow_jobs`` with a ``slow_job`` trace
event — the observability groundwork for admission control.  A
:class:`~repro.serve.status.StatusWriter` (``--status-file``) gets an
atomic heartbeat after every job and chain outcome.  None of this can
change a result byte: telemetry is written on the side, never read
back by the flow.
"""

from __future__ import annotations

import dataclasses
import os
import re
import time
from typing import Any, Callable, Dict, Iterable, List, Optional

from ..core import (
    FlowConfig,
    PAPER_K_VALUES,
    congestion_aware_flow,
    k_search,
    k_sweep,
)
from ..exec import fan_out
from ..library import library_build_stats
from ..obs import (
    MetricsRegistry,
    StatsRegistry,
    Tracer,
    write_congestion_artifacts,
)
from ..place import Floorplan
from .caches import (
    CacheBounds,
    SessionCaches,
    counters_to_stats,
    merge_counters,
)
from .jobs import Job, JobResult
from .persist import PersistentCache, cache_fingerprint
from .scheduler import plan_chains, run_chain
from .status import STATUS_SCHEMA_VERSION, StatusWriter

__all__ = ["ServeEngine"]

#: Stats suffixes summed over a job's evaluated points into the
#: engine-level cache/work tallies (all plan-dependent by design).
_POINT_WORK_KEYS = ("route.routes_reused", "route.reuse_skipped",
                    "cover.memo_hits", "map.match_cache_hits")

#: (histogram key, per-point stats key) — the per-phase wall-times
#: summed over a job's evaluated points into latency histograms.
_PHASE_HISTOGRAMS = (("serve.map_seconds", "map.t_total"),
                     ("serve.place_seconds", "eval.t_place"),
                     ("serve.route_seconds", "eval.t_route"),
                     ("serve.cover_seconds", "cover.t_dp"))


def _artifact_slug(job_id: str) -> str:
    """A filesystem-safe directory name for a job's artifacts."""
    return re.sub(r"[^A-Za-z0-9._-]", "_", job_id) or "job"


class ServeEngine:
    """Session-scoped batch executor: jobs in, deterministic results out.

    ``workers`` is the default in-job fan-out; ``serve_workers`` the
    cross-job chain fan-out (see the module docstring for how the two
    compose).  ``bounds`` caps the session caches, ``cache_dir``
    attaches the persistent disk tier; both default to off.  An
    explicitly injected ``caches`` wins over ``bounds``/``cache_dir``.

    ``status`` attaches a heartbeat writer, ``slow_job_s`` arms the
    soft per-job deadline watchdog (0 = off); neither affects result
    lines.
    """

    def __init__(self, config: FlowConfig, workers: int = 1,
                 tracer: Optional[Tracer] = None,
                 artifacts_dir: str = "",
                 caches: Optional[SessionCaches] = None,
                 serve_workers: int = 1,
                 bounds: Optional[CacheBounds] = None,
                 cache_dir: str = "",
                 status: Optional[StatusWriter] = None,
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
        if caches is not None:
            self.caches = caches
        else:
            persist = PersistentCache(
                cache_dir, cache_fingerprint(config.library)) \
                if cache_dir else None
            self.caches = SessionCaches(config.library, bounds=bounds,
                                        persist=persist)
        self.results: List[JobResult] = []
        self.metrics = MetricsRegistry()
        self.slow_jobs = 0
        self._t_jobs: List[dict] = []
        self._work = {key: 0 for key in _POINT_WORK_KEYS}
        self._chain_counters: Dict[str, int] = {}
        self._t_wall = 0.0
        self._t_run = 0.0
        self._t_accept: Optional[float] = None
        self._jobs_total = 0
        self._pool_fallbacks = 0
        self._finished = False

    # -- one job ---------------------------------------------------------

    def run_job(self, job: Job) -> JobResult:
        """Execute one job against the session caches (sequential path)."""
        t0 = time.perf_counter()
        if self._t_accept is None:
            self._t_accept = t0
        span_cm = (self.tracer.span("job", id=job.id, cmd=job.cmd,
                                    source=job.source)
                   if self.tracer is not None else None)
        try:
            if span_cm is not None:
                with span_cm:
                    result, points = self._dispatch(job)
            else:
                result, points = self._dispatch(job)
        except Exception as exc:
            result, points = JobResult(
                id=job.id, cmd=job.cmd, source=job.source, ok=False,
                verdict="error", error=f"{type(exc).__name__}: {exc}"), []
        # Matchers and route pools may have grown during the job:
        # re-account them (writing advanced route pools through to the
        # disk tier) before the next job.
        self.caches.sync()
        t_job = time.perf_counter() - t0
        for point in points:
            for key in _POINT_WORK_KEYS:
                self._work[key] += int(point.stats.get(key, 0))
        if self.artifacts_dir and points:
            write_congestion_artifacts(
                points,
                os.path.join(self.artifacts_dir, _artifact_slug(job.id)))
        self._t_jobs.append({"id": job.id, "cmd": job.cmd, "ok": result.ok,
                             "t_s": t_job})
        self._t_wall += t_job
        self.results.append(result)
        self._observe_job(job, points, t_job, queue_wait=t0 - self._t_accept)
        if self.status is not None:
            self.status.update(self.heartbeat())
        return result

    def _observe_job(self, job: Job, points: List[Any], t_job: float,
                     queue_wait: float) -> None:
        """Feed one finished job into the streaming instruments."""
        self.metrics.observe("serve.job_seconds", t_job)
        self.metrics.observe("serve.queue_wait_seconds", max(0.0,
                                                             queue_wait))
        for key, stat in _PHASE_HISTOGRAMS:
            seconds = sum(float(p.stats.get(stat, 0.0)) for p in points)
            if points:
                self.metrics.observe(key, seconds)
        self.metrics.record("serve.cache_bytes_recent",
                            float(self.caches.cache_bytes()))
        if self.slow_job_s and t_job > self.slow_job_s:
            self.slow_jobs += 1
            if self.tracer is not None:
                with self.tracer.span("slow_job", id=job.id,
                                      deadline_s=self.slow_job_s,
                                      t_s=round(t_job, 6)):
                    pass

    def _dispatch(self, job: Job):
        """Run the job's entry point; returns (result, evaluated points)."""
        key, _network, base = self.caches.network(job.source)
        config = dataclasses.replace(
            self.config,
            workers=job.workers if job.workers is not None else self.workers)
        floorplan = Floorplan.from_rows(job.rows) if job.rows else \
            Floorplan.for_area(base.num_gates() * 12.0 / 0.35)
        positions, part = self.caches.layout(key, base, floorplan, config)
        matcher = self.caches.matcher(key, base)
        route_cache = (self.caches.route_pool(key, floorplan)
                       if config.route_reuse else None)
        k_values = list(job.k) if job.k is not None else list(PAPER_K_VALUES)
        if job.cmd == "flow":
            flow = congestion_aware_flow(
                base, floorplan, config, k_schedule=k_values,
                positions=positions, tolerance=job.tolerance,
                tracer=self.tracer, partition=part, matcher=matcher,
                route_cache=route_cache)
            return JobResult(
                id=job.id, cmd=job.cmd, source=job.source,
                ok=flow.converged, verdict=flow.verdict,
                chosen_k=flow.chosen_k,
                rows=[p.row() for p in flow.history]), flow.history
        if job.cmd == "ksweep":
            points = k_sweep(
                base, floorplan, config, k_values=k_values,
                positions=positions, tracer=self.tracer, partition=part,
                matcher=matcher, route_cache=route_cache)
            return JobResult(
                id=job.id, cmd=job.cmd, source=job.source, ok=True,
                verdict="swept", rows=[p.row() for p in points]), points
        assert job.cmd == "ksearch"
        search = k_search(
            base, floorplan, config, k_values=k_values,
            positions=positions, strategy=job.strategy,
            tolerance=job.tolerance, tracer=self.tracer, partition=part,
            matcher=matcher, route_cache=route_cache)
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
        if self.serve_workers > 1 and len(jobs) > 1:
            out = self._run_parallel(jobs, on_result)
        else:
            out = []
            for job in jobs:
                result = self.run_job(job)
                out.append(result)
                if on_result is not None:
                    on_result(result)
        self._t_run += time.perf_counter() - t0
        if self.status is not None:
            self.status.update(self.heartbeat(state="done"), force=True)
        return out

    def _run_parallel(self, jobs: List[Job],
                      on_result: Optional[Callable[[JobResult], None]]
                      ) -> List[JobResult]:
        """Fan affinity chains out over the process pool.

        Chains come back in chain-index order (ordered streaming), and
        chain 0 holds submission index 0, so buffering per-job results
        until their submission index is next reproduces the sequential
        emission order exactly.
        """
        chains = plan_chains(jobs)
        payload = (self.config, self.workers, self.bounds, self.cache_dir,
                   self.artifacts_dir, self.tracer is not None,
                   self.slow_job_s)
        tasks = [(index, tuple((i, jobs[i]) for i in chain))
                 for index, chain in enumerate(chains)]

        pending: Dict[int, JobResult] = {}
        ordered: List[JobResult] = []
        timings: List[dict] = []
        next_emit = 0
        chains_done = 0

        def collect(outcome) -> None:
            nonlocal next_emit, chains_done
            chains_done += 1
            if self.tracer is not None:
                self.tracer.adopt(outcome.span)
            merge_counters(self._chain_counters, [outcome.counters])
            for key, value in outcome.work.items():
                self._work[key] = self._work.get(key, 0) + int(value)
            # Chain outcomes arrive in chain-index order (ordered
            # streaming), so this merge order is deterministic.
            self.metrics.merge(MetricsRegistry.from_snapshot(
                outcome.metrics))
            self.slow_jobs += outcome.slow_jobs
            timings.extend(outcome.per_job)
            for index, result in outcome.results:
                pending[index] = result
            while next_emit in pending:
                result = pending.pop(next_emit)
                ordered.append(result)
                if on_result is not None:
                    on_result(result)
                next_emit += 1
            if self.status is not None:
                received = ordered + list(pending.values())
                self.status.update(self.heartbeat(
                    jobs_done=len(received),
                    ok=sum(1 for r in received if r.ok),
                    in_flight_chains=len(chains) - chains_done))

        exec_stats = StatsRegistry()
        fan_out(run_chain, payload, tasks, workers=self.serve_workers,
                stats=exec_stats, tracer=self.tracer, on_result=collect)
        if exec_stats.get("exec.fallback", 0):
            self._pool_fallbacks += 1
        by_id = {entry["id"]: entry for entry in timings}
        for result in ordered:
            entry = by_id.get(result.id, {"id": result.id,
                                          "cmd": result.cmd,
                                          "ok": result.ok, "t_s": 0.0})
            self._t_jobs.append(entry)
            self._t_wall += entry["t_s"]
        self.results.extend(ordered)
        return ordered

    # -- reporting -------------------------------------------------------

    def work_counters(self) -> Dict[str, int]:
        """The per-point work tallies summed over this engine's jobs."""
        return dict(self._work)

    def cache_counters(self) -> Dict[str, int]:
        """The session-cache counters, including parallel chains.

        Sequentially executed jobs hit this engine's own caches;
        chains executed by ``serve_workers > 1`` ran over chain-local
        caches whose counters were merged back — this view sums both,
        so hit/miss/eviction/persistence arithmetic holds across
        scheduling modes.
        """
        counters = self.caches.counters()
        return merge_counters(counters, [self._chain_counters])

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
            span.counters.absorb(counters_to_stats(self.cache_counters()))

    def _cache_view(self) -> tuple:
        """(cache counters incl. work/library tallies, per-family rates)."""
        cache = self.cache_counters()
        cache.update(self._work)
        lib = library_build_stats()
        cache["library_build_hits"] = int(lib["library.build_hits"])
        cache["library_build_misses"] = int(lib["library.build_misses"])
        rates = {}
        for family in ("netlist", "layout", "matcher", "route_pool",
                       "library_build"):
            hits = cache[f"{family}_hits"]
            total = hits + cache[f"{family}_misses"]
            rates[family] = (hits / total) if total else 0.0
        return cache, rates

    def heartbeat(self, state: str = "running",
                  jobs_done: Optional[int] = None,
                  ok: Optional[int] = None,
                  in_flight_chains: int = 0) -> dict:
        """One live-status document (see :mod:`repro.serve.status`).

        Defaults report the jobs already appended to :attr:`results`;
        the parallel scheduler passes explicit tallies because chain
        results buffer outside ``results`` until emission.
        """
        if jobs_done is None:
            jobs_done = len(self.results)
        if ok is None:
            ok = sum(1 for r in self.results if r.ok)
        cache, rates = self._cache_view()
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
            "slow_jobs": self.slow_jobs,
            "serve_workers": self.serve_workers,
            "cache": cache,
            "cache_hit_rates": rates,
            "instruments": self.metrics.snapshot(),
            "last_job": dict(last) if last else None,
        }

    def metrics_stats(self) -> StatsRegistry:
        """The countable telemetry as one ``serve.*`` stats registry.

        The session-cache counters (via :func:`counters_to_stats`)
        plus the job tallies and the watchdog counter — the numeric
        half of the ``--metrics-out`` export; the distribution half is
        :attr:`metrics`.
        """
        registry = counters_to_stats(self.cache_counters())
        registry.work("serve.jobs_done", len(self.results))
        registry.work("serve.jobs_ok",
                      sum(1 for r in self.results if r.ok))
        registry.work("serve.slow_jobs", self.slow_jobs)
        registry.env("serve.serve_workers", self.serve_workers)
        registry.env("serve.workers", self.workers)
        return registry

    def summary(self) -> dict:
        """Machine-readable session summary (plan-dependent numbers).

        Jobs/sec over the engine's run wall-time, the session-cache
        hit/miss/eviction counters with derived rates, the persistent
        disk-tier counters, the library build-memo counters, and the
        per-job timing list.  Everything here may legitimately vary
        run to run; the deterministic payload is the result lines
        themselves.
        """
        cache, rates = self._cache_view()
        n = len(self.results)
        t_rate = self._t_run if self._t_run > 0 else self._t_wall
        return {
            "jobs": n,
            "ok": sum(1 for r in self.results if r.ok),
            "workers": self.workers,
            "serve_workers": self.serve_workers,
            "pool_fallbacks": self._pool_fallbacks,
            "slow_jobs": self.slow_jobs,
            "t_jobs_s": self._t_wall,
            "t_run_s": self._t_run,
            "jobs_per_sec": (n / t_rate) if t_rate > 0 else 0.0,
            "cache": cache,
            "cache_hit_rates": rates,
            "per_job": list(self._t_jobs),
        }
