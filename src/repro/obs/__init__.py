"""Run-scoped observability: tracing, typed stats, congestion artifacts.

This package is the instrumentation layer every flow stage reports
through:

* :class:`StatsRegistry` — namespaced, collision-safe, typed counters
  that merge deterministically across process-pool workers, plus the
  two streaming kinds a serve session needs: fixed-bucket
  :class:`Histogram` and windowed :class:`RollingGauge` instruments;
* :class:`Tracer` / :class:`Span` — the hierarchical span tree of one
  run (run → sweep → k-point → phase) with monotonic wall-times,
  emittable as JSON-lines;
* :func:`profile_report` — per-phase time/counter breakdown tables;
* :func:`render_prometheus` / :func:`render_metrics_json` — one
  registry as Prometheus text or one JSON document;
* :func:`write_congestion_artifacts` — per-K-point GCell overflow
  heatmaps (CSV + ASCII).
"""

from .registry import (
    COUNT,
    ENV,
    GAUGE,
    HIST,
    Histogram,
    KINDS,
    LATENCY_BUCKETS,
    METRIC,
    ROLLING,
    RollingGauge,
    StatEntry,
    StatsCollisionError,
    StatsRegistry,
    TIME,
    WORK,
)
from .tracer import Span, TraceError, Tracer
from .metrics import parse_prometheus, render_metrics_json, render_prometheus
from .artifacts import (
    congestion_map_csv,
    congestion_map_text,
    write_congestion_artifacts,
)
from .profile import merged_counters, phase_breakdown, profile_report

__all__ = [
    "COUNT",
    "ENV",
    "GAUGE",
    "HIST",
    "Histogram",
    "KINDS",
    "LATENCY_BUCKETS",
    "METRIC",
    "ROLLING",
    "RollingGauge",
    "Span",
    "StatEntry",
    "StatsCollisionError",
    "StatsRegistry",
    "TIME",
    "TraceError",
    "Tracer",
    "WORK",
    "congestion_map_csv",
    "congestion_map_text",
    "merged_counters",
    "parse_prometheus",
    "phase_breakdown",
    "profile_report",
    "render_metrics_json",
    "render_prometheus",
    "write_congestion_artifacts",
]
