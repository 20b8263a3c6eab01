"""Run-scoped observability: tracing, typed stats, congestion artifacts.

This package is the instrumentation layer every flow stage reports
through:

* :class:`StatsRegistry` — namespaced, collision-safe, typed counters
  that merge deterministically across process-pool workers;
* :class:`Tracer` / :class:`Span` — the hierarchical span tree of one
  run (run → sweep → k-point → phase) with monotonic wall-times,
  emittable as JSON-lines;
* :func:`profile_report` — per-phase time/counter breakdown tables;
* :func:`write_congestion_artifacts` — per-K-point GCell overflow
  heatmaps (CSV + ASCII).
"""

from .registry import (
    COUNT,
    ENV,
    GAUGE,
    KINDS,
    METRIC,
    StatEntry,
    StatsCollisionError,
    StatsRegistry,
    TIME,
    WORK,
)
from .tracer import Span, TraceError, Tracer
from .metrics import (
    BYTE_BUCKETS,
    HIST,
    Histogram,
    LATENCY_BUCKETS,
    MetricsRegistry,
    ROLLING,
    RollingGauge,
    parse_prometheus,
    render_metrics_json,
    render_prometheus,
)
from .artifacts import (
    congestion_map_csv,
    congestion_map_text,
    write_congestion_artifacts,
)
from .profile import merged_counters, phase_breakdown, profile_report

__all__ = [
    "BYTE_BUCKETS",
    "COUNT",
    "ENV",
    "GAUGE",
    "HIST",
    "Histogram",
    "KINDS",
    "LATENCY_BUCKETS",
    "METRIC",
    "MetricsRegistry",
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
