"""Export of a stats registry: Prometheus text and one JSON document.

A long-lived ``repro serve`` session keeps its counters, histograms
and rolling gauges in one :class:`~repro.obs.registry.StatsRegistry`;
this module renders that registry for scrapers and files:

* :func:`render_prometheus` — the registry in the Prometheus text
  exposition format (v0.0.4): scalar entries first, then histograms,
  then rolling gauges;
* :func:`render_metrics_json` — the same payload as one JSON document;
* :func:`parse_prometheus` — a minimal text-format parser, enough to
  round-trip everything :func:`render_prometheus` emits (used by the
  tests to pin the format).
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional

from .registry import COUNT, HIST, ROLLING, StatsRegistry, TIME, WORK

__all__ = ["parse_prometheus", "render_metrics_json", "render_prometheus"]

#: StatsRegistry kinds rendered as Prometheus counters (monotone
#: totals); everything else numeric renders as a gauge.
_COUNTER_KINDS = (COUNT, WORK, TIME)


def _prom_name(key: str, prefix: str) -> str:
    """``serve.job_seconds`` -> ``repro_serve_job_seconds``."""
    return f"{prefix}_{key.replace('.', '_')}"


def _prom_num(value: float) -> str:
    """A float in the exposition format (ints stay unadorned)."""
    if value != value:  # pragma: no cover - NaN guard
        return "NaN"
    if value == float("inf"):
        return "+Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def render_prometheus(registry: StatsRegistry, prefix: str = "repro") -> str:
    """A stats registry in Prometheus text exposition format.

    Scalar entries become counters (``count``/``work``/``time`` kinds)
    or gauges (the rest); histograms emit the standard
    ``_bucket``/``_sum``/``_count`` triplet with cumulative
    ``le``-labelled buckets; rolling gauges emit their last sample as
    a gauge plus ``_min``/``_max`` companions.
    """
    lines: List[str] = []
    kinds = registry.kinds()
    for key, value in registry.as_dict().items():
        name = _prom_name(key, prefix)
        ptype = "counter" if kinds[key] in _COUNTER_KINDS else "gauge"
        lines.append(f"# TYPE {name} {ptype}")
        lines.append(f"{name} {_prom_num(value)}")
    instruments = registry.instruments()
    for key, hist in instruments.items():
        if hist.kind != HIST:
            continue
        name = _prom_name(key, prefix)
        lines.append(f"# TYPE {name} histogram")
        cumulative = 0
        for bound, count in zip(hist.bounds, hist.counts):
            cumulative += count
            lines.append(f'{name}_bucket{{le="{_prom_num(bound)}"}} '
                         f"{cumulative}")
        cumulative += hist.counts[-1]
        lines.append(f'{name}_bucket{{le="+Inf"}} {cumulative}')
        lines.append(f"{name}_sum {_prom_num(hist.sum)}")
        lines.append(f"{name}_count {hist.count}")
    for key, gauge in instruments.items():
        if gauge.kind != ROLLING:
            continue
        name = _prom_name(key, prefix)
        lines.append(f"# TYPE {name} gauge")
        lines.append(f"{name} {_prom_num(gauge.last or 0.0)}")
        if gauge.min is not None:
            lines.append(f"{name}_min {_prom_num(gauge.min)}")
        if gauge.max is not None:
            lines.append(f"{name}_max {_prom_num(gauge.max)}")
    return "\n".join(lines) + ("\n" if lines else "")


def render_metrics_json(registry: StatsRegistry,
                        meta: Optional[Dict[str, Any]] = None) -> str:
    """The same payload as one JSON document (sorted keys)."""
    doc: Dict[str, Any] = {"schema_version": 1}
    if meta:
        doc.update(meta)
    doc["counters"] = registry.as_dict()
    doc["counter_kinds"] = registry.kinds()
    doc["instruments"] = {key: inst.snapshot() for key, inst
                          in registry.instruments().items()}
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def parse_prometheus(text: str) -> Dict[str, Dict[str, Any]]:
    """A minimal exposition-format parser (round-trips our renderer).

    Returns ``{metric name: {"type": ..., "samples": {sample name or
    (sample name, le): value}}}``.  Only what :func:`render_prometheus`
    emits is supported: ``# TYPE`` comments, bare samples, and
    single-``le``-labelled bucket samples.
    """
    out: Dict[str, Dict[str, Any]] = {}

    def family(name: str) -> Dict[str, Any]:
        return out.setdefault(name, {"type": "untyped", "samples": {}})

    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            parts = line.split()
            if len(parts) >= 4 and parts[1] == "TYPE":
                family(parts[2])["type"] = parts[3]
            continue
        sample, value_text = line.rsplit(" ", 1)
        value = float(value_text)
        if "{" in sample:
            name, _, label_text = sample.partition("{")
            labels = label_text.rstrip("}")
            key, _, raw_le = labels.partition("=")
            if key != "le":
                raise ValueError(f"unsupported label set: {line!r}")
            le = raw_le.strip('"')
            base = name[:-len("_bucket")] if name.endswith("_bucket") \
                else name
            family(base)["samples"][(name, le)] = value
        else:
            base = name = sample
            for suffix in ("_sum", "_count", "_min", "_max"):
                if name.endswith(suffix) and name[:-len(suffix)] in out:
                    base = name[:-len(suffix)]
                    break
            family(base)["samples"][name] = value
    return out
