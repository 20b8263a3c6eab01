"""Job and result model of the batch engine: JSONL in, JSONL out.

A *job* is one flow request — the batch equivalent of a ``repro flow``
/ ``ksweep`` / ``ksearch`` CLI invocation — expressed as one JSON
object per line::

    {"id": "j1", "cmd": "flow",    "source": "spla@0.02", "rows": 18,
     "tolerance": 6}
    {"id": "j2", "cmd": "ksweep",  "source": "spla@0.02", "rows": 16,
     "k": [0.0, 0.001, 0.01]}
    {"id": "j3", "cmd": "ksearch", "source": "spla@0.06", "rows": 20,
     "tolerance": 6, "strategy": "bisect"}

``source`` is a BLIF path or a ``name@scale`` benchmark (exactly the
CLI's positional); ``rows`` sizes the die (0 = the engine's ``--rows``,
and failing that the utilization-derived die); ``workers`` overrides
the engine's default per-job fan-out; ``strategy`` is the ``ksearch``
search strategy.  Unknown fields, booleans where numbers belong and
values a job could only fail on at run time are rejected at parse
time, so typos fail loudly before any job runs.

A :class:`JobResult` is the corresponding output line.  It carries
**only deterministic fields** — the evaluated rows (``EvalPoint.row()``
tuples), the verdict and the chosen K — so the same job stream yields
*bit-identical* output at any worker count and whether caches were warm
or cold.  Wall-times and cache-hit tallies are plan-dependent by nature
and live in the engine summary (:meth:`repro.serve.engine.ServeEngine.
summary`) and the trace instead.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Tuple

from ..core.ksearch import STRATEGIES
from ..errors import ReproError

__all__ = ["Job", "JobError", "JobResult", "JOB_COMMANDS", "parse_job",
           "parse_jobs"]

#: The flow entry points a job may request.
JOB_COMMANDS = ("flow", "ksweep", "ksearch")

_KNOWN_FIELDS = frozenset(
    {"id", "cmd", "source", "rows", "k", "tolerance", "strategy", "workers"})


class JobError(ReproError):
    """A malformed job line (bad JSON, unknown command, bad field)."""


def _is_int(value: Any) -> bool:
    """An integer, where JSON ``true``/``false`` do not count as one."""
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass(frozen=True)
class Job:
    """One validated batch request."""

    id: str
    cmd: str
    source: str
    rows: int = 0
    k: Optional[Tuple[float, ...]] = None
    tolerance: int = 0
    strategy: str = "bisect"          # ksearch only
    workers: Optional[int] = None     # None -> engine default

    def to_dict(self) -> Dict[str, Any]:
        """The JSON object form (omits defaulted optionals)."""
        out: Dict[str, Any] = {"id": self.id, "cmd": self.cmd,
                               "source": self.source}
        if self.rows:
            out["rows"] = self.rows
        if self.k is not None:
            out["k"] = list(self.k)
        if self.tolerance:
            out["tolerance"] = self.tolerance
        if self.cmd == "ksearch":
            out["strategy"] = self.strategy
        if self.workers is not None:
            out["workers"] = self.workers
        return out

    def to_json(self) -> str:
        """One JSONL line."""
        return json.dumps(self.to_dict(), sort_keys=True)


def parse_job(data: Dict[str, Any], index: int = 0) -> Job:
    """Validate one decoded job object (``index`` names anonymous jobs)."""
    if not isinstance(data, dict):
        raise JobError(f"job {index}: expected a JSON object, "
                       f"got {type(data).__name__}")
    unknown = set(data) - _KNOWN_FIELDS
    if unknown:
        raise JobError(f"job {index}: unknown fields {sorted(unknown)}")
    cmd = data.get("cmd")
    if cmd not in JOB_COMMANDS:
        raise JobError(f"job {index}: cmd must be one of {JOB_COMMANDS}, "
                       f"got {cmd!r}")
    source = data.get("source")
    if not isinstance(source, str) or not source:
        raise JobError(f"job {index}: missing source")
    rows = data.get("rows", 0)
    if not _is_int(rows) or rows < 0:
        raise JobError(f"job {index}: rows must be a non-negative int")
    k = data.get("k")
    if k is not None:
        if not isinstance(k, list) or not all(
                _is_int(x) or isinstance(x, float) for x in k):
            raise JobError(f"job {index}: k must be a list of numbers")
        if not k:
            raise JobError(f"job {index}: k must be non-empty when given")
        bad_k = JobError(f"job {index}: k must be finite numbers >= 0")
        try:
            k = tuple(float(x) for x in k)
        except OverflowError:  # an integer beyond the float range
            raise bad_k from None
        if not all(math.isfinite(x) and x >= 0 for x in k):
            raise bad_k
    tolerance = data.get("tolerance", 0)
    if not _is_int(tolerance) or tolerance < 0:
        raise JobError(f"job {index}: tolerance must be a non-negative int")
    strategy = data.get("strategy", "bisect")
    if "strategy" in data and cmd != "ksearch":
        raise JobError(f"job {index}: strategy is for ksearch jobs only")
    if strategy not in STRATEGIES:
        raise JobError(f"job {index}: strategy must be one of "
                       f"{STRATEGIES}, got {strategy!r}")
    workers = data.get("workers")
    if workers is not None and (not _is_int(workers) or workers < 1):
        raise JobError(f"job {index}: workers must be a positive int")
    job_id = data.get("id", f"job{index}")
    return Job(id=str(job_id), cmd=cmd, source=source, rows=rows, k=k,
               tolerance=tolerance, strategy=strategy, workers=workers)


def parse_jobs(lines: Iterable[str]) -> List[Job]:
    """Parse a JSONL job stream; blank lines and ``#`` comments skipped.

    Duplicate job ids are rejected — results are keyed by id, and a
    silent duplicate would make the output stream ambiguous.
    """
    jobs: List[Job] = []
    seen: set = set()
    for lineno, line in enumerate(lines, start=1):
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise JobError(f"line {lineno}: invalid JSON ({exc.msg})") \
                from None
        except RecursionError:
            raise JobError(f"line {lineno}: invalid JSON (nested too "
                           "deeply)") from None
        job = parse_job(data, index=len(jobs) + 1)
        if job.id in seen:
            raise JobError(f"line {lineno}: duplicate job id {job.id!r}")
        seen.add(job.id)
        jobs.append(job)
    return jobs


@dataclass
class JobResult:
    """One output line — deterministic fields only (see module doc)."""

    id: str
    cmd: str
    source: str
    ok: bool
    verdict: str
    chosen_k: Optional[float] = None
    #: ``EvalPoint.row()`` tuples of every reported point, in the order
    #: the underlying entry point reports them (history order for
    #: ``flow``, K order for ``ksweep``/``ksearch``).
    rows: List[Tuple[float, float, int, float, int]] = field(
        default_factory=list)
    error: str = ""

    def to_dict(self) -> Dict[str, Any]:
        """The JSON object form."""
        out: Dict[str, Any] = {
            "id": self.id, "cmd": self.cmd, "source": self.source,
            "ok": self.ok, "verdict": self.verdict,
            "chosen_k": self.chosen_k,
            "rows": [list(row) for row in self.rows],
        }
        if self.error:
            out["error"] = self.error
        return out

    def to_json(self) -> str:
        """One JSONL line (sorted keys — byte-stable for identical data)."""
        return json.dumps(self.to_dict(), sort_keys=True)
