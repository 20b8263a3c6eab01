"""Namespaced, collision-safe, typed statistics registry.

Every stats blob the flow produces — mapper phase times, router work
counters, evaluation wall-times, executor facts — used to be an ad-hoc
``Dict[str, float]``.  Those dicts collided on merge (``t_place`` from
two layers silently overwriting each other), lost integer-ness through
``float(...)`` casts, and gave no way to tell a wall-time from an
algorithmic count.  :class:`StatsRegistry` replaces them:

* **Namespaced keys** — every key is ``<namespace>.<name>`` (e.g.
  ``route.t_negotiate``, ``map.match_cache_hits``); un-namespaced keys
  are rejected at write time.
* **Collision-safe** — a key is written once; writing it again, or
  absorbing a registry that shares a key, raises
  :class:`StatsCollisionError` instead of silently overwriting.
* **Typed** — each entry carries a :data:`kind` that fixes both its
  Python type and its cross-run merge rule:

  ========  ======  =======  ==================================
  kind      type    merge    meaning
  ========  ======  =======  ==================================
  ``time``  float   sum      wall-clock seconds (never
                             deterministic)
  ``count`` int     sum      algorithmic result count —
                             bit-identical for identical inputs
                             regardless of workers / caches
  ``gauge`` float   sum      algorithmic result value (areas,
                             estimated wirelengths) —
                             deterministic like ``count``
  ``metric`` float  sum      measured property of the produced
                             solution or the session — valid
                             either way but may vary with the
                             execution plan (e.g. routed
                             wirelength under cache warm-starts,
                             cache entry counts)
  ``work``  int     sum      work performed — varies with the
                             execution plan (cache warm-starts,
                             worker chunking) even when results
                             are identical
  ``env``   int     max      execution-environment fact
                             (worker counts, flags)
  ========  ======  =======  ==================================

* **Streaming instruments** — two more kinds hold distributions
  rather than totals, for a long-lived ``repro serve`` session:
  :class:`Histogram` (kind ``hist``: fixed ``le``-inclusive buckets)
  and :class:`RollingGauge` (kind ``rolling``: a window over the most
  recent samples).  :meth:`observe` and :meth:`record` create the
  instrument on first use and feed it on every later call; a key
  still names one thing forever, so naming it again as another kind,
  with other bounds or another window, or writing a scalar to it,
  raises :class:`StatsCollisionError`.

* **Deterministic merging** — :meth:`merge` combines registries by the
  per-kind rules above in insertion order, so aggregating the same
  per-task registries in task order yields bit-identical totals no
  matter how many processes produced them.  Instruments merge
  bucket-wise (histograms) or by window concatenation (rolling
  gauges), so merging per-chain registries in chain order equals
  observing the concatenated streams in one registry.  The
  :meth:`deterministic` view (``count`` + ``gauge`` entries) is the
  subset guaranteed equal between ``workers=1`` and ``workers=N``.
* **Scalar views stay scalar** — the mapping protocol,
  :meth:`as_dict`, :meth:`kinds` and :meth:`deterministic` cover the
  scalar entries; :meth:`instruments` returns the instruments.

Lookup accepts either the canonical dotted key or its bare final
component when unambiguous (``stats["cell_area"]`` finds
``map.cell_area``), which keeps call sites terse without giving up
collision safety at write time.
"""

from __future__ import annotations

import operator
import re
from bisect import bisect_left
from dataclasses import dataclass
from typing import (
    Any, Dict, Iterable, Iterator, List, Mapping, Optional, Tuple, Union)

from ..errors import ReproError

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
    "StatEntry",
    "StatsCollisionError",
    "StatsRegistry",
    "TIME",
    "WORK",
]

#: Entry kinds (see module docstring for semantics).
TIME = "time"
COUNT = "count"
GAUGE = "gauge"
METRIC = "metric"
WORK = "work"
ENV = "env"
HIST = "hist"
ROLLING = "rolling"
KINDS = (TIME, COUNT, GAUGE, METRIC, WORK, ENV, HIST, ROLLING)

#: Kinds holding integers end-to-end.
_INT_KINDS = (COUNT, WORK, ENV)
#: Kinds whose values are guaranteed identical across execution plans.
_DETERMINISTIC_KINDS = (COUNT, GAUGE)

_KEY_RE = re.compile(r"^[a-z][a-z0-9_]*(\.[a-z][a-z0-9_]*)+$")

Number = Union[int, float]


class StatsCollisionError(ReproError):
    """A stats key was written twice (the silent-overwrite bug class)."""


@dataclass(frozen=True)
class StatEntry:
    """One recorded statistic: its value and its kind."""

    value: Number
    kind: str


def _as_int(key: str, value: object) -> int:
    """Require an integral value (bools rejected); keep it an int."""
    if isinstance(value, bool):
        raise TypeError(f"stat {key!r}: booleans are not counters")
    try:
        return operator.index(value)  # ints and numpy integers
    except TypeError:
        raise TypeError(
            f"stat {key!r}: integer kinds require an integral value, "
            f"got {type(value).__name__}") from None


#: Default bucket bounds for wall-time observations, in seconds —
#: log-ish spacing from 1 ms to 5 min (jobs slower than that land in
#: the +Inf overflow bucket).
LATENCY_BUCKETS: Tuple[float, ...] = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
    1.0, 2.5, 5.0, 10.0, 30.0, 60.0, 120.0, 300.0)

#: Samples a rolling gauge retains by default.
DEFAULT_WINDOW = 64


class Histogram:
    """A fixed-bucket distribution with deterministic merge.

    ``bounds`` are the finite ``le``-inclusive upper bounds in strictly
    increasing order; an implicit ``+Inf`` bucket catches the rest.
    Observations land by binary search.
    """

    __slots__ = ("bounds", "counts", "count", "sum", "min", "max")
    kind = HIST

    def __init__(self, bounds: Iterable[float] = LATENCY_BUCKETS):  # noqa: D107
        self.bounds: Tuple[float, ...] = tuple(float(b) for b in bounds)
        if not self.bounds:
            raise ValueError("histogram needs at least one bucket bound")
        if any(b >= c for b, c in zip(self.bounds, self.bounds[1:])):
            raise ValueError(
                f"histogram bounds must strictly increase: {self.bounds}")
        self.counts: List[int] = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.sum = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    @property
    def param(self) -> Tuple[float, ...]:
        """What the histogram was declared with: its bucket bounds."""
        return self.bounds

    def observe(self, value: float) -> None:
        """Record one sample."""
        value = float(value)
        self.counts[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.sum += value
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)

    def merge(self, other: "Histogram") -> None:
        """Accumulate another histogram (bounds must match exactly).

        Bucket counts add as integers; ``sum`` adds in merge order —
        merging per-chain histograms in chain order therefore yields
        the same bits as one histogram fed the concatenated streams.
        """
        if other.bounds != self.bounds:
            raise StatsCollisionError(
                f"histogram merge with mismatched bounds: "
                f"{self.bounds} vs {other.bounds}")
        for i, n in enumerate(other.counts):
            self.counts[i] += n
        self.count += other.count
        self.sum += other.sum
        if other.min is not None:
            self.min = other.min if self.min is None \
                else min(self.min, other.min)
        if other.max is not None:
            self.max = other.max if self.max is None \
                else max(self.max, other.max)

    def snapshot(self) -> Dict[str, Any]:
        """A JSON-serializable copy of the full state."""
        return {"kind": HIST, "bounds": list(self.bounds),
                "counts": list(self.counts), "count": self.count,
                "sum": self.sum, "min": self.min, "max": self.max}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Histogram(count={self.count}, sum={self.sum:.6g}, "
                f"buckets={len(self.bounds)})")


class RollingGauge:
    """The recent trajectory of a moving quantity, plus lifetime extrema."""

    __slots__ = ("window", "samples", "count", "min", "max")
    kind = ROLLING

    def __init__(self, window: int = DEFAULT_WINDOW):  # noqa: D107
        if window < 1:
            raise ValueError("rolling gauge window must be >= 1")
        self.window = int(window)
        self.samples: List[float] = []
        self.count = 0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    @property
    def param(self) -> int:
        """What the gauge was declared with: its window."""
        return self.window

    def record(self, value: float) -> None:
        """Append one sample (oldest samples fall off the window)."""
        value = float(value)
        self.samples.append(value)
        if len(self.samples) > self.window:
            del self.samples[:len(self.samples) - self.window]
        self.count += 1
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)

    @property
    def last(self) -> Optional[float]:
        """The most recent sample (None before the first)."""
        return self.samples[-1] if self.samples else None

    def merge(self, other: "RollingGauge") -> None:
        """Concatenate another gauge's window after this one's.

        Windows must agree; the merged window keeps the newest samples,
        so merging chain gauges in chain order ends on the last chain's
        trajectory — a deterministic rule, if an arbitrary one.
        """
        if other.window != self.window:
            raise StatsCollisionError(
                f"rolling merge with mismatched windows: "
                f"{self.window} vs {other.window}")
        self.samples.extend(other.samples)
        if len(self.samples) > self.window:
            del self.samples[:len(self.samples) - self.window]
        self.count += other.count
        if other.min is not None:
            self.min = other.min if self.min is None \
                else min(self.min, other.min)
        if other.max is not None:
            self.max = other.max if self.max is None \
                else max(self.max, other.max)

    def snapshot(self) -> Dict[str, Any]:
        """A JSON-serializable copy of the full state."""
        return {"kind": ROLLING, "window": self.window,
                "samples": list(self.samples), "count": self.count,
                "min": self.min, "max": self.max,
                "last": self.last}


Instrument = Union[Histogram, RollingGauge]


class StatsRegistry(Mapping):
    """Insertion-ordered mapping of namespaced keys to typed stats."""

    def __init__(self) -> None:  # noqa: D107
        self._entries: Dict[str, StatEntry] = {}
        self._instruments: Dict[str, Instrument] = {}

    # -- writing ---------------------------------------------------------

    def _claim(self, key: str) -> None:
        """Check that ``key`` is namespaced and names nothing yet."""
        if not _KEY_RE.match(key):
            raise ValueError(
                f"stats key {key!r} is not namespaced "
                "(expected '<namespace>.<name>', lowercase)")
        existing = self._entries.get(key) or self._instruments.get(key)
        if existing is not None:
            raise StatsCollisionError(
                f"stats key {key!r} written twice (existing {existing})")

    def _put(self, key: str, value: Number, kind: str) -> None:
        self._claim(key)
        self._entries[key] = StatEntry(value=value, kind=kind)

    def time(self, key: str, seconds: float) -> None:
        """Record a wall-clock duration in seconds."""
        self._put(key, float(seconds), TIME)

    def count(self, key: str, value: int) -> None:
        """Record a deterministic algorithmic count (stays an int)."""
        self._put(key, _as_int(key, value), COUNT)

    def gauge(self, key: str, value: float) -> None:
        """Record a deterministic measured value (float)."""
        self._put(key, float(value), GAUGE)

    def metric(self, key: str, value: float) -> None:
        """Record a measured value (float) that may legitimately vary
        with the execution plan (e.g. warm-started routes, cache entry
        counts)."""
        self._put(key, float(value), METRIC)

    def work(self, key: str, value: int) -> None:
        """Record an execution-plan-dependent work count (int)."""
        self._put(key, _as_int(key, value), WORK)

    def env(self, key: str, value: int) -> None:
        """Record an execution-environment fact (int, merged by max)."""
        self._put(key, _as_int(key, value), ENV)

    def _instrument(self, key: str, cls: type, param: Any) -> Instrument:
        """The ``cls`` instrument at ``key``, created on first use.

        ``param`` (histogram bounds, rolling window) is fixed by the
        first use; a later use with another kind or parameter is a
        collision, like a second scalar write.
        """
        inst = self._instruments.get(key)
        if inst is None:
            self._claim(key)
            inst = self._instruments[key] = cls(param)
        elif type(inst) is not cls or inst.param != param:
            raise StatsCollisionError(
                f"instrument {key!r} is a {inst.kind} of {inst.param!r}, "
                f"not a {cls.kind} of {param!r}")
        return inst

    def observe(self, key: str, value: float,
                bounds: Iterable[float] = LATENCY_BUCKETS) -> None:
        """One observation of the histogram at ``key``."""
        self._instrument(key, Histogram,
                         tuple(float(b) for b in bounds)).observe(value)

    def record(self, key: str, value: float,
               window: int = DEFAULT_WINDOW) -> None:
        """One sample of the rolling gauge at ``key``."""
        self._instrument(key, RollingGauge, int(window)).record(value)

    # -- combining -------------------------------------------------------

    def absorb(self, other: "StatsRegistry") -> None:
        """Adopt another registry's entries; shared keys are an error.

        This is the composition operation (routing stats into an
        evaluation's stats): the key spaces must be disjoint, which is
        exactly what namespacing guarantees — a collision here is a
        bug, not data.  Instruments are adopted as copies.
        """
        for key in (*other._entries, *other._instruments):
            if key in self._entries or key in self._instruments:
                raise StatsCollisionError(f"absorb would overwrite {key!r}")
        self._entries.update(other._entries)
        self._merge_instruments(other)

    def merge(self, other: "StatsRegistry") -> None:
        """Accumulate another registry by the per-kind merge rules.

        This is the aggregation operation (the same counters from many
        tasks or workers): values of matching keys are summed
        (``env``: maxed) and instruments merge instrument-wise; kinds
        must agree.  Merging task registries in task order is
        deterministic — the serial and the parallel paths produce
        bit-identical aggregates.  An instrument seen for the first
        time is merged into a new one, never shared with ``other``.
        """
        for key, entry in other._entries.items():
            mine = self._entries.get(key)
            if mine is None:
                if key in self._instruments:
                    raise StatsCollisionError(
                        f"merge kind mismatch for {key!r}: "
                        f"{self._instruments[key].kind} vs {entry.kind}")
                self._entries[key] = entry
                continue
            if mine.kind != entry.kind:
                raise StatsCollisionError(
                    f"merge kind mismatch for {key!r}: "
                    f"{mine.kind} vs {entry.kind}")
            if entry.kind == ENV:
                value: Number = max(mine.value, entry.value)
            else:
                value = mine.value + entry.value
            self._entries[key] = StatEntry(value=value, kind=entry.kind)
        self._merge_instruments(other)

    def _merge_instruments(self, other: "StatsRegistry") -> None:
        for key, theirs in other._instruments.items():
            self._instrument(key, type(theirs), theirs.param).merge(theirs)

    def replayed(self) -> "StatsRegistry":
        """A copy for a result that is reused instead of recomputed.

        Results and environment facts (``count``, ``gauge``, ``metric``,
        ``env``) are copied; ``work`` and ``time`` entries read 0
        because none of the work was done again.  Keys, kinds and order
        are kept, so the copy merges with fresh registries like the
        original and its :meth:`deterministic` view is the original's.
        Instruments are not copied.
        """
        out = StatsRegistry()
        for key, entry in self._entries.items():
            if entry.kind == TIME:
                out.time(key, 0.0)
            elif entry.kind == WORK:
                out.work(key, 0)
            else:
                out._put(key, entry.value, entry.kind)
        return out

    @classmethod
    def merged(cls, registries: "Iterator[StatsRegistry]") -> "StatsRegistry":
        """Merge a sequence of registries (in the given order)."""
        out = cls()
        for registry in registries:
            out.merge(registry)
        return out

    # -- views -----------------------------------------------------------

    def deterministic(self) -> Dict[str, Number]:
        """The ``count``/``gauge`` subset — bit-identical across
        ``workers=1`` and ``workers=N`` for the same inputs."""
        return {key: e.value for key, e in self._entries.items()
                if e.kind in _DETERMINISTIC_KINDS}

    def as_dict(self) -> Dict[str, Number]:
        """Plain ``{key: value}`` snapshot (canonical keys)."""
        return {key: e.value for key, e in self._entries.items()}

    def kinds(self) -> Dict[str, str]:
        """Plain ``{key: kind}`` snapshot."""
        return {key: e.kind for key, e in self._entries.items()}

    def kind(self, key: str) -> str:
        """The kind of one entry (accepts bare suffixes like lookup)."""
        return self._entries[self._resolve(key)].kind

    def instruments(self) -> Dict[str, Instrument]:
        """The live instruments, in declaration order."""
        return dict(self._instruments)

    # -- mapping protocol (with bare-suffix resolution) -----------------

    def _resolve(self, key: str) -> str:
        if key in self._entries:
            return key
        if "." not in key:
            matches = [k for k in self._entries
                       if k.rsplit(".", 1)[1] == key]
            if len(matches) == 1:
                return matches[0]
            if len(matches) > 1:
                raise KeyError(
                    f"stats key {key!r} is ambiguous: {sorted(matches)}")
        raise KeyError(key)

    def __getitem__(self, key: str) -> Number:
        return self._entries[self._resolve(key)].value

    def get(self, key: str, default: Optional[Number] = None
            ) -> Optional[Number]:
        """Value of ``key`` (canonical or unambiguous bare suffix)."""
        try:
            return self[key]
        except KeyError:
            return default

    def __contains__(self, key: object) -> bool:
        try:
            self._resolve(str(key))
            return True
        except KeyError:
            return False

    def __iter__(self) -> Iterator[str]:
        return iter(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        inner = ", ".join(f"{k}={e.value!r}:{e.kind}"
                          for k, e in self._entries.items())
        return f"StatsRegistry({inner})"
