"""Hierarchical run-scoped tracing: spans, counters, JSONL emission.

A :class:`Span` is one timed region of the flow — a run, a sweep, a
K point, or a phase (map / place / route) — with monotonic wall-times,
free-form attributes (the K value, a job id) and a
:class:`~repro.obs.registry.StatsRegistry` of typed counters.  Spans
nest, so one run produces a tree::

    run
    └── sweep
        ├── k_point (k=0)
        │   ├── map
        │   └── evaluate
        │       ├── place
        │       └── route
        └── k_point (k=0.001)
            └── ...

A :class:`Tracer` manages the active span stack of one tree.  Flow
stages that may run inside process-pool workers build their own
*detached* tracer and ship the finished span back with their result;
the caller then :meth:`~Tracer.adopt`\\ s it into the enclosing tree in
task order.  Because both the serial and the parallel execution paths
construct spans in the same code, the resulting trees are **identical
modulo wall-times** for ``workers=1`` and ``workers=N`` — the
:meth:`Span.skeleton` view (names, attributes, deterministic counters,
children) is the tested invariant.

Timestamps are ``time.perf_counter()`` values: durations are always
meaningful; absolute starts are only comparable within one process
(adopted worker spans keep their own clock base).

:meth:`Tracer.write_jsonl` emits the tree as JSON-lines — one ``meta``
line, then one ``span`` line per node in depth-first order with a
``path`` like ``run/sweep[0]/k_point[2]/map[0]``.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Any, Dict, IO, Iterator, List, Optional, Tuple, Union

from ..errors import ReproError
from .registry import StatsRegistry

__all__ = ["Span", "Tracer", "TraceError"]


class TraceError(ReproError):
    """Tracer misuse (closing an already-closed tracer, etc.)."""


@dataclass
class Span:
    """One timed, attributed, counted region of a run."""

    name: str
    attrs: Dict[str, Any] = field(default_factory=dict)
    t_start: float = 0.0
    t_end: Optional[float] = None
    counters: StatsRegistry = field(default_factory=StatsRegistry)
    children: List["Span"] = field(default_factory=list)

    @property
    def closed(self) -> bool:
        """Whether the span has ended."""
        return self.t_end is not None

    @property
    def duration(self) -> float:
        """Wall-clock seconds from start to end (0.0 while open)."""
        return (self.t_end - self.t_start) if self.t_end is not None else 0.0

    def skeleton(self) -> Tuple:
        """The deterministic shape of the subtree.

        Names, sorted attributes, the deterministic counter subset and
        the children's skeletons — everything except wall-times and
        plan-dependent counters.  Two runs over the same inputs produce
        equal skeletons regardless of worker count or cache state.
        """
        return (
            self.name,
            tuple(sorted((k, v) for k, v in self.attrs.items())),
            tuple(sorted(self.counters.deterministic().items())),
            tuple(child.skeleton() for child in self.children),
        )

    def replayed(self) -> "Span":
        """A copy of the subtree for work that is reused, not redone.

        Names and attributes are kept and the counters are
        :meth:`~repro.obs.registry.StatsRegistry.replayed`, so the
        copy's :meth:`skeleton` is this span's; every span of the copy
        opens and closes at the moment of the call.
        """
        now = time.perf_counter()
        return Span(name=self.name, attrs=dict(self.attrs), t_start=now,
                    t_end=now, counters=self.counters.replayed(),
                    children=[child.replayed() for child in self.children])

    def iter_spans(self) -> Iterator["Span"]:
        """This span and all descendants, depth-first."""
        yield self
        for child in self.children:
            yield from child.iter_spans()

    def events(self, path: str = "", depth: int = 0
               ) -> Iterator[Dict[str, Any]]:
        """Depth-first ``span`` event dicts for JSONL emission."""
        here = f"{path}/{self.name}" if path else self.name
        event: Dict[str, Any] = {
            "event": "span",
            "path": here,
            "name": self.name,
            "depth": depth,
            "t_start": self.t_start,
            "t_end": self.t_end,
            "dur": self.duration if self.closed else None,
        }
        if self.attrs:
            event["attrs"] = dict(self.attrs)
        if len(self.counters):
            event["counters"] = self.counters.as_dict()
            event["counter_kinds"] = self.counters.kinds()
        yield event
        for i, child in enumerate(self.children):
            yield from child.events(path=f"{here}[{i}]", depth=depth + 1)


class _SpanContext:
    """Re-entrant-free context manager opening one child span."""

    def __init__(self, tracer: "Tracer", span: Span):  # noqa: D107
        self._tracer = tracer
        self._span = span

    def __enter__(self) -> Span:
        self._tracer._stack.append(self._span)
        self._span.t_start = time.perf_counter()
        return self._span

    def __exit__(self, *exc_info: Any) -> None:
        self._span.t_end = time.perf_counter()
        popped = self._tracer._stack.pop()
        assert popped is self._span


class Tracer:
    """Builds one span tree; the stack tracks the open span."""

    def __init__(self, name: str = "run", **attrs: Any):  # noqa: D107
        #: Wall-clock anchor: the Unix time at which the root span's
        #: ``perf_counter`` clock read :attr:`Span.t_start`.  Adopted
        #: worker spans keep their own clock base, so this is what lets
        #: multi-process serve traces be lined up on one timeline
        #: (``unix time of x ~= t_unix_start + (x - root.t_start)``).
        self.t_unix_start = time.time()
        self.root = Span(name=name, attrs=dict(attrs),
                         t_start=time.perf_counter())
        self._stack: List[Span] = [self.root]
        self._closed = False

    @property
    def current(self) -> Span:
        """The innermost open span."""
        return self._stack[-1]

    def span(self, name: str, **attrs: Any) -> _SpanContext:
        """Open a child span of the current span (context manager)."""
        if self._closed:
            raise TraceError("tracer is already closed")
        child = Span(name=name, attrs=dict(attrs))
        self.current.children.append(child)
        return _SpanContext(self, child)

    def adopt(self, span: Optional[Span]) -> None:
        """Attach a detached span (e.g. from a pool worker) as a child
        of the current span.  ``None`` is ignored."""
        if self._closed:
            raise TraceError("tracer is already closed")
        if span is not None:
            self.current.children.append(span)

    def close(self) -> Span:
        """End the root span and return it (idempotent)."""
        if not self._closed:
            self.root.t_end = time.perf_counter()
            self._closed = True
        return self.root

    # -- emission --------------------------------------------------------

    def events(self) -> Iterator[Dict[str, Any]]:
        """The ``meta`` line plus every span event, depth-first."""
        yield {"event": "meta", "version": 1, "root": self.root.name,
               "clock": "perf_counter",
               "t_unix_start": self.t_unix_start}
        yield from self.root.events()

    def write_jsonl(self, target: Union[str, IO[str]]) -> int:
        """Write the trace as JSON-lines; returns the line count.

        ``target`` is a path or an open text file.  The tracer is
        closed first if still open.
        """
        self.close()
        lines = [json.dumps(event, sort_keys=True, default=str)
                 for event in self.events()]
        text = "\n".join(lines) + "\n"
        if isinstance(target, str):
            with open(target, "w") as handle:
                handle.write(text)
        else:
            target.write(text)
        return len(lines)
