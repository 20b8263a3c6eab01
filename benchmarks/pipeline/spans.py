"""Outside-in span recorder for the pipeline benchmark.

The benchmark measures the program without editing it: a
:class:`SpanRecorder` replaces each listed public function or method of
the already-imported package with a timing wrapper, and puts the
originals back on exit.  Module-level functions are replaced *by
identity* in every loaded module of the package, so re-exports and
``from x import f as g`` aliases (``repro.core.mapper.cover_tree``,
``repro.core.flow.make_partition``) are caught too; methods are
replaced on their class, which every alias of the class shares.

Each call becomes one span: layer, wrapped target, start, end, parent
span and self time (duration minus the time its child spans cover).
The benchmark opens a *root* span around every operation it times, so
the root's self time is the part of the operation no listed layer
accounts for (``untimed.share``).  Spans stay in memory and are written
out as JSONL once the run is over.  One recorder serves one thread.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
import time
import types
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence

__all__ = ["PIPELINE_LAYERS", "ROOT", "SpanRecorder"]

#: Layer name of the benchmark's own per-operation spans.
ROOT = "root"

#: Layer -> the public functions the benchmark wraps for it, as
#: ``module:qualname``.  Sub-layers (``place.*`` under ``place.cells``,
#: ``core.covering`` under ``core.mapper``) get their own self time.
PIPELINE_LAYERS: Dict[str, Sequence[str]] = {
    "circuits": ["repro.circuits.iwls_like:benchmark"],
    "network.decompose": ["repro.network.decompose:decompose"],
    "place.base": ["repro.place.placer:place_base_network"],
    "core.partition": ["repro.core.partition:partition"],
    "core.flow": ["repro.core.flow:congestion_aware_flow",
                  "repro.core.flow:k_sweep",
                  "repro.core.flow:run_k_point",
                  "repro.core.flow:evaluate_netlist"],
    "core.ksearch": ["repro.core.ksearch:k_search"],
    "core.mapper": ["repro.core.mapper:map_network"],
    "core.covering": ["repro.core.covering:cover_tree"],
    "core.covering.memo": ["repro.core.covering:CoverMemo.probe"],
    "core.matching": ["repro.core.matching:Matcher.matches_in_tree",
                      "repro.core.matching:Matcher.matches_at"],
    "place.cells": ["repro.place.placer:place_netlist"],
    "place.quadratic": ["repro.place.quadratic:solve_quadratic"],
    "place.mincut": ["repro.place.mincut:mincut_place"],
    "place.spreading": ["repro.place.spreading:spread"],
    "place.legalize": ["repro.place.legalize:legalize_rows"],
    "place.annealing": ["repro.place.annealing:anneal"],
    "route": ["repro.route.router:GlobalRouter.route"],
    "route.reference": ["repro.route.reference:route_reference"],
    "route.cache": ["repro.route.router:RouteCache.warm_routes",
                    "repro.route.router:RouteCache.store",
                    "repro.route.router:RouteCache.clone"],
    "timing.sta": ["repro.timing.sta:StaticTimingAnalyzer.analyze"],
    "serve.jobs": ["repro.serve.jobs:parse_jobs"],
    "serve.engine": ["repro.serve.engine:ServeEngine.run",
                     "repro.serve.engine:ServeEngine.run_job"],
    "serve.caches": ["repro.serve.caches:SessionCaches.network",
                     "repro.serve.caches:SessionCaches.layout",
                     "repro.serve.caches:SessionCaches.matcher",
                     "repro.serve.caches:SessionCaches.route_pool",
                     "repro.serve.caches:SessionCaches.sync"],
}

#: A hook sees a wrapped call's result and adds to the recorder's counters.
Hook = Callable[[Any, Dict[str, float]], None]


def _resolve(target: str):
    """(owner, attribute name, original function) of ``module:qualname``.

    Raises :class:`LookupError` when the target no longer exists, so a
    renamed layer function fails the benchmark instead of silently
    leaving its time in ``untimed.share``.
    """
    module_name, _, qualname = target.partition(":")
    try:
        owner: Any = importlib.import_module(module_name)
    except ImportError as exc:
        raise LookupError(f"span target {target}: {exc}") from None
    *path, name = qualname.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            raise LookupError(f"span target {target}: no {part!r}")
    original = (owner.__dict__.get(name) if isinstance(owner, type)
                else getattr(owner, name, None))
    if not isinstance(original, types.FunctionType):
        raise LookupError(f"span target {target}: not a plain function")
    return owner, name, original


class SpanRecorder:
    """Wraps the listed targets while active; see the module docstring.

    ``layers`` maps a layer name to its ``module:qualname`` targets;
    ``hooks`` maps a target to a :data:`Hook` run on each call's
    result.  Only modules named ``package`` or ``package.*`` are
    patched.  ``clock`` lets tests drive time by hand.
    """

    def __init__(self, layers: Dict[str, Sequence[str]],
                 hooks: Optional[Dict[str, Hook]] = None,
                 package: str = "repro",
                 clock: Callable[[], float] = time.perf_counter):  # noqa: D107
        self.layers = layers
        self.hooks = dict(hooks or {})
        self.package = package
        self.clock = clock
        #: (id, parent id or -1, layer, target, start, end, self seconds)
        self.spans: List[tuple] = []
        self.counters: Dict[str, float] = {}
        self._stack: List[list] = []       # [span id, child seconds]
        self._next_id = 0
        self._patches: List[tuple] = []    # (owner, name, original)
        self._t0 = clock()

    # -- patching --------------------------------------------------------

    def __enter__(self) -> "SpanRecorder":
        try:
            for layer, targets in self.layers.items():
                for target in targets:
                    self._install(layer, target)
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def _install(self, layer: str, target: str) -> None:
        owner, name, original = _resolve(target)
        wrapper = self._wrap(layer, target, original)
        if isinstance(owner, type):
            setattr(owner, name, wrapper)
            self._patches.append((owner, name, original))
            return
        prefix = self.package + "."
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == self.package
                                      or mod_name.startswith(prefix)):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    self._patches.append((module, attr, original))

    def restore(self) -> None:
        """Put every original back (idempotent)."""
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def _wrap(self, layer: str, target: str, fn: Callable) -> Callable:
        hook = self.hooks.get(target)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(layer, target) as counters:
                result = fn(*args, **kwargs)
                if hook is not None:
                    hook(result, counters)
                return result
        return wrapper

    # -- spans -----------------------------------------------------------

    @contextlib.contextmanager
    def span(self, layer: str, target: str = "") -> Iterator[Dict]:
        """Record one span; yields the recorder's counters for hooks."""
        stack = self._stack
        sid = self._next_id
        self._next_id += 1
        parent = stack[-1][0] if stack else -1
        frame = [sid, 0.0]
        stack.append(frame)
        start = self.clock()
        try:
            yield self.counters
        finally:
            end = self.clock()
            stack.pop()
            duration = end - start
            if stack:
                stack[-1][1] += duration
            self.spans.append((sid, parent, layer, target, start, end,
                               duration - frame[1]))

    def root(self, name: str = "op") -> contextlib.AbstractContextManager:
        """A root span around one operation the benchmark times."""
        return self.span(ROOT, name)

    # -- results ---------------------------------------------------------

    def summary(self) -> Dict[str, Any]:
        """Per-layer self seconds and calls, per-target calls, root totals.

        Every layer of the table appears, with zeros when unused.
        """
        layers = {name: {"self_s": 0.0, "calls": 0} for name in self.layers}
        targets: Dict[str, int] = {}
        root_s = root_self_s = 0.0
        for _sid, _parent, layer, target, start, end, self_s in self.spans:
            if layer == ROOT:
                root_s += end - start
                root_self_s += self_s
                continue
            entry = layers.setdefault(layer, {"self_s": 0.0, "calls": 0})
            entry["self_s"] += self_s
            entry["calls"] += 1
            targets[target] = targets.get(target, 0) + 1
        return {"layers": layers, "targets": targets, "root_s": root_s,
                "root_self_s": root_self_s, "counters": dict(self.counters)}

    def dump(self, path: str) -> None:
        """Write the spans as JSONL, times relative to recorder creation."""
        with open(path, "w") as handle:
            for sid, parent, layer, target, start, end, self_s in self.spans:
                handle.write(json.dumps({
                    "id": sid, "parent": parent, "layer": layer,
                    "fn": target, "start_s": start - self._t0,
                    "end_s": end - self._t0, "self_s": self_s}) + "\n")
