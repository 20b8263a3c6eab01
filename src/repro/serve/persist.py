"""Content-keyed persistent on-disk cache: warm starts across restarts.

The in-memory :class:`~repro.serve.caches.SessionCaches` dies with its
process, so every *cold* engine re-places and re-routes everything it
has ever seen.  :class:`PersistentCache` is the disk tier below it: a
directory of pickled entries, one file per (kind, key), that lets a
fresh process warm-start layouts and route pools computed by an earlier
one (``repro serve --cache-dir DIR``).

Reuse must be *provably* sound — adopting a stale entry could silently
change results — so every entry carries three guards that are all
checked on load:

* **Format version** (:data:`CACHE_FORMAT`) — bumped whenever the
  payload layout changes; old-format files are skipped, never parsed
  into the wrong shape.
* **Fingerprint** — a digest of everything that could change what a
  cached payload *means*: the repro version, the numpy major/minor
  version (array pickles), and the cell library's content (names,
  areas, row height).  A cache written by a different build or against
  a different library is skipped wholesale.
* **Key echo** — the full repr of the logical key is stored inside the
  entry and compared on load, so a filename-digest collision (or a
  hand-renamed file) can never alias two keys.

A guard miss, a truncated file, or any unpickling error counts as
``skipped`` and behaves exactly like a cache miss: the caller
recomputes and overwrites.  Corruption is *never* fatal.  Writes go
through :func:`~repro.serve.status.write_atomic_text` (a temp file +
:func:`os.replace`), so concurrent writers (e.g. parallel serve chains
sharing one ``--cache-dir``) leave either the old or the new complete
entry, never a torn one.

What a cache file may contain: a pickle of builtin dicts, lists,
tuples, sets, strings and numbers, plus the few globals the two
payloads use — numpy dtypes and arrays rebuilt from a raw buffer
(numpy refuses object arrays there), and a layout's
:class:`~repro.geometry.PositionMap`,
:class:`~repro.core.partition.Partition` and
:class:`~repro.core.partition.Tree`.  Loading refuses any other global
before importing it and counts the file as ``skipped``, so a file
planted in the directory cannot run code.  A file that passes can still
carry well-formed wrong data, so only the service should write there.
"""

from __future__ import annotations

import hashlib
import os
import pickle
from typing import Any, Dict, Optional

from .. import __version__
from ..library.cell import CellLibrary
from .status import write_atomic_text

__all__ = ["CACHE_FORMAT", "PersistentCache", "cache_fingerprint"]

#: Bump when the on-disk payload layout changes; older files are skipped.
CACHE_FORMAT = 1

#: (module, name) of every global a cache file may name: what the
#: layout payload, ``(PositionMap, Partition)``, and the route payload,
#: edge-id arrays, pickle to.  numpy 2 moved ``_frombuffer`` from
#: ``numpy.core`` to ``numpy._core``.
_PAYLOAD_GLOBALS = frozenset({
    ("numpy", "dtype"),
    ("numpy._core.numeric", "_frombuffer"),
    ("numpy.core.numeric", "_frombuffer"),
    ("repro.core.partition", "Partition"),
    ("repro.core.partition", "Tree"),
    ("repro.geometry", "PositionMap"),
})


class _PayloadUnpickler(pickle.Unpickler):
    """Unpickles a cache file, refusing globals outside
    :data:`_PAYLOAD_GLOBALS` before they are imported or called."""

    def find_class(self, module: str, name: str) -> Any:
        if (module, name) not in _PAYLOAD_GLOBALS:
            raise pickle.UnpicklingError(
                f"cache files may not name {module}.{name}")
        return super().find_class(module, name)


def cache_fingerprint(library: CellLibrary) -> str:
    """The compatibility digest stored in (and required of) every entry.

    Covers the repro release, the numpy major/minor version and the
    library content — the inputs under which a cached layout or route
    snapshot stays valid.  Anything else (hostname, path, time) is
    deliberately excluded: caches are meant to be reusable.
    """
    import numpy

    np_tag = ".".join(numpy.__version__.split(".")[:2])
    cells = ";".join(f"{c.name}:{c.area:g}:{c.num_inputs}"
                     for c in library.cells())
    text = (f"format={CACHE_FORMAT}|repro={__version__}|numpy={np_tag}"
            f"|library={library.name}:{library.row_height:g}|{cells}")
    return "sha256:" + hashlib.sha256(text.encode("utf-8")).hexdigest()


class PersistentCache:
    """One cache directory: ``load``/``store`` plus skip-not-fail guards."""

    def __init__(self, directory: str, fingerprint: str):  # noqa: D107
        self.directory = directory
        self.fingerprint = fingerprint
        os.makedirs(directory, exist_ok=True)
        self._counts: Dict[str, int] = {
            "persist_hits": 0, "persist_misses": 0,
            "persist_skipped": 0, "persist_writes": 0,
        }

    def _path(self, kind: str, key: Any) -> str:
        digest = hashlib.sha256(repr((kind, key)).encode("utf-8")).hexdigest()
        return os.path.join(self.directory, f"{kind}-{digest[:40]}.pkl")

    # -- reading ---------------------------------------------------------

    def load(self, kind: str, key: Any) -> Optional[Any]:
        """The payload stored for (kind, key), or ``None``.

        ``None`` means either *miss* (no file) or *skipped* (guard
        mismatch or corruption) — the counters distinguish them, the
        caller need not: both mean "recompute and store".
        """
        path = self._path(kind, key)
        if not os.path.exists(path):
            self._counts["persist_misses"] += 1
            return None
        try:
            with open(path, "rb") as handle:
                entry = _PayloadUnpickler(handle).load()
            if (not isinstance(entry, dict)
                    or entry.get("format") != CACHE_FORMAT
                    or entry.get("fingerprint") != self.fingerprint
                    or entry.get("kind") != kind
                    or entry.get("key") != repr(key)):
                self._counts["persist_skipped"] += 1
                return None
            payload = entry["payload"]
        except Exception:
            # Truncated/corrupted/unreadable: a stale cache must never
            # take the service down — it is only ever a missed speedup.
            self._counts["persist_skipped"] += 1
            return None
        self._counts["persist_hits"] += 1
        return payload

    # -- writing ---------------------------------------------------------

    def store(self, kind: str, key: Any, payload: Any) -> bool:
        """Atomically (over)write the entry for (kind, key).

        Returns whether the write landed; an unpicklable payload or a
        full disk is reported as ``False`` rather than raised — the
        in-memory tier still has the object, so the job stream
        continues unharmed.
        """
        entry = {"format": CACHE_FORMAT, "fingerprint": self.fingerprint,
                 "kind": kind, "key": repr(key), "payload": payload}
        try:
            write_atomic_text(self._path(kind, key), pickle.dumps(
                entry, protocol=pickle.HIGHEST_PROTOCOL))
        except Exception:
            return False
        self._counts["persist_writes"] += 1
        return True

    # -- reporting -------------------------------------------------------

    def counters(self) -> Dict[str, int]:
        """Plain hit/miss/skip/write snapshot."""
        return dict(self._counts)
