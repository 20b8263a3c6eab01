"""Live service status: atomic heartbeats and the follow long-poll.

A running ``repro serve`` session is a black box until it exits unless
it writes one somewhere.  Two pieces close that gap:

* :class:`StatusWriter` — ``--status-file`` plumbing.  The engine hands
  it a heartbeat document after every job (and chain outcome); the
  writer throttles to *every N jobs / every S seconds* and writes
  **atomically** (temp file + ``os.replace`` in the same directory), so
  a reader never observes a torn JSON document.  The final heartbeat
  (``state: "done"``) is always written.
* :func:`follow` — ``repro follow`` plumbing.  Long-polls a file that
  either *grows* (a results JSONL stream) or is *atomically replaced*
  (a status heartbeat: ``os.replace`` gives the path a new inode, which
  is how replacement is detected) and hands every complete new line to
  a callback.  It terminates on an **end-of-stream marker** (a JSON
  line whose ``state`` is ``"done"`` — the final heartbeat), on a line
  **count**, or on a **timeout** without new data.

Heartbeat schema (``schema_version`` 1)::

    {
      "schema_version": 1,
      "event": "status",
      "state": "running" | "done",
      "pid": 12345,
      "t_unix": 1754650000.0,          # wall clock at write
      "jobs_total": 12,                # submitted (0 = not yet known)
      "jobs_done": 5, "ok": 5, "failed": 0,
      "in_flight_chains": 2,           # parallel scheduling only
      "slow_jobs": 0,                  # soft-deadline watchdog trips
      "cache": {...},                  # cache view of ServeEngine.stats()
      "cache_hit_rates": {...},        # per family, 0..1
      "instruments": {...},            # {key: instrument.snapshot()}
      "last_job": {"id": ..., "cmd": ..., "ok": ..., "t_s": ...}
    }

Everything in a heartbeat is *plan-dependent* (wall-clocks, hit rates,
worker interleaving); the deterministic payload remains the result
lines.  Turning the status file on cannot change a result byte —
asserted by ``tests/serve/test_cli_serve.py`` and the CI obs-metrics
smoke step.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from typing import Any, Callable, Dict, Optional, Tuple, Union

__all__ = ["STATUS_SCHEMA_VERSION", "StatusWriter", "follow",
           "is_end_marker", "write_atomic_json", "write_atomic_text"]

#: Bump when a heartbeat field is renamed or removed (additions are free).
STATUS_SCHEMA_VERSION = 1


def write_atomic_text(path: str, text: Union[str, bytes]) -> None:
    """Write ``text`` (str or bytes) to ``path`` so readers never see a
    torn file.

    The temp file lives in the target directory (``os.replace`` must
    not cross filesystems) and is removed if the write fails.  It is a
    dot file named ``.tmp-*``, so a glob for the targets (such as a
    cache's ``layout-*.pkl``) never sees it.
    """
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp_path = tempfile.mkstemp(prefix=".tmp-", dir=directory)
    try:
        with os.fdopen(fd, "wb" if isinstance(text, bytes) else "w") \
                as handle:
            handle.write(text)
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:  # pragma: no cover - best-effort cleanup
            pass
        raise


def write_atomic_json(path: str, document: Dict[str, Any]) -> None:
    """Atomically write ``document`` as one compact JSON line.

    The trailing newline matters: a follower treats each replacement
    of the file as one complete new line.
    """
    write_atomic_text(path, json.dumps(document, sort_keys=True) + "\n")


class StatusWriter:
    """Throttled atomic heartbeat emission for one serve session.

    ``every_jobs`` / ``every_s`` gate how often :meth:`update` actually
    writes (whichever fires first; ``every_jobs=1`` with ``every_s=0``
    writes after every job).  ``force=True`` (the final heartbeat)
    always writes.  ``on_write`` (assignable) is called with the
    document after every actual write — the CLI hangs the
    ``--metrics-out`` re-render off it so metrics files track
    heartbeats without a second throttle.
    """

    def __init__(self, path: str, every_jobs: int = 1,
                 every_s: float = 0.0):  # noqa: D107
        self.path = path
        self.every_jobs = max(1, int(every_jobs))
        self.every_s = max(0.0, float(every_s))
        self.writes = 0
        self.on_write: Optional[Callable[[Dict[str, Any]], None]] = None
        self._jobs_at_last_write: Optional[int] = None
        self._t_last_write = 0.0

    def _due(self, jobs_done: int) -> bool:
        if self._jobs_at_last_write is None:
            return True
        if jobs_done - self._jobs_at_last_write >= self.every_jobs:
            return True
        return bool(self.every_s) and \
            time.monotonic() - self._t_last_write >= self.every_s

    def update(self, document: Dict[str, Any], force: bool = False) -> bool:
        """Write a heartbeat if one is due; returns whether it wrote."""
        jobs_done = int(document.get("jobs_done", 0))
        if not force and not self._due(jobs_done):
            return False
        write_atomic_json(self.path, document)
        self.writes += 1
        self._jobs_at_last_write = jobs_done
        self._t_last_write = time.monotonic()
        if self.on_write is not None:
            self.on_write(document)
        return True


def is_end_marker(line: str) -> bool:
    """Whether a followed line declares the stream finished.

    The final serve heartbeat carries ``"state": "done"``; any JSON
    object line with that field (or an explicit ``"event": "end"``)
    ends the follow.  Non-JSON lines never end a stream.
    """
    try:
        data = json.loads(line)
    except (json.JSONDecodeError, ValueError):
        return False
    return isinstance(data, dict) and (
        data.get("state") == "done" or data.get("event") == "end")


def _read_new(path: str, offset: int, inode: Optional[int]
              ) -> Tuple[str, int, Optional[int]]:
    """New bytes of ``path`` past ``offset``; handles atomic replacement.

    Returns ``(text, new offset, inode)``.  A changed inode or a file
    shrunk below the offset means the file was replaced (heartbeat
    rewrite) — reading restarts from the top.
    """
    try:
        stat = os.stat(path)
    except FileNotFoundError:
        return "", offset, inode
    if inode is not None and stat.st_ino != inode:
        offset = 0
    elif stat.st_size < offset:
        offset = 0
    if stat.st_size == offset:
        return "", offset, stat.st_ino
    with open(path, "r") as handle:
        handle.seek(offset)
        text = handle.read()
    return text, offset + len(text.encode("utf-8", "surrogateescape")), \
        stat.st_ino


def follow(path: str,
           on_line: Callable[[str], None],
           timeout_s: float = 30.0,
           poll_s: float = 0.2,
           count: int = 0) -> Tuple[int, str]:
    """Long-poll ``path`` and feed complete new lines to ``on_line``.

    Termination, in priority order:

    * ``"end"`` — a line satisfied :func:`is_end_marker` (the stream
      announced completion);
    * ``"count"`` — ``count > 0`` lines have been delivered;
    * ``"timeout"`` — no new complete line arrived for ``timeout_s``
      seconds (existing content is read immediately, so a finished
      file is drained without waiting).

    Returns ``(lines delivered, reason)``.  A trailing partial line
    (no newline yet) is buffered until its newline arrives — or
    flushed once at timeout, so a final unterminated line is not lost.
    """
    offset = 0
    inode: Optional[int] = None
    pending = ""
    delivered = 0
    deadline = time.monotonic() + max(0.0, timeout_s)

    def deliver(line: str) -> Optional[str]:
        nonlocal delivered
        on_line(line)
        delivered += 1
        if is_end_marker(line):
            return "end"
        if count and delivered >= count:
            return "count"
        return None

    while True:
        text, new_offset, inode = _read_new(path, offset, inode)
        if new_offset < offset:  # pragma: no cover - replacement race
            pending = ""
        offset = new_offset
        if text:
            pending += text
            deadline = time.monotonic() + max(0.0, timeout_s)
            *lines, pending = pending.split("\n")
            for line in lines:
                if not line.strip():
                    continue
                reason = deliver(line)
                if reason is not None:
                    return delivered, reason
        if time.monotonic() >= deadline:
            if pending.strip():
                reason = deliver(pending)
                if reason is not None:
                    return delivered, reason
            return delivered, "timeout"
        time.sleep(poll_s)
