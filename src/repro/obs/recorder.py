"""Flight recorder: the last N moments before something went wrong.

Logs narrate, metrics aggregate — but when a shard worker dies the
question is "what *exactly* crossed the wire just before?".  A
:class:`FlightRecorder` is one bounded ring buffer per process holding
the most recent wire-frame headers (direction, size, shard — never
payloads) and structured log records, in one interleaved sequence.
It costs a deque append per event until the moment it matters, then
:meth:`dump` freezes the ring into a timestamped directory as JSON.

Dump triggers, wired by the session/CLI layers:

- **worker death** — the parent dumps before attempting dead-shard
  recovery, attaching the replay-log summary for the dead shard so the
  dump's tail can be checked against what recovery will re-send;
- **unhandled engine exception** — a worker dumps before shipping the
  ``error`` frame home;
- **SIGUSR1** — :func:`install_signal_handler` makes a live process
  dump on demand (``kill -USR1 <pid>``) without disturbing it.

A module-level current-recorder slot (:func:`install` / :func:`get`)
lets deep layers (the transport's byte hooks, the log handler) find the
process recorder without threading it through every constructor.
"""

from __future__ import annotations

import json
import logging
import os
import signal
import time
from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional

from repro.obs.log import record_payload

DEFAULT_CAPACITY = 512

# One process-wide recorder (a worker or a parent has exactly one).
_CURRENT: Optional["FlightRecorder"] = None


class FlightRecorder:
    """A bounded ring of frame headers and log records."""

    def __init__(
        self,
        capacity: int = DEFAULT_CAPACITY,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        self.capacity = capacity
        self.clock = clock if clock is not None else time.time
        self._entries: Deque[Dict[str, Any]] = deque(maxlen=capacity)
        self._seq = 0

    def __len__(self) -> int:
        return len(self._entries)

    def _append(self, kind: str, payload: Dict[str, Any]) -> None:
        self._seq += 1
        self._entries.append(
            {"seq": self._seq, "ts": round(self.clock(), 6), "kind": kind,
             **payload}
        )

    # -- producers ---------------------------------------------------------

    def note_frame(
        self,
        direction: str,
        size: int,
        shard: Optional[int] = None,
        kind: Optional[str] = None,
    ) -> None:
        """One wire frame's header: direction (send/recv), size, shard."""
        payload: Dict[str, Any] = {"direction": direction, "size": size}
        if shard is not None:
            payload["shard"] = shard
        if kind is not None:
            payload["frame"] = kind
        self._append("frame", payload)

    def note_log(self, record: logging.LogRecord) -> None:
        """One structured log record (same fields the JSON stream prints)."""
        self._append(
            "log",
            {
                "level": record.levelname.lower(),
                "logger": record.name,
                "event": record.getMessage(),
                "fields": record_payload(record),
            },
        )

    # -- consumers ---------------------------------------------------------

    def entries(self) -> List[Dict[str, Any]]:
        return list(self._entries)

    def tail(
        self, kind: Optional[str] = None, shard: Optional[int] = None
    ) -> List[Dict[str, Any]]:
        """The ring filtered by entry kind and/or shard, oldest first."""
        out = []
        for entry in self._entries:
            if kind is not None and entry["kind"] != kind:
                continue
            if shard is not None and entry.get("shard") != shard:
                continue
            out.append(entry)
        return out

    def dump(
        self,
        directory: str,
        reason: str,
        extra: Optional[Dict[str, Any]] = None,
    ) -> str:
        """Freeze the ring to ``directory/<utc-stamp>-<reason>-pid<pid>/``.

        Returns the path of the written ``flight.json``.  Never raises:
        the recorder is crash-path code, and a dump failure must not
        mask the crash it was trying to explain — on error it returns
        the empty string.
        """
        try:
            stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
            safe_reason = "".join(
                ch if ch.isalnum() or ch in "-_" else "-" for ch in reason
            )
            name = f"{stamp}-{safe_reason}-pid{os.getpid()}"
            target = os.path.join(directory, name)
            os.makedirs(target, exist_ok=True)
            path = os.path.join(target, "flight.json")
            document = {
                "reason": reason,
                "pid": os.getpid(),
                "created": time.time(),
                "capacity": self.capacity,
                "entries": self.entries(),
            }
            if extra:
                document["extra"] = extra
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(document, handle, indent=1, default=repr)
                handle.write("\n")
            return path
        except Exception:
            return ""


class RecorderHandler(logging.Handler):
    """Feeds every ``repro.*`` log record into the flight recorder."""

    def __init__(self, recorder: FlightRecorder) -> None:
        super().__init__(level=logging.DEBUG)
        self._recorder = recorder

    def emit(self, record: logging.LogRecord) -> None:
        try:
            self._recorder.note_log(record)
        except Exception:
            pass


def install(
    recorder: Optional[FlightRecorder],
    capture_logs: bool = True,
) -> Optional[FlightRecorder]:
    """Make ``recorder`` this process's recorder (None uninstalls).

    With ``capture_logs``, attaches a :class:`RecorderHandler` to the
    ``repro`` logger root so the ring sees log records even when no
    CLI handler is configured (the handler is swapped out with the
    recorder).
    """
    global _CURRENT
    root = logging.getLogger("repro")
    for handler in list(root.handlers):
        if isinstance(handler, RecorderHandler):
            root.removeHandler(handler)
    _CURRENT = recorder
    if recorder is not None and capture_logs:
        root.addHandler(RecorderHandler(recorder))
        # The handler must see records even when no stream handler has
        # raised the root level; NOTSET would inherit WARNING.
        if root.level == logging.NOTSET or root.level > logging.DEBUG:
            root.setLevel(logging.DEBUG)
    return recorder


def get() -> Optional[FlightRecorder]:
    """The process's installed recorder, if any."""
    return _CURRENT


def install_signal_handler(directory: str) -> bool:
    """Dump the installed recorder on ``SIGUSR1`` (main thread only).

    Returns False where SIGUSR1 does not exist (Windows) or the call
    site is not the main thread — callers treat it as best-effort.
    """
    if not hasattr(signal, "SIGUSR1"):
        return False

    def _dump(signum, frame):
        recorder = get()
        if recorder is not None:
            recorder.dump(directory, reason="sigusr1")

    try:
        signal.signal(signal.SIGUSR1, _dump)
    except ValueError:          # not the main thread
        return False
    return True


__all__ = [
    "DEFAULT_CAPACITY",
    "FlightRecorder",
    "RecorderHandler",
    "get",
    "install",
    "install_signal_handler",
]
