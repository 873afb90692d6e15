"""Structured logging: the narrative plane of the observability stack.

The registry (:mod:`repro.obs.metrics`) answers "how much, how fast";
this module answers "what happened, in which shard, and why".  One
stdlib-:mod:`logging` hierarchy rooted at ``repro``, emitting either
human-readable lines or one JSON object per line (``--log-json``), with
three context sources merged into every record:

- **explicit fields** — ``logger.info("shard.spawn", extra=fields(...))``
  attaches typed key/values to one record;
- **bound context** — :func:`bound` pushes fields (campaign id, shard
  index) onto a :mod:`contextvars` stack, so everything logged inside the
  block carries them — including from code that has no idea the context
  exists;
- **the active trace** — when the fabric's :class:`~repro.obs.trace.Tracer`
  mints a span context, its trace id rides every record logged while the
  span is open, which is what lets an operator join a log line to the
  wire frame (and the verdict-latency sample) it narrates.

The library stays silent by default: importing this module attaches a
``NullHandler`` to the ``repro`` root, so sessions embedded in other
programs never print unless the host (or a CLI's ``--log-level``) calls
:func:`configure`.  Log emission never touches canonical records —
drains stay byte-identical at any level (pinned in
``tests/test_obs_narrative.py``).
"""

from __future__ import annotations

import contextlib
import contextvars
import io
import json
import logging
import time
from typing import Any, Dict, Iterator, Optional

ROOT = "repro"

# The bound-context stack: a tuple of (key, value) pairs.  Tuples (not
# dicts) so nested bound() blocks share structure instead of copying.
_BOUND: contextvars.ContextVar = contextvars.ContextVar(
    "repro_log_context", default=()
)

# The active trace id (set by Tracer.start, cleared never — the latest
# span wins, which is exactly the "what was in flight" question a log
# reader asks).  None until tracing is on.
_TRACE: contextvars.ContextVar = contextvars.ContextVar(
    "repro_trace_id", default=None
)

# Attributes a LogRecord is born with; anything else came in via
# ``extra=`` and belongs in the structured payload.
_RECORD_BUILTINS = frozenset(
    logging.LogRecord(
        "", 0, "", 0, "", (), None
    ).__dict__
) | {"message", "asctime", "taskName"}

LEVELS = ("debug", "info", "warning", "error", "critical")


def get_logger(name: Optional[str] = None) -> logging.Logger:
    """A logger under the ``repro`` hierarchy (``repro.<name>``)."""
    if not name:
        return logging.getLogger(ROOT)
    if name.startswith(ROOT + ".") or name == ROOT:
        return logging.getLogger(name)
    return logging.getLogger(f"{ROOT}.{name}")


def fields(**values: Any) -> Dict[str, Any]:
    """Structured fields for one record: ``log.info(e, extra=fields(...))``."""
    return values


def bind(**values: Any) -> None:
    """Permanently extend the bound context (process-lifetime fields).

    For dedicated processes — a shard worker binds its shard index once
    and every record it ever logs carries it.  Use :func:`bound` for
    scoped fields.
    """
    _BOUND.set(_BOUND.get() + tuple(values.items()))


@contextlib.contextmanager
def bound(**values: Any) -> Iterator[None]:
    """Bind context fields to every record logged inside the block."""
    token = _BOUND.set(_BOUND.get() + tuple(values.items()))
    try:
        yield
    finally:
        _BOUND.reset(token)


def set_active_trace(trace_id: Optional[int]) -> None:
    """Record the trace id of the span currently in flight (Tracer)."""
    _TRACE.set(trace_id)


def record_payload(record: logging.LogRecord) -> Dict[str, Any]:
    """One record's structured fields: bound context, then extras.

    Shared by both formatters and the flight recorder, so a dumped ring
    buffer holds exactly what the JSON stream would have printed.
    """
    payload: Dict[str, Any] = dict(_BOUND.get())
    trace_id = _TRACE.get()
    if trace_id is not None:
        payload.setdefault("trace_id", trace_id)
    for key, value in record.__dict__.items():
        if key not in _RECORD_BUILTINS:
            payload[key] = value
    return payload


class JsonFormatter(logging.Formatter):
    """One JSON object per line: ts, level, logger, event, context."""

    def format(self, record: logging.LogRecord) -> str:
        document: Dict[str, Any] = {
            "ts": round(record.created, 6),
            "level": record.levelname.lower(),
            "logger": record.name,
            "event": record.getMessage(),
        }
        document.update(record_payload(record))
        if record.exc_info:
            document["traceback"] = self.formatException(record.exc_info)
        return json.dumps(document, default=repr, sort_keys=False)


class TextFormatter(logging.Formatter):
    """Human lines: ``HH:MM:SS LEVEL logger event key=value ...``."""

    def format(self, record: logging.LogRecord) -> str:
        stamp = time.strftime(
            "%H:%M:%S", time.localtime(record.created)
        )
        parts = [
            stamp,
            record.levelname.lower(),
            record.name.removeprefix(ROOT + "."),
            record.getMessage(),
        ]
        for key, value in record_payload(record).items():
            parts.append(f"{key}={value}")
        line = " ".join(str(part) for part in parts)
        if record.exc_info:
            line = f"{line}\n{self.formatException(record.exc_info)}"
        return line


def configure(
    level: str = "info",
    json_lines: bool = False,
    stream: Optional[io.TextIOBase] = None,
) -> logging.Logger:
    """Stand up the ``repro`` log stream (CLI entry point; idempotent).

    Replaces any handler a previous :func:`configure` installed, so
    re-configuring (tests, REPL) never doubles output.  Returns the
    root logger.
    """
    if level not in LEVELS:
        raise ValueError(f"log level must be one of {LEVELS}, got {level!r}")
    root = logging.getLogger(ROOT)
    for handler in list(root.handlers):
        if getattr(handler, "_repro_configured", False):
            root.removeHandler(handler)
    handler = logging.StreamHandler(stream)  # None → stderr
    handler.setFormatter(JsonFormatter() if json_lines else TextFormatter())
    handler._repro_configured = True
    root.addHandler(handler)
    root.setLevel(getattr(logging, level.upper()))
    return root


def add_log_arguments(parser) -> None:
    """The shared ``--log-level`` / ``--log-json`` CLI switches."""
    parser.add_argument(
        "--log-level",
        default=None,
        choices=LEVELS,
        help=(
            "emit structured lifecycle logs at this level "
            "(default: logging stays off)"
        ),
    )
    parser.add_argument(
        "--log-json",
        action="store_true",
        help="structured logs as one JSON object per line (implies "
        "--log-level info unless set)",
    )


def configure_from_args(args) -> None:
    """Apply :func:`add_log_arguments` flags (no-op when neither given)."""
    level = getattr(args, "log_level", None)
    json_lines = bool(getattr(args, "log_json", False))
    if level is None and not json_lines:
        return
    configure(level=level or "info", json_lines=json_lines)


# Silent-by-default: library users opt in via configure().
logging.getLogger(ROOT).addHandler(logging.NullHandler())


__all__ = [
    "LEVELS",
    "JsonFormatter",
    "TextFormatter",
    "add_log_arguments",
    "bind",
    "bound",
    "configure",
    "configure_from_args",
    "fields",
    "get_logger",
    "record_payload",
    "set_active_trace",
]
