"""Spans: intervals with structure, exportable as a Chrome trace.

PR 6's :class:`~repro.obs.trace.TraceContext` is a point-in-time stamp —
it rides a chunk to a shard, comes back on the ack, and collapses into
one histogram sample.  A :class:`Span` keeps the interval itself: name,
start, duration, the *track* it ran on (parent, engine, or ``shard N``),
and free-form args.  A :class:`SpanRecorder` accumulates them in order
and renders the whole run as Chrome ``trace_event`` JSON
(``chrome://tracing`` / Perfetto ``ui.perfetto.dev``), which turns "why
was shard 2 slow" from a grep into a picture.

Determinism is load-bearing: the recorder takes its timestamps from an
injectable clock (the session wires in the metrics registry's clock, so
one ``FakeClock`` governs histograms *and* spans), records appear in
call order, and the exporter sorts only by ``(track, start, seq)`` —
tests pin exact span trees byte-for-byte.

Worker processes keep their own recorder and ship ``snapshot()`` home
inside the drain telemetry dict (a trailing-optional extension, no wire
format bump); the parent adopts those spans onto ``shard N`` tracks via
:meth:`SpanRecorder.merge`.  Each process's clock is its own epoch, so
cross-process tracks align at zero rather than pretending to a shared
timeline — noted in the exported metadata.
"""

from __future__ import annotations

import json
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, Dict, List, Optional

SPAN_FORMAT = 1

# Ring capacity: a tiny-preset drain is a few hundred spans; 20k covers
# a long small-preset campaign while bounding an unattended session.
DEFAULT_CAPACITY = 20_000

# Track names used by the fabric; free-form strings are fine too.
TRACK_PARENT = "parent"
TRACK_ENGINE = "engine"
TRACK_WORKER = "worker"


def shard_track(index: int) -> str:
    """The track name a shard's spans land on (``shard 3``)."""
    return f"shard {index}"


@dataclass(frozen=True, slots=True)
class Span:
    """One closed interval on one track."""

    name: str
    category: str
    start: float                 # seconds on the recorder's clock
    duration: float
    track: str
    args: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        document = {
            "name": self.name,
            "cat": self.category,
            "start": self.start,
            "duration": self.duration,
            "track": self.track,
        }
        if self.args:
            document["args"] = dict(self.args)
        return document

    @classmethod
    def from_dict(cls, document: Dict[str, Any]) -> "Span":
        return cls(
            name=document["name"],
            category=document.get("cat", "fabric"),
            start=document["start"],
            duration=document["duration"],
            track=document.get("track", TRACK_PARENT),
            args=dict(document.get("args", {})),
        )


class SpanRecorder:
    """An append-only, bounded span log for one process.

    Not thread-safe by design: every producer in the fabric (engine,
    backend, worker loop) runs on its process's main thread, matching
    the registry's locking story.
    """

    def __init__(
        self,
        clock: Optional[Callable[[], float]] = None,
        capacity: int = DEFAULT_CAPACITY,
    ) -> None:
        self.clock = clock if clock is not None else time.perf_counter
        self._spans: Deque[Span] = deque(maxlen=capacity)
        self._dropped = 0

    def __len__(self) -> int:
        return len(self._spans)

    def record(
        self,
        name: str,
        start: float,
        duration: float,
        category: str = "fabric",
        track: str = TRACK_PARENT,
        **args: Any,
    ) -> Span:
        """Append one already-measured interval (e.g. from a TraceContext)."""
        if self._spans.maxlen and len(self._spans) == self._spans.maxlen:
            self._dropped += 1
        span = Span(
            name=name,
            category=category,
            start=start,
            duration=duration,
            track=track,
            args=args,
        )
        self._spans.append(span)
        return span

    def span(
        self,
        name: str,
        category: str = "fabric",
        track: str = TRACK_PARENT,
        **args: Any,
    ) -> _OpenSpan:
        """Measure the block on this recorder's clock.

        The ``with`` target is the args dict, so the block can attach
        results discovered mid-flight (``ctx["events"] = n``) before the
        span closes.
        """
        return _OpenSpan(self, name, category, track, args)

    def merge(
        self,
        spans: List[Dict[str, Any]],
        track: Optional[str] = None,
    ) -> None:
        """Adopt spans shipped from another process (drain telemetry).

        ``track`` relabels them — the parent pins worker spans to
        ``shard N`` so every worker's ``worker`` track stays distinct.
        """
        for document in spans:
            span = Span.from_dict(document)
            if track is not None:
                span = Span(
                    name=span.name,
                    category=span.category,
                    start=span.start,
                    duration=span.duration,
                    track=track,
                    args=span.args,
                )
            if self._spans.maxlen and len(self._spans) == self._spans.maxlen:
                self._dropped += 1
            self._spans.append(span)

    def snapshot(self) -> List[Dict[str, Any]]:
        """All spans, in record order, as plain JSON-able dicts."""
        return [span.to_dict() for span in self._spans]

    @property
    def dropped(self) -> int:
        """Spans evicted by the ring bound (0 in healthy runs)."""
        return self._dropped

    # -- Chrome trace_event export ----------------------------------------

    def to_chrome_trace(self) -> Dict[str, Any]:
        """The run as a Chrome ``trace_event`` JSON document.

        Complete ("X") events on one pid, one tid per track, microsecond
        timestamps relative to each process clock's epoch.  Track order
        (and tid assignment) is sorted track name, so the document is a
        pure function of the recorded spans.
        """
        tracks = sorted({span.track for span in self._spans})
        tids = {track: index + 1 for index, track in enumerate(tracks)}
        events: List[Dict[str, Any]] = []
        for track in tracks:
            events.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": 1,
                    "tid": tids[track],
                    "args": {"name": track},
                }
            )
        ordered = sorted(
            enumerate(self._spans),
            key=lambda pair: (pair[1].track, pair[1].start, pair[0]),
        )
        for _, span in ordered:
            event = {
                "name": span.name,
                "cat": span.category,
                "ph": "X",
                "pid": 1,
                "tid": tids[span.track],
                "ts": round(span.start * 1e6, 3),
                "dur": round(span.duration * 1e6, 3),
            }
            if span.args:
                event["args"] = dict(span.args)
            events.append(event)
        return {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {
                "format": SPAN_FORMAT,
                "spans": len(self._spans),
                "dropped": self._dropped,
                "note": (
                    "timestamps are per-process clock offsets; "
                    "cross-process tracks share a zero, not a wall clock"
                ),
            },
        }

    def export(self, path: str) -> int:
        """Write the Chrome trace JSON to ``path``; returns span count."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_chrome_trace(), handle, indent=1)
            handle.write("\n")
        return len(self._spans)


class _OpenSpan:
    """The context manager :meth:`SpanRecorder.span` returns.

    A plain class, not a ``contextlib`` generator, which cost more per
    span than recording it: the engine opens one per window close.
    """

    __slots__ = (
        "_recorder", "_name", "_category", "_track", "_args", "_started"
    )

    def __init__(
        self,
        recorder: SpanRecorder,
        name: str,
        category: str,
        track: str,
        args: Dict[str, Any],
    ) -> None:
        self._recorder = recorder
        self._name = name
        self._category = category
        self._track = track
        self._args = args

    def __enter__(self) -> Dict[str, Any]:
        self._started = self._recorder.clock()
        return self._args

    def __exit__(self, *exc_info: object) -> None:
        recorder = self._recorder
        started = self._started
        recorder.record(
            self._name,
            start=started,
            duration=recorder.clock() - started,
            category=self._category,
            track=self._track,
            **self._args,
        )


__all__ = [
    "DEFAULT_CAPACITY",
    "SPAN_FORMAT",
    "Span",
    "SpanRecorder",
    "TRACK_ENGINE",
    "TRACK_PARENT",
    "TRACK_WORKER",
    "shard_track",
]
