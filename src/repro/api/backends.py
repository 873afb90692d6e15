"""Pluggable execution backends for :class:`LocalizationSession`.

A backend owns the *drain path*: observations go in (one at a time or as
a whole dataset), verdict events come out, and ``drain()`` produces the
final :class:`~repro.core.pipeline.PipelineResult`.  Two implementations:

- :class:`InlineBackend` — the current single-threaded paths: the batch
  :class:`~repro.core.pipeline.LocalizationPipeline` for one-shot dataset
  runs, one :class:`~repro.stream.engine.StreamingLocalizer` for
  everything incremental.
- :class:`ShardedBackend` — open windows partitioned across worker
  processes by the existing bucket key.  All granularities of one
  (URL, anomaly) pair share every bucket-key prefix, so that pair *is*
  the shard key: each observation routes to exactly one worker, every
  worker holds complete ledgers for the problems it owns, and the merged
  drain is byte-identical to the inline one.  The parent converts
  measurements itself (one conversion, one discard tally), tracks the
  global bucket-creation order (which fixes the merged solution order the
  reduction statistics depend on), and re-sequences the workers' verdict
  events into one subscriber stream.

Both backends checkpoint: ``state()`` exports one backend-agnostic
engine-state dict (:mod:`repro.stream.checkpoint` format), ``restore()``
rebuilds from it — so a campaign checkpointed under one backend can
resume under the other, or under a different shard count.

Worker plumbing: each shard is one worker process behind a
:class:`~repro.api.transport.ShardTransport` — a duplex pipe to a forked
local process, or a TCP socket to a worker on any host (started via
``repro-runner shard-worker --connect``).  Frames use the compact
batched wire protocol (:mod:`repro.api.wire`): tuple-encoded observation
chunks and verdict-event batches, one frame per chunk, which is what
makes the shard boundary cheap enough for sharding to win well before
paper scale.  A daemon receiver thread per worker drains the transport
into a queue so neither side ever blocks the other into a deadlock (the
parent's sends can only stall while a worker is mid-ingest, and workers
always return to ``recv`` because their sends are always drained).

Dead shards recover instead of failing the stream: the parent keeps each
worker's last engine-state slice (its *baseline*: the initial restore
slice or the last session checkpoint) plus the encoded frames sent
since, respawns/reconnects the worker, restores the baseline, replays
the log, and deduplicates the re-emitted verdict events by the
shard-local sequence already delivered — so subscribers see each event
exactly once and the drain stays byte-identical.  A shard that keeps
dying fails the stream after ``RECOVERY_ATTEMPTS`` consecutive failed
rebuilds.
"""

from __future__ import annotations

import abc
import queue as queue_module
import threading
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.anomaly import Anomaly
from repro.core.observations import (
    DiscardStats,
    Observation,
    build_observations,
    first_path_only,
    observations_of,
)
from repro.core.pipeline import (
    LocalizationPipeline,
    PipelineResult,
    assemble_head,
    assemble_result,
    observation_from_dict,
    problem_key_from_dict,
)
from repro.core.problem import ProblemSolution, SolveStats
from repro.core.splitting import ProblemKey, window_start
from repro.iclab.dataset import Dataset
from repro.iclab.measurement import Measurement
from repro.obs import log as obslog
from repro.obs import recorder as obsrecorder
from repro.obs.metrics import MetricsRegistry
from repro.obs.recorder import FlightRecorder
from repro.obs.spans import SpanRecorder, TRACK_WORKER, shard_track
from repro.obs.trace import TraceContext, Tracer
from repro.stream.checkpoint import (
    STATE_FORMAT,
    adopt_slice,
    confirmed_from_problems,
    discard_from_dict,
    discard_to_dict,
    engine_state,
    extract_slice,
    identification_from_dict,
    identification_to_dict,
    restore_engine,
    split_state,
    state_slice,
)
from repro.stream.engine import (
    LATE_ERROR,
    StreamingLocalizer,
    StreamOrderError,
)
from repro.stream.events import Subscriber, VerdictEvent
from repro.stream.state import StreamStats
from repro.util.profiling import StageTimer, maybe_stage
from repro.util.timeutil import TimeWindow

from repro.api import wire
from repro.api.config import TRANSPORT_SOCKET, SessionConfig
from repro.api.placement import PartitionMap
from repro.api.transport import (
    _CODEC_BUCKETS,
    PipeTransport,
    ShardListener,
    ShardTransport,
    TransportError,
    connect_worker,
)

# Un-consumed worker replies the parent allows per shard before blocking;
# bounds parent-side queue memory without serializing the pipeline.
MAX_OUTSTANDING = 8

_log = obslog.get_logger("api.backends")
_worker_log = obslog.get_logger("api.worker")

# Consecutive respawn failures before recovery gives up on a shard.
RECOVERY_ATTEMPTS = 3


class BackendError(RuntimeError):
    """A worker process failed, or died beyond recovery."""


@dataclass
class BackendContext:
    """Everything a backend needs from its session, in one place."""

    config: SessionConfig
    ip2as: Any                      # IpToAsDatabase; None for replay-only
    country_by_asn: Dict[int, str]
    subscribers: List[Subscriber] = field(default_factory=list)
    # Optional observability plane (session.enable_metrics() /
    # enable_tracing() / enable_flight_recorder()); bound at backend
    # creation like subscribers.  Telemetry only — never consulted by
    # any result-producing path.
    metrics: Optional[MetricsRegistry] = None
    spans: Optional[SpanRecorder] = None
    flight: Optional[FlightRecorder] = None
    flight_dir: Optional[str] = None


class ExecutionBackend(abc.ABC):
    """The drain path contract every backend implements."""

    def __init__(self, context: BackendContext) -> None:
        self.context = context

    # -- incremental surface ---------------------------------------------

    @abc.abstractmethod
    def ingest_measurement(self, measurement: Measurement) -> None:
        """Convert one measurement and ingest its observations."""

    @abc.abstractmethod
    def ingest_observation(self, observation: Observation) -> None:
        """Ingest one pre-converted observation."""

    @abc.abstractmethod
    def ingest_records(self, records: Iterable[Tuple]) -> None:
        """Ingest observations as :func:`repro.api.wire.observation_to_wire`
        records (a serve tenant's ingest frames)."""

    @abc.abstractmethod
    def advance(self, timestamp: int) -> None:
        """Push the stream watermark forward without an observation."""

    @abc.abstractmethod
    def merge_discard_stats(self, stats: DiscardStats) -> None:
        """Fold in conversion tallies made outside the backend."""

    @abc.abstractmethod
    def drain(self) -> PipelineResult:
        """Close every window and assemble the final result."""

    def drain_wire(self) -> Tuple:
        """The drained result as a ``result`` frame's payload
        (:func:`repro.api.wire.records_to_wire`)."""
        return wire.result_to_wire(self.drain())

    # -- one-shot dataset workload ---------------------------------------

    @abc.abstractmethod
    def run_dataset(
        self,
        dataset: Dataset,
        without_churn: bool = False,
        timer: Optional[StageTimer] = None,
    ) -> PipelineResult:
        """Localize a complete dataset (the batch workload)."""

    # -- checkpointing ----------------------------------------------------

    @abc.abstractmethod
    def state(self) -> Dict[str, Any]:
        """The resumable engine state (:mod:`repro.stream.checkpoint`)."""

    @abc.abstractmethod
    def restore(self, state: Dict[str, Any]) -> None:
        """Rebuild from :meth:`state` output; call before any ingestion."""

    # -- lifecycle / reporting --------------------------------------------

    def close(self) -> None:
        """Release worker processes (no-op for in-process backends)."""

    @property
    @abc.abstractmethod
    def stats(self) -> StreamStats:
        """Stream counters (merged across shards where applicable)."""

    @property
    @abc.abstractmethod
    def identifications(self) -> List:
        """Confirmed-censor log for the time-to-localization report."""


class InlineBackend(ExecutionBackend):
    """The current single-threaded paths, behind the backend contract."""

    def __init__(self, context: BackendContext) -> None:
        super().__init__(context)
        config = context.config
        self.engine = StreamingLocalizer(
            ip2as=context.ip2as,
            country_by_asn=context.country_by_asn,
            config=config.pipeline_config(),
            late_policy=config.execution.late_policy,
            metrics=context.metrics,
        )
        if context.spans is not None:
            self.engine.attach_spans(context.spans)
        if context.subscribers:
            self.engine.subscribe(self._dispatch)
        # Decodes ingest records; the engine's observations hold the
        # paths and URLs it interned, so a restored engine gets a new one.
        self.decoder = wire.ObservationDecoder()

    def _dispatch(self, event: VerdictEvent) -> None:
        for subscriber in self.context.subscribers:
            subscriber(event)

    def ingest_measurement(self, measurement: Measurement) -> None:
        self.engine.ingest_measurement(measurement)

    def ingest_observation(self, observation: Observation) -> None:
        self.engine.ingest_observation(observation)

    def ingest_records(self, records: Iterable[Tuple]) -> None:
        ingest = self.engine.ingest_observation
        for observation in self.decoder.decode(records):
            ingest(observation)

    def advance(self, timestamp: int) -> None:
        self.engine.advance(timestamp)

    def merge_discard_stats(self, stats: DiscardStats) -> None:
        self.engine.merge_discard_stats(stats)

    def drain(self) -> PipelineResult:
        return self.engine.drain()

    def run_dataset(
        self,
        dataset: Dataset,
        without_churn: bool = False,
        timer: Optional[StageTimer] = None,
    ) -> PipelineResult:
        """One-shot batch over the reference single-threaded paths.

        With no subscribers this is the plain ``LocalizationPipeline``
        fast path (no per-observation verdict work).  With subscribers
        the same observations replay through the engine instead — byte-
        identical drain, but verdict events fire and the stream counters
        populate, matching what the sharded backend's ``run_dataset``
        observably does.
        """
        if (
            self.engine.open_problems
            or self.engine.closed_problems
            or self.engine.stats.measurements
            or self.engine.stats.observations
        ):
            raise RuntimeError(
                "run_dataset() needs a fresh backend; this one already "
                "holds ingested or restored state — keep using the "
                "incremental surface and drain()"
            )
        if self.context.subscribers:
            with maybe_stage(timer, "pipeline.observations"):
                observations, stats = build_observations(
                    dataset,
                    self.context.ip2as,
                    anomalies=self.context.config.pipeline_config().anomalies,
                )
            self.engine.merge_discard_stats(stats)
            if without_churn:
                observations = first_path_only(observations)
            for observation in observations:
                self.engine.ingest_observation(observation)
            return self.engine.drain()
        pipeline = LocalizationPipeline(
            ip2as=self.context.ip2as,
            country_by_asn=self.context.country_by_asn,
            config=self.context.config.pipeline_config(),
            timer=timer,
        )
        if without_churn:
            return pipeline.run_without_churn(dataset)
        return pipeline.run(dataset)

    def state(self) -> Dict[str, Any]:
        return engine_state(self.engine)

    def restore(self, state: Dict[str, Any]) -> None:
        self.engine = restore_engine(
            state,
            self.context.ip2as,
            self.context.country_by_asn,
            config=self.context.config.pipeline_config(),
            late_policy=self.context.config.execution.late_policy,
        )
        self.decoder = wire.ObservationDecoder()
        if self.context.metrics is not None:
            self.engine.attach_metrics(self.context.metrics)
        if self.context.spans is not None:
            self.engine.attach_spans(self.context.spans)
        if self.context.subscribers:
            self.engine.subscribe(self._dispatch)

    @property
    def stats(self) -> StreamStats:
        return self.engine.stats

    @property
    def identifications(self) -> List:
        return self.engine.identifications

    @property
    def solve_stats(self):
        return self.engine.solve_stats


# -- sharded backend -------------------------------------------------------


def _mp_context():
    # One start-method policy for all worker pools; the rationale lives
    # with the sweep executor.  Deferred import: the executor imports
    # this package's session module lazily, never at load time, so the
    # call-time import cannot cycle.
    from repro.runner.executor import _pool_context

    return _pool_context()


def run_shard_worker(transport: ShardTransport) -> None:
    """One shard worker over any transport: an engine over this worker's
    (URL, anomaly) pairs.

    The first frame must be the parent's hello (wire-format version,
    shard index, session config, event switch); the worker acks with its
    own version so mismatched builds fail loudly instead of mis-decoding
    frames.  After that, the worker replies exactly once per request —
    the flow-control contract the parent's outstanding counters rely on.
    The engine runs without an IP-to-AS database (the parent
    pre-converts) and with an empty country map (the parent assembles
    the merged result).

    On an engine exception the worker first flushes any verdict events
    already buffered for the current chunk, then ships the full
    formatted traceback — the parent surfaces it verbatim, and the
    events that preceded the failure are not lost with it.
    """
    try:
        hello = transport.recv()
    except (EOFError, OSError):
        transport.close()
        return
    try:
        index, config_payload, want_events, options = wire.check_hello(
            hello
        )
    except wire.WireFormatError as exc:
        try:
            transport.send(("error", str(exc)))
        except OSError:
            pass
        transport.close()
        return
    config = SessionConfig.from_dict(config_payload)
    pipeline_config = config.pipeline_config()
    late_policy = config.execution.late_policy
    events: List[VerdictEvent] = []
    # Rebalance stash: slices extracted by a ``rebalance_begin`` wait
    # here (keyed by map epoch) until the parent fetches them and the
    # ``rebalance_commit`` drops them.  Worker-local and rebuilt
    # deterministically by recovery replay, since the begin frame is in
    # the parent's replay log while the read-only fetch is not.
    pending_slices: Dict[int, Dict[str, Any]] = {}
    # Observability (hello options, format 2): "metrics" stands up a
    # worker-local registry — shipped back shard-labeled in the drain
    # telemetry — and "ack" asks for an empty events reply per obs chunk
    # even with no subscribers, which is how the parent measures ingest
    # lag without turning verdict computation on.  "spans" arms a
    # worker-local span recorder (also shipped home at drain), and
    # "flight_dir" a worker-local flight recorder dumped there on an
    # unhandled engine exception.
    registry = MetricsRegistry() if options.get("metrics") else None
    want_acks = bool(options.get("ack"))
    spans = SpanRecorder() if options.get("spans") else None
    flight_dir = options.get("flight_dir")
    flight = None
    if flight_dir:
        flight = obsrecorder.install(FlightRecorder())
        transport.attach_recorder(flight, shard=index)
    obslog.bind(shard=index, role="worker")
    chunk_seconds = queue_delay = None
    if registry is not None:
        transport.attach_metrics(registry, {"role": "worker"})
        chunk_seconds = registry.histogram("repro_worker_chunk_seconds")
        queue_delay = registry.histogram(
            "repro_worker_queue_delay_seconds"
        )

    def fresh_engine() -> StreamingLocalizer:
        engine = StreamingLocalizer(
            ip2as=None,
            country_by_asn={},
            config=pipeline_config,
            late_policy=late_policy,
            metrics=registry,
        )
        if spans is not None:
            engine.attach_spans(spans, track=TRACK_WORKER)
        if want_events:
            engine.subscribe(events.append)
        return engine

    engine = fresh_engine()
    # The current engine's decoder: its observations hold the paths and
    # URLs this decoder interned, so each engine gets a fresh one.
    decoder = wire.ObservationDecoder()
    try:
        transport.send(("hello", wire.WIRE_FORMAT))
        while True:
            message = transport.recv()
            kind = message[0]
            if kind == "obs":
                context = wire.frame_trace(message)
                if registry is not None:
                    if context is not None:
                        # Both stamps are CLOCK_MONOTONIC; comparable
                        # across processes on one host, clamped to zero
                        # for remote workers whose clocks are not.
                        queue_delay.observe(
                            max(0.0, time.perf_counter() - context[1])
                        )
                    chunk_started = time.perf_counter()
                span_started = (
                    spans.clock() if spans is not None else None
                )
                ingest = engine.ingest_observation
                for observation in decoder.decode(message[1]):
                    ingest(observation)
                if spans is not None:
                    spans.record(
                        "chunk.ingest",
                        start=span_started,
                        duration=spans.clock() - span_started,
                        category="worker",
                        track=TRACK_WORKER,
                        observations=len(message[1]),
                    )
                if registry is not None:
                    chunk_seconds.observe(
                        time.perf_counter() - chunk_started
                    )
                # Chunk replies exist to carry verdict events (and to
                # bound the parent's reply queue while they do).  With
                # no subscribers there is nothing to ship: obs frames
                # are fire-and-forget and the OS pipe/socket buffer is
                # the flow control — unless the parent asked for acks
                # (metrics mode), which echo the trace context so it
                # can close latency spans and advance ack watermarks.
                if want_events or want_acks:
                    reply = ("events", _take_events(events))
                    if context is not None:
                        reply = reply + (context,)
                    transport.send(reply)
            elif kind == "advance":
                engine.advance(message[1])
                transport.send(("events", _take_events(events)))
            elif kind == "state":
                transport.send(("state", engine_state(engine)))
            elif kind == "restore":
                engine = restore_engine(
                    message[1], None, {}, pipeline_config, late_policy
                )
                decoder = wire.ObservationDecoder()
                if registry is not None:
                    engine.attach_metrics(registry)
                if spans is not None:
                    engine.attach_spans(spans, track=TRACK_WORKER)
                if want_events:
                    engine.subscribe(events.append)
                # A restore resets the engine wholesale; stashes from the
                # old incarnation are stale (replayed begin frames, if
                # any, rebuild them from the restored state).
                pending_slices.clear()
                transport.send(("ok",))
            elif kind == "rebalance_begin":
                # Logged frame: extract the moving pairs' problems out of
                # the engine into the epoch's stash.  Pure function of
                # engine state, so a recovery replay re-extracts the
                # identical slice.
                pending_slices[message[1]] = extract_slice(
                    engine, message[2]
                )
                transport.send(("ok",))
            elif kind == "slice_fetch":
                # Read-only (never logged): ship the stashed slice.  The
                # parent resends this after a recovery, like "state".
                stash = pending_slices.get(message[1])
                if stash is None:
                    raise ValueError(
                        f"no slice stashed for epoch {message[1]}"
                    )
                transport.send(("slice", message[1], stash))
            elif kind == "slice_transfer":
                # Logged frame: adopt problems migrating to this shard.
                adopt_slice(engine, message[2])
                transport.send(("ok",))
            elif kind == "rebalance_commit":
                # Logged frame: the epoch is live everywhere; stashes at
                # or below it can never be fetched again.
                for epoch in [
                    epoch
                    for epoch in pending_slices
                    if epoch <= message[1]
                ]:
                    del pending_slices[epoch]
                transport.send(("ok",))
            elif kind == "drain":
                if spans is not None:
                    with spans.span(
                        "engine.drain",
                        category="engine",
                        track=TRACK_WORKER,
                    ):
                        engine.close_all()
                else:
                    engine.close_all()
                transport.send(
                    (
                        "drain",
                        _drain_payload(engine, events, registry, spans),
                    )
                )
            elif kind == "stop":
                break
            else:  # pragma: no cover - protocol bug guard
                raise ValueError(f"unknown message kind {kind!r}")
    except EOFError:  # parent died; nothing to report to
        pass
    except Exception:  # noqa: BLE001 - ship the failure upstream
        # Crash context must survive even if the error frame never
        # reaches a subscriber: log the full traceback through the
        # structured logger, and dump the flight recorder if armed.
        formatted = traceback.format_exc()
        _worker_log.error(
            "worker.error", extra=obslog.fields(traceback=formatted)
        )
        if flight is not None:
            flight.dump(
                flight_dir, reason=f"shard-{index}-engine-exception"
            )
        try:
            pending = _take_events(events)
            if pending:
                transport.send(("events", pending))
            transport.send(("error", formatted))
        except OSError:
            pass
    finally:
        transport.close()


def _pipe_worker_entry(conn) -> None:
    run_shard_worker(PipeTransport(conn))


def _socket_worker_entry(address: str, retry_for: float) -> None:
    run_shard_worker(connect_worker(address, retry_for))


def _take_events(events: List[VerdictEvent]) -> Tuple:
    payload = tuple(wire.event_to_wire(event) for event in events)
    events.clear()
    return payload


def _drain_payload(
    engine: StreamingLocalizer,
    events: List[VerdictEvent],
    registry: Optional[MetricsRegistry] = None,
    spans: Optional[SpanRecorder] = None,
) -> Tuple:
    """(events, problems, stats, confirmed, identifications, telemetry).

    Problems travel as raw (key, solution) object pairs: measured
    against tuple re-encoding, pickling the dataclasses directly is both
    faster and smaller here (the enum members and interned field strings
    memoize once per frame), and the parent can merge them without any
    reconstruction.

    The trailing telemetry dict (format 2) is side-band: solve-cache
    counters always, plus the worker's metrics snapshot and span log
    when the hello enabled them.  Parents on the old 5-tuple contract
    ignore it; nothing in it ever reaches the canonical
    :class:`PipelineResult`."""
    telemetry: Dict[str, Any] = {
        "solve_stats": engine.solve_stats.as_dict(),
        "metrics": registry.snapshot() if registry is not None else None,
    }
    if spans is not None:
        telemetry["spans"] = spans.snapshot()
    return (
        _take_events(events),
        tuple(
            (key, solution)
            for key, _, _, solution in engine.problem_records()
        ),
        engine.stats.as_dict(),
        {
            str(asn): count
            for asn, count in sorted(engine._confirmed.items())
        },
        [
            identification_to_dict(identification)
            for identification in engine.identifications
        ],
        telemetry,
    )


class _ShardWorker:
    """One shard's worker process/connection and its recovery ledger.

    The ledger is what makes a dead worker a non-event: ``baseline`` is
    the last engine-state slice known to be behind us (initial restore
    or session checkpoint), ``log`` the encoded
    frames sent since, and ``delivered_seq`` the highest shard-local
    verdict-event sequence already handed to subscribers — the replay
    dedup line.
    """

    def __init__(self, backend: "ShardedBackend", index: int) -> None:
        self.index = index
        self._backend = backend
        self.transport: Optional[ShardTransport] = None
        self.process = None             # None for external socket workers
        self.queue: Optional["queue_module.Queue[Optional[Tuple]]"] = None
        self.outstanding = 0
        self.delivered_seq = 0
        self.baseline: Optional[Dict[str, Any]] = None
        self.log: List[bytes] = []
        self.failures = 0           # consecutive recoveries without service
        self._stopped = False
        self.spawn()

    def spawn(self) -> None:
        """(Re)establish the worker: transport, receiver thread, hello."""
        self.transport, self.process = self._backend._open_transport(
            self.index
        )
        # A fresh queue per incarnation: a dead worker's receiver thread
        # still holds the old queue, so its late sentinel cannot leak
        # into the new conversation, and undelivered replies from the
        # old incarnation vanish with it (replay re-produces them).
        self.queue = queue_module.Queue()
        self.outstanding = 0
        self._stopped = False
        threading.Thread(
            target=self._receive,
            args=(self.transport, self.queue),
            daemon=True,
        ).start()
        _log.info(
            "shard.spawn",
            extra=obslog.fields(
                shard=self.index,
                transport=self.transport.kind,
                pid=(
                    self.process.pid if self.process is not None else None
                ),
            ),
        )
        self.transport.send(self._backend._hello(self.index))
        self.outstanding += 1           # the hello ack

    @staticmethod
    def _receive(transport: ShardTransport, queue) -> None:
        # The receiver owns the blocking recv (executor pattern): worker
        # sends never back-pressure into a deadlock, and a dead worker
        # surfaces as a None sentinel instead of a hung parent.
        try:
            while True:
                queue.put(transport.recv())
        except (EOFError, OSError):
            queue.put(None)

    def exit_description(self) -> str:
        if self.process is not None:
            return f"exit code {self.process.exitcode}"
        return "connection lost"

    def discard(self) -> None:
        """Tear down the current incarnation before a respawn."""
        if self.transport is not None:
            self.transport.close()
        if self.process is not None and self.process.is_alive():
            self.process.terminate()
            self.process.join(timeout=5.0)

    def request_stop(self) -> None:
        """Ask the worker to exit without waiting for it.

        The drain path sends this to every shard right after collecting
        the payloads, so the workers wind down concurrently with the
        parent's merge instead of serializing behind it at close()."""
        if self._stopped:
            return
        self._stopped = True
        try:
            self.transport.send(("stop",))
        except OSError:
            pass

    def close(self, wait: bool = True) -> None:
        self.request_stop()
        if self.process is not None and wait:
            self.process.join(timeout=5.0)
            if self.process.is_alive():
                self.process.terminate()
                self.process.join()
        self.transport.close()


class _GroupTracker:
    """The parent's mirror of the batch splitter, fed one wire record at
    a time: global bucket-creation order plus per-problem record lists —
    exactly ``split_observations``'s groups, as the records the parent
    routed, which the merged drain needs for report assembly."""

    def __init__(self, granularities) -> None:
        self._granularities = list(granularities)
        self.sizes = [
            (index, granularity.seconds)
            for index, granularity in enumerate(self._granularities)
        ]
        self.order: List[Tuple] = []                  # bucket creation order
        self.keys: Dict[Tuple, ProblemKey] = {}
        self.groups: Dict[Tuple, List[Tuple]] = {}
        # Hot-path index: (anomaly value, url) → one {window start: group}
        # per granularity.  The group lists are shared with ``groups``,
        # so appends through either view land in both.
        self._by_pair: Dict[Tuple, List[Dict[int, List[Tuple]]]] = {}

    def add(self, record: Tuple) -> None:
        # Hot path: one call per record per stream.  One pair lookup
        # plus one int-keyed lookup per granularity — cheaper than
        # building and hashing a 4-tuple bucket key three times.
        url, anomaly, _, _, timestamp, _ = record
        per_granularity = self._by_pair.get((anomaly, url))
        if per_granularity is None:
            per_granularity = self._by_pair[(anomaly, url)] = [
                {} for _ in self.sizes
            ]
        for index, size in self.sizes:
            start = timestamp - timestamp % size
            windows = per_granularity[index]
            group = windows.get(start)
            if group is None:
                group = windows[start] = []
                bucket = (anomaly, url, index, start)
                self.order.append(bucket)
                self.keys[bucket] = ProblemKey(
                    url=url,
                    anomaly=Anomaly(anomaly),
                    granularity=self._granularities[index],
                    window=TimeWindow(start, start + size),
                )
                self.groups[bucket] = group
            group.append(record)

    def register(self, key: ProblemKey, records: List[Tuple]) -> None:
        """Adopt one problem wholesale (checkpoint restore)."""
        index = self._granularities.index(key.granularity)
        anomaly = key.anomaly.value
        bucket = (anomaly, key.url, index, key.window.start)
        self.order.append(bucket)
        self.keys[bucket] = key
        self.groups[bucket] = records
        per_granularity = self._by_pair.setdefault(
            (anomaly, key.url), [{} for _ in self.sizes]
        )
        per_granularity[index][key.window.start] = records


def _key_id(key: ProblemKey) -> Tuple[str, str, str, int]:
    return (
        key.url,
        key.anomaly.value,
        key.granularity.value,
        key.window.start,
    )


# Verdict latency brackets the full fabric round trip (encode, queue,
# worker solve, reply decode, merge) — wider than the codec buckets,
# narrower than the default request buckets.
_VERDICT_BUCKETS = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0,
    2.5, 5.0,
)


class _ShardMetrics:
    """Parent-side instrument handles and watermarks for one shard.

    Everything here is telemetry: the watermark pair (highest stream
    timestamp *sent* to the shard vs. highest the shard has *acked*)
    exists only to compute ingest lag in simulated-stream seconds and is
    never consulted by ingestion, recovery, or drain."""

    __slots__ = (
        "sent_watermark",
        "acked_watermark",
        "ingest_lag",
        "queue_depth",
        "buffered",
        "replay_log",
        "chunks",
        "recoveries",
        "duplicates",
        "verdict_latency",
        "encode_seconds",
        "up",
        "seconds_since_ack",
        "last_ack_clock",
        "last_send_clock",
        "_clock",
    )

    def __init__(
        self,
        registry: MetricsRegistry,
        index: int,
        transport_kind: str,
    ) -> None:
        labels = {"shard": str(index)}
        self.sent_watermark: Optional[int] = None
        self.acked_watermark: Optional[int] = None
        self._clock = registry.clock
        self.last_ack_clock: Optional[float] = None
        self.last_send_clock: Optional[float] = None
        self.up = registry.gauge("repro_shard_up", labels)
        self.up.set(1)
        self.seconds_since_ack = registry.gauge(
            "repro_shard_seconds_since_ack", labels
        )
        self.ingest_lag = registry.gauge(
            "repro_shard_ingest_lag_seconds", labels
        )
        self.queue_depth = registry.gauge(
            "repro_shard_queue_depth", labels
        )
        self.buffered = registry.gauge(
            "repro_shard_buffered_observations", labels
        )
        self.replay_log = registry.gauge(
            "repro_shard_replay_log_frames", labels
        )
        self.chunks = registry.counter(
            "repro_shard_chunks_sent_total", labels
        )
        self.recoveries = registry.counter(
            "repro_shard_recoveries_total", labels
        )
        self.duplicates = registry.counter(
            "repro_shard_duplicate_events_total", labels
        )
        self.verdict_latency = registry.histogram(
            "repro_verdict_latency_seconds",
            labels,
            buckets=_VERDICT_BUCKETS,
        )
        # Same label shape the transport's attach_metrics uses, so the
        # parent-side encode (which happens in _flush, before the bytes
        # reach the transport) lands in the same family.
        self.encode_seconds = registry.histogram(
            "repro_transport_encode_seconds",
            {
                "transport": transport_kind,
                "role": "parent",
                "shard": str(index),
            },
            buckets=_CODEC_BUCKETS,
        )

    def note_ack(self, watermark: Optional[int]) -> None:
        """Advance the acked watermark and refresh the lag gauge.

        Monotonic max: a recovery replay re-delivers old chunk replies
        whose echoed contexts carry stale watermarks — they must never
        move the ack line backwards."""
        self.last_ack_clock = self._clock()
        if watermark is None:
            return
        if self.acked_watermark is None or watermark > self.acked_watermark:
            self.acked_watermark = watermark
        if self.sent_watermark is not None:
            self.ingest_lag.set(
                max(0, self.sent_watermark - self.acked_watermark)
            )


class ShardedBackend(ExecutionBackend):
    """Open windows partitioned across worker processes by bucket key."""

    def __init__(self, context: BackendContext) -> None:
        super().__init__(context)
        config = context.config
        policy = config.execution
        self.shards = policy.shards
        self.chunk_size = policy.chunk_size
        self.transport_kind = policy.transport
        self.recoveries = 0             # dead workers brought back so far
        self._connect_timeout = policy.connect_timeout
        self._shard_hosts = policy.shard_hosts
        pipeline_config = config.pipeline_config()
        self._anomalies = pipeline_config.anomalies
        self._late_error = (
            config.execution.late_policy == LATE_ERROR
        )
        self._tracker = _GroupTracker(pipeline_config.granularities)
        # Interns the records this backend routes and its tracker holds:
        # each URL and path once, one timestamp and measurement id object
        # per measurement.
        self.decoder = wire.ObservationDecoder()
        self._discard = DiscardStats()
        self._stats = StreamStats()     # parent-side ingest counters
        self._conversion_cache: Dict = {}
        # The placement layer: every routing decision goes through the
        # current PartitionMap (seeded from the policy's shard count,
        # replaced wholesale by rebalance()); the cache memoizes its
        # answers per (url, anomaly) pair and is dropped on every epoch
        # change.
        self._placement = PartitionMap(policy.shards)
        self._rebalances = 0            # committed epoch changes
        self._moved_buckets = 0         # pairs migrated across all of them
        self._last_rebalance: Optional[float] = None  # unix seconds
        self._shard_cache: Dict[Tuple[str, str], int] = {}
        self._buffers: List[List[Tuple]] = [
            [] for _ in range(self.shards)
        ]
        self._workers: Optional[List[_ShardWorker]] = None
        self._listeners: Optional[List[ShardListener]] = None
        self._config_payload: Optional[Dict[str, Any]] = None
        self._want_events = False
        self._watermark: Optional[int] = None
        self._sequence = 0              # merged event stream counter
        self._last_measurement_id: Optional[int] = None
        # The drain's merged solutions and record groups, then the
        # decoded result when drain() asks for one.
        self._merged: Optional[
            Tuple[List[ProblemSolution], Dict[ProblemKey, List[Tuple]]]
        ] = None
        self._drained: Optional[PipelineResult] = None
        self._restore_state: Optional[Dict[str, Any]] = None
        # Counters/logs carried over from a restored checkpoint; worker
        # deltas add onto these at drain.  (Confirmed-censor *counts*
        # have no baseline: restored workers re-derive their own from
        # their closed windows, so the per-shard sums stay exact.)
        self._baseline_stats: Dict[str, int] = {}
        self._baseline_identifications: List[Dict[str, Any]] = []
        self._merged_stats: Optional[StreamStats] = None
        self._merged_identifications: List = []
        # Observability (all optional, all side-band): per-shard parent
        # instruments and a tracer for verdict-latency spans.
        self._metrics = context.metrics
        self._spans = context.spans
        self._flight = context.flight
        self._flight_dir = context.flight_dir or ".flight-recorder"
        self._tracer: Optional[Tracer] = None
        self._shard_metrics: Optional[List[_ShardMetrics]] = None
        if self._metrics is not None:
            self._tracer = Tracer(self._metrics)
            self._shard_metrics = [
                _ShardMetrics(self._metrics, index, self.transport_kind)
                for index in range(self.shards)
            ]
            self._metrics.add_collector(
                self._collect_shard_health, key="sharded-backend"
            )
            self._metrics.add_collector(
                self._collect_placement, key="sharded-placement"
            )
        self._merged_solve_stats: Optional[SolveStats] = None

    def _collect_shard_health(self, registry: MetricsRegistry) -> None:
        """Snapshot-time liveness: how long each shard has gone without
        acking while frames are outstanding.  Feeds ``/healthz`` — a
        hung-but-alive worker shows up here, not in ``repro_shard_up``.
        Also each shard's buffered-but-unsent observations, read here
        rather than kept current on every ingest.
        """
        # Local refs + a length guard: metrics scrapes run on their own
        # thread, and a live rebalance resizes these lists under us.
        workers = self._workers
        buffers = self._buffers
        now = registry.clock()
        for index, shard_metrics in enumerate(list(self._shard_metrics)):
            if index < len(buffers):
                shard_metrics.buffered.set(len(buffers[index]))
            outstanding = (
                workers[index].outstanding
                if workers is not None and index < len(workers)
                else 0
            )
            if outstanding <= 0:
                shard_metrics.seconds_since_ack.set(0.0)
                continue
            mark = (
                shard_metrics.last_ack_clock
                if shard_metrics.last_ack_clock is not None
                else shard_metrics.last_send_clock
            )
            shard_metrics.seconds_since_ack.set(
                max(0.0, now - mark) if mark is not None else 0.0
            )

    def _collect_placement(self, registry: MetricsRegistry) -> None:
        """Snapshot-time placement telemetry: the live map epoch, the
        fleet size, per-shard bucket (pair) counts, and when the last
        rebalance committed.  Pure reporting — never consulted by
        routing."""
        placement = self._placement
        registry.gauge("repro_placement_epoch").set(placement.epoch)
        registry.gauge("repro_placement_shards").set(self.shards)
        registry.gauge("repro_placement_last_rebalance_timestamp").set(
            self._last_rebalance or 0.0
        )
        for index, count in enumerate(
            placement.bucket_counts(self._known_pairs())
        ):
            registry.gauge(
                "repro_placement_buckets", {"shard": str(index)}
            ).set(count)

    def _known_pairs(self) -> List[Tuple[str, str]]:
        """Every (url, anomaly-value) pair the parent has routed so far
        — the rebalance work list (restored problems included, since
        ``restore()`` registers them with the tracker)."""
        return [
            (url, anomaly) for (anomaly, url) in list(self._tracker._by_pair)
        ]

    # -- worker lifecycle --------------------------------------------------

    def _hello(self, index: int) -> Tuple:
        # With metrics on, workers build their own registry (shipped
        # back at drain) and ack every obs chunk so ingest lag is
        # measurable even when no subscriber wants the events.
        options: Dict[str, Any] = {}
        if self._metrics is not None:
            options["metrics"] = True
            options["ack"] = True
        if self._spans is not None:
            options["spans"] = True
        if self._flight is not None:
            options["flight_dir"] = self._flight_dir
        return wire.hello_frame(
            index, self._config_payload, self._want_events,
            options or None,
        )

    def _open_transport(self, index: int):
        """One shard's channel: fork a pipe worker, or accept a socket.

        Called both at startup and on every recovery respawn — for
        sockets the shard's listener stays bound, so a replacement
        worker (self-spawned locally, or an operator-restarted
        ``shard-worker`` process) lands on the same address.
        """
        if self.transport_kind != TRANSPORT_SOCKET:
            ctx = _mp_context()
            parent_conn, child_conn = ctx.Pipe(duplex=True)
            process = ctx.Process(
                target=_pipe_worker_entry,
                args=(child_conn,),
                # Daemonic: a parent that dies (or errors out) without
                # close()/drain() must not hang interpreter exit on
                # multiprocessing's atexit join — shard workers hold no
                # state worth a graceful shutdown.
                daemon=True,
            )
            process.start()
            child_conn.close()
            transport = PipeTransport(parent_conn)
            self._attach_transport_metrics(transport, index)
            return transport, process
        listener = self._listeners[index]
        process = None
        if not self._shard_hosts:
            # Self-hosted socket shards: the parent spawns its own
            # connecting workers on localhost (the smoke-testable shape
            # of the multi-host deployment).
            ctx = _mp_context()
            process = ctx.Process(
                target=_socket_worker_entry,
                args=(listener.address, self._connect_timeout),
                daemon=True,
            )
            process.start()
        try:
            transport = listener.accept(self._connect_timeout)
        except TransportError as exc:
            raise BackendError(str(exc)) from exc
        self._attach_transport_metrics(transport, index)
        return transport, process

    def _attach_transport_metrics(
        self, transport: ShardTransport, index: int
    ) -> None:
        if self._metrics is not None:
            transport.attach_metrics(
                self._metrics, {"role": "parent", "shard": str(index)}
            )
        if self._flight is not None:
            transport.attach_recorder(self._flight, shard=index)

    def _ensure_workers(self) -> List[_ShardWorker]:
        if self._workers is None:
            self._config_payload = self.context.config.to_dict()
            self._want_events = bool(self.context.subscribers)
            if (
                self.transport_kind == TRANSPORT_SOCKET
                and self._listeners is None
            ):
                addresses = self._shard_hosts or (
                    ("127.0.0.1:0",) * self.shards
                )
                # Bind everything before accepting anything, so external
                # workers may dial the addresses in any order (the TCP
                # backlog parks early arrivals).
                self._listeners = [
                    ShardListener(address) for address in addresses
                ]
            # Spawn incrementally so a failure on shard k (a socket
            # accept timing out, a fork failing) releases shards 0..k-1
            # instead of leaking their processes/connections.
            workers: List[_ShardWorker] = []
            try:
                for index in range(self.shards):
                    workers.append(_ShardWorker(self, index))
            except BaseException:
                for worker in workers:
                    worker.close(wait=False)
                if self._listeners is not None:
                    for listener in self._listeners:
                        listener.close()
                    self._listeners = None
                raise
            self._workers = workers
            if self._restore_state is not None:
                self._send_restore(self._restore_state)
                self._restore_state = None
        return self._workers

    def _add_worker(self, index: int) -> None:
        """Grow the fleet by one shard (the rebalance scale-up path).

        Self-hosted socket fleets get a fresh ephemeral listener; fixed
        ``shard_hosts`` fleets cannot grow (rebalance() refuses before
        calling here)."""
        assert self._workers is not None
        self._buffers.append([])
        if (
            self.transport_kind == TRANSPORT_SOCKET
            and self._listeners is not None
        ):
            self._listeners.append(ShardListener("127.0.0.1:0"))
        if self._shard_metrics is not None:
            self._shard_metrics.append(
                _ShardMetrics(self._metrics, index, self.transport_kind)
            )
        self._workers.append(_ShardWorker(self, index))

    def _remove_worker(self, index: int) -> None:
        """Retire one drained shard (the rebalance scale-down path):
        consume every outstanding reply, zero its liveness gauges, ask
        it to exit.  The caller truncates the per-shard lists."""
        assert self._workers is not None
        worker = self._workers[index]
        while worker.outstanding > 0:
            self._handle_reply(worker, self._next_reply(worker))
        if self._shard_metrics is not None:
            shard_metrics = self._shard_metrics[index]
            shard_metrics.up.set(0)
            shard_metrics.buffered.set(0)
            shard_metrics.queue_depth.set(0)
        if self._metrics is not None:
            self._metrics.gauge(
                "repro_placement_buckets", {"shard": str(index)}
            ).set(0)
        worker.close(wait=False)

    def close(self, wait: bool = True) -> None:
        if self._workers is not None:
            for worker in self._workers:
                worker.close(wait=wait)
            self._workers = None
        if self._listeners is not None:
            for listener in self._listeners:
                listener.close()
            self._listeners = None

    # -- ingestion ---------------------------------------------------------

    def ingest_measurement(self, measurement: Measurement) -> None:
        """Parent-side conversion: one discard tally, one memo cache —
        the same semantics the inline engine applies internally."""
        self._check_not_drained()
        self._stats.measurements += 1
        self._last_measurement_id = measurement.measurement_id
        records = observations_of(
            measurement,
            self.context.ip2as,
            anomalies=self._anomalies,
            stats=self._discard,
            conversion_cache=self._conversion_cache,
            record=wire.observation_record,
        )
        if not records:
            self._stats.discarded_measurements += 1
            return
        self._route(self.decoder.records(records), count_measurement=False)

    def ingest_observation(self, observation: Observation) -> None:
        self._check_not_drained()
        self._route(
            self.decoder.records((wire.observation_to_wire(observation),)),
            count_measurement=True,
        )

    def ingest_records(self, records: Iterable[Tuple]) -> None:
        self._check_not_drained()
        self._route(self.decoder.records(records), count_measurement=True)

    def _route(
        self, records: Iterable[Tuple], count_measurement: bool
    ) -> None:
        """Track interned wire records and route each to its shard's
        buffer: the one ingest path, which never builds an observation.

        Hot path: every record of every stream funnels through here —
        prefer locals and single attribute reads."""
        stats = self._stats
        track = self._tracker.add
        shard_cache = self._shard_cache
        chunk_size = self.chunk_size
        for record in records:
            timestamp = record[4]
            if timestamp < 0:
                raise ValueError(f"negative timestamp: {timestamp}")
            if count_measurement and record[5] != self._last_measurement_id:
                stats.measurements += 1
                self._last_measurement_id = record[5]
            stats.observations += 1
            if self._watermark is None or timestamp > self._watermark:
                self._watermark = timestamp
            if self._late_error:
                # The strict-ordering policy is a *global* promise; shard
                # engines only see their own lagging watermarks, so the
                # parent enforces it against the global one (the same
                # already-elapsed-window rule the inline engine applies).
                for _, size in self._tracker.sizes:
                    if window_start(timestamp, size) + size <= self._watermark:
                        raise StreamOrderError(
                            f"late observation at t={timestamp} for "
                            f"already-elapsed {size}s window"
                        )
            track(record)
            # Route on the record's (url, anomaly value) pair.
            route = (record[0], record[1])
            shard = shard_cache.get(route)
            if shard is None:
                shard = shard_cache[route] = self._placement.shard_for(
                    route[0], route[1]
                )
            buffer = self._buffers[shard]
            buffer.append(record)
            if len(buffer) >= chunk_size:
                self._flush(shard)

    def advance(self, timestamp: int) -> None:
        self._check_not_drained()
        if self._watermark is None or timestamp > self._watermark:
            self._watermark = timestamp
        workers = self._ensure_workers()
        self._flush_all()
        frame = wire.encode(("advance", timestamp))
        for worker in workers:
            self._post_frame(worker, frame)
        self._pump()
        # Same reply bound as _flush: a keep-alive-heavy source must not
        # grow the parent-side queues without limit.
        for worker in workers:
            while worker.outstanding >= MAX_OUTSTANDING:
                self._handle_reply(worker, self._next_reply(worker))

    def merge_discard_stats(self, stats: DiscardStats) -> None:
        self._discard.merge(stats)

    def _check_not_drained(self) -> None:
        if self._merged is not None:
            raise RuntimeError("backend already drained")

    # -- worker I/O --------------------------------------------------------

    def _post_frame(
        self,
        worker: _ShardWorker,
        frame: bytes,
        expects_reply: bool = True,
    ) -> None:
        """Log one state-mutating frame for recovery replay, then ship it.

        Logged *before* the send: if the send itself discovers a dead
        peer, the recovery replay already includes this frame.
        ``expects_reply=False`` marks fire-and-forget frames (obs chunks
        with no subscribers attached)."""
        worker.log.append((frame, expects_reply))
        try:
            worker.transport.send_bytes(frame)
        except OSError:
            self._recover(worker)
            return                      # replay shipped it (and counted it)
        if expects_reply:
            worker.outstanding += 1

    def _send_request(self, worker: _ShardWorker, frame: bytes) -> None:
        """Ship one read-only request (state/drain); never logged."""
        while True:
            try:
                worker.transport.send_bytes(frame)
            except OSError:
                self._recover(worker)
                continue
            worker.outstanding += 1
            return

    def _flush(self, shard: int) -> None:
        workers = self._ensure_workers()
        buffer = self._buffers[shard]
        if not buffer:
            return
        worker = workers[shard]
        shard_metrics = (
            self._shard_metrics[shard]
            if self._shard_metrics is not None
            else None
        )
        if shard_metrics is None:
            frame = wire.encode(("obs", buffer))
            expects_reply = self._want_events
        else:
            # One span per chunk: the context rides the frame, the
            # worker echoes it on its reply, and the verdict-latency
            # histogram closes on the parent's clock at delivery —
            # both stamps one process, no cross-host clock trust.
            # The chunk's highest stream timestamp.
            watermark = max(
                item[wire.OBSERVATION_TIMESTAMP_INDEX] for item in buffer
            )
            context = self._tracer.start(watermark=watermark)
            clock = self._metrics.clock
            started = clock()
            frame = wire.encode(("obs", buffer, context.to_wire()))
            shard_metrics.encode_seconds.observe(clock() - started)
            if (
                shard_metrics.sent_watermark is None
                or watermark > shard_metrics.sent_watermark
            ):
                shard_metrics.sent_watermark = watermark
            shard_metrics.chunks.inc()
            shard_metrics.last_send_clock = started
            expects_reply = True        # the worker acks in metrics mode
        self._post_frame(worker, frame, expects_reply=expects_reply)
        self._buffers[shard] = []
        if shard_metrics is not None:
            shard_metrics.queue_depth.set(worker.outstanding)
            shard_metrics.replay_log.set(len(worker.log))
        self._pump()
        while worker.outstanding >= MAX_OUTSTANDING:
            self._handle_reply(worker, self._next_reply(worker))

    def _flush_all(self) -> None:
        for shard in range(self.shards):
            self._flush(shard)

    def _next_reply(
        self,
        worker: _ShardWorker,
        timeout: Optional[float] = None,
        resend: Optional[bytes] = None,
    ) -> Tuple:
        """One reply off the worker's queue, recovering a dead worker
        transparently.  ``resend`` re-ships a pending read-only request
        (state/drain) after a recovery, since those are not in the
        replay log."""
        while True:
            try:
                reply = worker.queue.get(timeout=timeout)
            except queue_module.Empty:
                raise BackendError(
                    f"shard {worker.index} did not reply within {timeout}s"
                ) from None
            if reply is None:
                self._recover(worker)
                if resend is not None:
                    self._send_request(worker, resend)
                continue
            if reply[0] == "error":
                self._raise_worker_error(worker, reply[1])
            return reply

    def _raise_worker_error(self, worker: _ShardWorker, formatted: str):
        """A worker shipped an error frame: narrate the full remote
        traceback through the structured log, then surface it."""
        _log.error(
            "shard.error",
            extra=obslog.fields(shard=worker.index, traceback=formatted),
        )
        raise BackendError(
            f"shard {worker.index} failed:\n{formatted}"
        )

    def _pump(self) -> None:
        """Drain every already-available worker reply (non-blocking)."""
        if self._workers is None:
            return
        for worker in self._workers:
            while True:
                try:
                    reply = worker.queue.get_nowait()
                except queue_module.Empty:
                    break
                if reply is None:
                    self._recover(worker)
                    break
                if reply[0] == "error":
                    self._raise_worker_error(worker, reply[1])
                self._handle_reply(worker, reply)

    def _handle_reply(self, worker: _ShardWorker, reply: Tuple) -> None:
        kind = reply[0]
        if kind == "events":
            worker.outstanding -= 1
            worker.failures = 0
            context = reply[2] if len(reply) > 2 else None
            self._deliver(worker, reply[1], context=context)
            if self._shard_metrics is not None:
                shard_metrics = self._shard_metrics[worker.index]
                shard_metrics.queue_depth.set(worker.outstanding)
                if context is not None:
                    shard_metrics.note_ack(context[2])
        elif kind == "ok":
            worker.outstanding -= 1
            worker.failures = 0
        elif kind == "hello":
            # Deliberately not a failure reset: a worker that acks the
            # hello and then dies is still a chronic crasher.
            worker.outstanding -= 1
            wire.check_hello_ack(reply)
        else:  # pragma: no cover - protocol bug guard
            raise BackendError(
                f"unexpected reply {kind!r} from shard {worker.index}"
            )

    def _deliver(
        self,
        worker: _ShardWorker,
        event_payloads: Tuple,
        context: Optional[Tuple] = None,
    ) -> None:
        """Forward one shard's event batch, re-sequenced into the merged
        stream.  Per-shard order is preserved exactly; cross-shard order
        follows batch arrival.  ``observations_ingested`` counters inside
        the events are shard-local by construction.

        Events at or below the shard's delivered high-water are replay
        duplicates from a recovery (the worker re-emits them with the
        same shard-local sequences, because the replayed frame stream is
        identical) and are dropped — subscribers see each event exactly
        once.

        ``context`` is the trace context echoed off the chunk that
        produced this batch; each *fresh* event closes one verdict-
        latency span against it (ingest → shard queue → solve → merge,
        measured entirely on the parent's clock)."""
        if not event_payloads:
            return
        seq = wire.EVENT_SEQUENCE_INDEX
        high = worker.delivered_seq
        fresh = [
            payload for payload in event_payloads if payload[seq] > high
        ]
        if self._shard_metrics is not None and len(fresh) != len(
            event_payloads
        ):
            self._shard_metrics[worker.index].duplicates.inc(
                len(event_payloads) - len(fresh)
            )
        if not fresh:
            return
        worker.delivered_seq = fresh[-1][seq]
        if self._tracer is not None and context is not None:
            latency = self._tracer.elapsed(TraceContext.from_wire(context))
            histogram = self._shard_metrics[worker.index].verdict_latency
            for _ in fresh:
                histogram.observe(latency)
            if self._spans is not None:
                # One parent-side span per delivered batch: ingest →
                # shard queue → propagation → merge, both stamps on the
                # parent's clock (TraceContext.started is clock-domain
                # compatible only when span + metrics clocks agree,
                # which Session.enable_tracing guarantees).
                self._spans.record(
                    "verdict.batch",
                    start=context[1],
                    duration=latency,
                    category="fabric",
                    track=shard_track(worker.index),
                    events=len(fresh),
                )
        if not self.context.subscribers:
            return
        after = seq + 1
        for payload in fresh:
            self._sequence += 1
            event = wire.event_from_wire(
                payload[:seq] + (self._sequence,) + payload[after:]
            )
            for subscriber in self.context.subscribers:
                subscriber(event)

    # -- dead-shard recovery -----------------------------------------------

    def _recover(self, worker: _ShardWorker) -> None:
        """Bring a dead worker back from its baseline + replay log.

        The replacement process (pipe: a fresh fork; socket: the next
        connection accepted on the shard's listener) restores the
        baseline slice, then re-processes every logged frame in order.
        Determinism does the rest: the rebuilt engine re-emits exactly
        the events the dead one did, and ``_deliver`` drops the ones
        already handed out."""
        detail = worker.exit_description()
        _log.warning(
            "shard.death",
            extra=obslog.fields(shard=worker.index, detail=detail),
        )
        if self._shard_metrics is not None:
            self._shard_metrics[worker.index].up.set(0)
        flight_dump = ""
        if self._flight is not None:
            # The dead worker cannot dump its own ring buffer, so the
            # parent dumps *its* view: the shard's frame headers plus a
            # summary of the replay log about to rebuild it.
            flight_dump = self._flight.dump(
                self._flight_dir,
                reason=f"shard-{worker.index}-death",
                extra={
                    "shard": worker.index,
                    "detail": detail,
                    "replay_log": [
                        {"size": len(frame), "expects_reply": expects}
                        for frame, expects in worker.log
                    ],
                },
            )
        frames_replayed = len(worker.log)
        while True:
            # The failure budget lives on the worker and only resets when
            # a recovered incarnation *serves* something (a non-hello
            # reply, in _handle_reply/_collect) — so a worker that keeps
            # crashing right after a vacuously successful rebuild (empty
            # log, buffered sends) exhausts the budget instead of
            # respawn-looping forever.
            worker.failures += 1
            if worker.failures > RECOVERY_ATTEMPTS:
                raise BackendError(
                    f"shard {worker.index} died ({detail}) and kept "
                    f"failing through {RECOVERY_ATTEMPTS} recovery "
                    f"attempts"
                )
            worker.discard()
            try:
                worker.spawn()
            except (BackendError, OSError):
                continue
            if self._rebuild(worker):
                self.recoveries += 1
                if self._shard_metrics is not None:
                    shard_metrics = self._shard_metrics[worker.index]
                    shard_metrics.recoveries.inc()
                    shard_metrics.up.set(1)
                _log.info(
                    "shard.recovery",
                    extra=obslog.fields(
                        shard=worker.index,
                        attempt=worker.failures,
                        frames_replayed=frames_replayed,
                        flight_dump=flight_dump,
                    ),
                )
                return

    def _rebuild(self, worker: _ShardWorker) -> bool:
        """One baseline-restore + log-replay attempt; False on a death
        mid-replay (the caller respawns and starts over — the log is
        only ever truncated by a confirmed baseline, so a replay can
        safely restart from the top)."""
        try:
            if worker.baseline is not None:
                worker.transport.send_bytes(
                    wire.encode(("restore", worker.baseline))
                )
                worker.outstanding += 1
            for frame, expects_reply in list(worker.log):
                worker.transport.send_bytes(frame)
                if expects_reply:
                    worker.outstanding += 1
                while worker.outstanding >= MAX_OUTSTANDING:
                    reply = worker.queue.get()
                    if reply is None:
                        return False
                    if reply[0] == "error":
                        self._raise_worker_error(worker, reply[1])
                    self._handle_reply(worker, reply)
        except OSError:
            return False
        return True

    # -- worker-reply collection -------------------------------------------

    def _collect(self, request: Tuple, reply_tag: str) -> List[Any]:
        """Ship one request to every worker and gather the tagged
        replies, servicing interleaved event batches on the way."""
        workers = self._ensure_workers()
        self._flush_all()
        frame = wire.encode(request)
        for worker in workers:
            self._send_request(worker, frame)
        payloads: List[Any] = []
        for worker in workers:
            while True:
                reply = self._next_reply(worker, resend=frame)
                if reply[0] == reply_tag:
                    worker.outstanding -= 1
                    worker.failures = 0
                    payloads.append(reply[1])
                    break
                self._handle_reply(worker, reply)
        return payloads

    def _request_one(
        self, worker: _ShardWorker, frame: bytes, reply_tag: str
    ) -> Tuple:
        """One read-only request to one worker; returns the whole tagged
        reply, servicing interleaved replies (and recoveries) on the
        way — the single-shard sibling of :meth:`_collect`."""
        self._send_request(worker, frame)
        while True:
            reply = self._next_reply(worker, resend=frame)
            if reply[0] == reply_tag:
                worker.outstanding -= 1
                worker.failures = 0
                return reply
            self._handle_reply(worker, reply)

    def _merge_counters(
        self, payloads: List[Dict[str, Any]]
    ) -> Tuple[StreamStats, Dict[int, int], List[Dict[str, Any]]]:
        """Fold worker stats/confirmed/identifications into the globals.

        The parent counted measurements/observations once, globally, so
        worker tallies for those are shard-local double bookkeeping and
        get overwritten.  Baseline identifications whose censor has lost
        every confirming window since the restore (late reopen,
        re-closed without it) are dropped — the same log pruning the
        inline engine's ``_reopen`` performs.
        """
        merged_stats = StreamStats(**self._baseline_stats) if (
            self._baseline_stats
        ) else StreamStats()
        merged_confirmed: Dict[int, int] = {}
        identification_payloads = list(self._baseline_identifications)
        for payload in payloads:
            for name, value in payload["stats"].items():
                setattr(
                    merged_stats, name, getattr(merged_stats, name) + value
                )
            for asn, count in payload["confirmed"].items():
                merged_confirmed[int(asn)] = (
                    merged_confirmed.get(int(asn), 0) + count
                )
            identification_payloads.extend(payload["identifications"])
        merged_stats.measurements = self._stats.measurements
        merged_stats.observations = self._stats.observations
        merged_stats.discarded_measurements = (
            self._stats.discarded_measurements
        )
        identification_payloads = [
            entry
            for entry in identification_payloads
            if merged_confirmed.get(entry["asn"], 0) > 0
        ]
        return merged_stats, merged_confirmed, identification_payloads

    # -- draining ----------------------------------------------------------

    def _merge(
        self,
    ) -> Tuple[List[ProblemSolution], Dict[ProblemKey, List[Tuple]]]:
        """Drain every shard and merge: the solutions, and each problem's
        records, in the parent's global creation order.  Once."""
        if self._merged is not None:
            return self._merged
        if self._spans is not None:
            with self._spans.span("drain.collect", category="fabric"):
                payloads = self._collect(("drain",), "drain")
        else:
            payloads = self._collect(("drain",), "drain")
        for worker in self._workers:
            worker.request_stop()   # workers exit while the parent merges
        # Keyed on the (frozen, hashable) ProblemKey objects themselves:
        # the unpickled worker keys equal the tracker's, and enum fields
        # resolve to the same singletons — no id-tuple re-derivation.
        merge_started = (
            self._spans.clock() if self._spans is not None else None
        )
        solutions_by_key: Dict[ProblemKey, Optional[Any]] = {}
        counter_payloads = []
        for worker, payload in zip(self._workers, payloads):
            # payload[:5] is the canonical drain contract; the optional
            # sixth element (format 2) is side-band telemetry and never
            # influences the merged result.
            events, problems, stats, confirmed, identifications = (
                payload[:5]
            )
            telemetry = payload[5] if len(payload) > 5 else None
            self._deliver(worker, events)
            for key, solution in problems:
                solutions_by_key[key] = solution
            counter_payloads.append(
                {
                    "stats": stats,
                    "confirmed": confirmed,
                    "identifications": identifications,
                }
            )
            if telemetry:
                self._adopt_telemetry(worker.index, telemetry)
        merged_stats, _, identification_payloads = self._merge_counters(
            counter_payloads
        )
        self._merged_stats = merged_stats
        self._merged_identifications = _merge_identifications(
            identification_payloads
        )
        # Merge in the parent's global creation order — the exact order
        # the batch splitter would have produced, which downstream
        # consumers (reduction fractions) are contractually tied to.
        solutions = []
        groups: Dict[ProblemKey, List[Tuple]] = {}
        tracker = self._tracker
        missing = object()
        for bucket in tracker.order:
            key = tracker.keys[bucket]
            solution = solutions_by_key.get(key, missing)
            if solution is missing:
                raise BackendError(f"no shard reported problem {key}")
            if solution is not None:
                solutions.append(solution)
            groups[key] = tracker.groups[bucket]
        self._merged = (solutions, groups)
        if self._spans is not None:
            self._spans.record(
                "drain.merge",
                start=merge_started,
                duration=self._spans.clock() - merge_started,
                category="fabric",
                problems=len(solutions_by_key),
            )
        self.close()
        return self._merged

    def drain(self) -> PipelineResult:
        """The merged result, its record groups decoded in process, each
        record once however many groups hold it."""
        if self._drained is None:
            solutions, groups = self._merge()
            decoded = wire.observation_groups(groups.values())
            self._drained = assemble_result(
                solutions,
                dict(zip(groups, decoded)),
                self._discard,
                self.context.country_by_asn,
            )
        return self._drained

    def drain_wire(self) -> Tuple:
        """The merged result as a ``result`` frame's payload, its groups
        the records this backend routed: no observation is built."""
        solutions, groups = self._merge()
        head = assemble_head(
            solutions,
            lambda key: [record[3] for record in groups[key] if record[2]],
            self._discard,
            self.context.country_by_asn,
        )
        return wire.records_to_wire(head, groups)

    def _adopt_telemetry(
        self, index: int, telemetry: Dict[str, Any]
    ) -> None:
        """Fold one worker's drain telemetry into the parent's view.

        Solve-cache counters sum across shards (each shard solved a
        disjoint problem set, so the totals are exact); the worker's
        metrics snapshot merges into the parent registry with a
        ``shard`` label so worker-side series never collide with the
        parent's own."""
        solve = telemetry.get("solve_stats")
        if solve:
            if self._merged_solve_stats is None:
                self._merged_solve_stats = SolveStats()
            merged = self._merged_solve_stats
            for name, value in solve.items():
                setattr(merged, name, getattr(merged, name) + value)
        snapshot = telemetry.get("metrics")
        if snapshot and self._metrics is not None:
            self._metrics.merge(
                snapshot, extra_labels={"shard": str(index)}
            )
        worker_spans = telemetry.get("spans")
        if worker_spans and self._spans is not None:
            self._spans.merge(worker_spans, track=shard_track(index))

    @property
    def solve_stats(self) -> Optional[SolveStats]:
        """Merged worker solve-cache counters; populated at drain."""
        return self._merged_solve_stats

    def run_dataset(
        self,
        dataset: Dataset,
        without_churn: bool = False,
        timer: Optional[StageTimer] = None,
    ) -> PipelineResult:
        """Batch workload: convert once up front, route, drain."""
        if (
            self._tracker.order
            or self._restore_state is not None
            or self._watermark is not None
        ):
            raise RuntimeError(
                "run_dataset() needs a fresh backend; this one already "
                "holds ingested or restored state — keep using the "
                "incremental surface and drain()"
            )
        with maybe_stage(timer, "pipeline.observations"):
            observations, stats = build_observations(
                dataset, self.context.ip2as, anomalies=self._anomalies
            )
        self.merge_discard_stats(stats)
        if without_churn:
            observations = first_path_only(observations)
        with maybe_stage(timer, "pipeline.sharded"):
            self._route(
                self.decoder.records(
                    map(wire.observation_to_wire, observations)
                ),
                count_measurement=True,
            )
            return self.drain()

    # -- checkpointing -----------------------------------------------------

    def state(self) -> Dict[str, Any]:
        """Merge per-shard engine states into one backend-agnostic dict.

        Problems come back in the parent's global creation order; the
        watermark is the global one (for an in-order stream every shard's
        future is at or past it).  Worker counters merge additively on
        top of any restored baseline; drain bytes never depend on them.

        As a side effect, each shard's reply becomes its new recovery
        baseline (it covers every frame sent so far), truncating the
        replay log for free.
        """
        if self._merged is not None:
            raise RuntimeError(
                "backend already drained; checkpoint before drain()"
            )
        payloads = self._collect(("state",), "state")
        for worker, shard_state in zip(self._workers, payloads):
            worker.baseline = shard_state
            worker.log.clear()
        problems_by_key: Dict[Tuple, Dict[str, Any]] = {}
        max_sequence = 0
        for shard_state in payloads:
            for entry in shard_state["problems"]:
                key = problem_key_from_dict(entry["key"])
                problems_by_key[_key_id(key)] = entry
            max_sequence = max(max_sequence, shard_state["sequence"])
        merged_stats, merged_confirmed, identification_payloads = (
            self._merge_counters(payloads)
        )
        problems = []
        for bucket in self._tracker.order:
            key_id = _key_id(self._tracker.keys[bucket])
            if key_id not in problems_by_key:
                raise BackendError(
                    f"no shard reported problem "
                    f"{self._tracker.keys[bucket]}"
                )
            problems.append(problems_by_key[key_id])
        identifications = _sort_identification_payloads(
            identification_payloads
        )
        return {
            "format": STATE_FORMAT,
            "watermark": self._watermark,
            "sequence": max(self._sequence, max_sequence),
            "last_measurement_id": self._last_measurement_id,
            "stats": merged_stats.as_dict(),
            "discard": discard_to_dict(self._discard),
            "confirmed": {
                str(asn): count
                for asn, count in sorted(merged_confirmed.items())
            },
            "identifications": identifications,
            "problems": problems,
        }

    def restore(self, state: Dict[str, Any]) -> None:
        if state.get("format") != STATE_FORMAT:
            raise ValueError(
                f"unsupported engine-state format {state.get('format')!r}"
            )
        if self._workers is not None or self._tracker.order:
            raise RuntimeError("restore() must precede any ingestion")
        # A record sits in one problem per granularity; the state holds
        # it once per problem, the tracker once.
        held: Dict[Tuple, Tuple] = {}
        for entry in state["problems"]:
            key = problem_key_from_dict(entry["key"])
            self._tracker.register(
                key,
                [
                    held.setdefault(record, record)
                    for record in self.decoder.records(
                        wire.observation_to_wire(
                            observation_from_dict(payload)
                        )
                        for payload in entry["observations"]
                    )
                ],
            )
        self._watermark = state["watermark"]
        self._sequence = state["sequence"]
        self._last_measurement_id = state["last_measurement_id"]
        stats = dict(state["stats"])
        self._stats.measurements = stats.get("measurements", 0)
        self._stats.observations = stats.get("observations", 0)
        self._stats.discarded_measurements = stats.get(
            "discarded_measurements", 0
        )
        # The merged problem/solve counters cannot be un-merged into
        # shard engines; they ride along as a parent-side baseline and
        # the restored workers start their own counters at zero.
        for name in ("measurements", "observations",
                     "discarded_measurements"):
            stats[name] = 0
        self._baseline_stats = stats
        self._baseline_identifications = list(state["identifications"])
        self._discard = discard_from_dict(state["discard"])
        self._restore_state = state

    def _send_restore(self, state: Dict[str, Any]) -> None:
        """Partition the merged state by shard key and ship each slice.

        Each worker's confirmed-censor counts are re-derived from the
        closed windows in its slice (a closed window confirms exactly
        its solution's censors, unsatisfiable windows none) — the same
        invariant the live engine maintains incrementally — so late
        reopens after a restore decrement real counts, and the per-shard
        sums reported at drain/state stay exact without a parent-side
        baseline.

        Each slice doubles as the shard's recovery baseline: a worker
        that dies later restarts from it plus the replay log.
        """
        assert self._workers is not None
        slices = split_state(state, self._placement, self.shards)
        for worker, shard_slice in zip(self._workers, slices):
            worker.baseline = shard_slice
            worker.log.clear()
            worker.delivered_seq = 0
            self._send_request(worker, wire.encode(("restore", shard_slice)))
        for worker in self._workers:
            while worker.outstanding > 0:
                self._handle_reply(worker, self._next_reply(worker))

    # -- elastic sharding --------------------------------------------------

    @property
    def placement(self) -> PartitionMap:
        """The live routing map."""
        return self._placement

    def rebalance(self, new_map: PartitionMap) -> Dict[str, Any]:
        """Move the fleet to ``new_map`` live, mid-stream.

        Only the moving (URL, anomaly) pairs quiesce: sources extract
        them into an epoch-keyed stash (``rebalance_begin``, logged —
        recovery replay re-extracts deterministically), the parent
        fetches each stash (``slice_fetch``, read-only, resent after a
        recovery like ``state``), regroups the problems by the new map,
        ships each destination its slice (``slice_transfer``, logged),
        and commits the epoch everywhere.  Non-moving pairs never stop
        flowing, and in-flight replay duplicates stay deduplicated by
        the same shard-local sequences dead-shard recovery uses.

        The drain stays byte-identical because nothing the merged result
        depends on lives in the placement: solutions merge in the
        parent's global creation order whatever shard closed them, and
        stats/confirmed/identification accounting travels with the
        moved pairs.
        """
        self._check_not_drained()
        old_map = self._placement
        if new_map.shards != self.shards and self._shard_hosts:
            raise BackendError(
                "cannot change the shard count of a fixed shard_hosts "
                "fleet; bucket moves (overrides) are still allowed"
            )
        if new_map.epoch <= old_map.epoch:
            # Maps built from scratch start at epoch 1; adopt the layout
            # but force the epoch forward so commit frames (and worker
            # stashes) stay unambiguous.
            new_map = PartitionMap(
                new_map.shards,
                epoch=old_map.epoch + 1,
                overrides=new_map.overrides,
                vnodes=new_map.vnodes,
            )
        started = time.perf_counter()
        workers = self._ensure_workers()
        # Every already-routed observation must reach its old owner
        # before any slice extraction sees the engine.
        self._flush_all()
        # Grow first, so every destination exists before transfers.
        for index in range(self.shards, new_map.shards):
            self._add_worker(index)
        pairs = self._known_pairs()
        moved = old_map.moved_pairs(new_map, pairs)
        epoch = new_map.epoch
        by_source: Dict[int, List[Tuple[str, str]]] = {}
        for pair, (source, _) in moved.items():
            by_source.setdefault(source, []).append(pair)
        # Phase 1 — extract: each source stashes its moving problems.
        for source in sorted(by_source):
            self._post_frame(
                workers[source],
                wire.encode(
                    wire.rebalance_begin_frame(
                        epoch, sorted(by_source[source])
                    )
                ),
            )
        # Phase 2 — fetch each stash and regroup by destination.
        dest_problems: Dict[int, List[Dict[str, Any]]] = {}
        dest_idents: Dict[int, List[Dict[str, Any]]] = {}
        for source in sorted(by_source):
            reply = self._request_one(
                workers[source],
                wire.encode(wire.slice_fetch_frame(epoch)),
                "slice",
            )
            slice_state = reply[2]
            for entry in slice_state["problems"]:
                dest = new_map.shard_for(
                    entry["key"]["url"], entry["key"]["anomaly"]
                )
                dest_problems.setdefault(dest, []).append(entry)
            for ident in slice_state.get("identifications") or []:
                dest = new_map.shard_for(
                    ident["key"]["url"], ident["key"]["anomaly"]
                )
                dest_idents.setdefault(dest, []).append(ident)
        # Phase 3 — transfer: each destination adopts its incoming
        # problems (logged, so its recovery replay re-adopts them).
        for dest in sorted(set(dest_problems) | set(dest_idents)):
            problems = dest_problems.get(dest, [])
            payload = state_slice(
                problems,
                watermark=self._watermark,
                confirmed=confirmed_from_problems(problems),
                identifications=dest_idents.get(dest) or [],
            )
            self._post_frame(
                workers[dest],
                wire.encode(wire.slice_transfer_frame(epoch, payload)),
            )
        # Phase 4 — commit everywhere: stashes die, the epoch is live.
        commit = wire.encode(wire.rebalance_commit_frame(epoch))
        for worker in workers:
            self._post_frame(worker, commit)
        # Route by the new map from here on.
        self._placement = new_map
        self._shard_cache.clear()
        removed = list(range(new_map.shards, self.shards))
        self.shards = new_map.shards
        for index in removed:       # shrink: retire drained workers
            self._remove_worker(index)
        if removed:
            del self._workers[self.shards:]
            del self._buffers[self.shards:]
            if self._listeners is not None:
                for listener in self._listeners[self.shards:]:
                    listener.close()
                del self._listeners[self.shards:]
            if self._shard_metrics is not None:
                del self._shard_metrics[self.shards:]
        elapsed = time.perf_counter() - started
        self._rebalances += 1
        self._moved_buckets += len(moved)
        self._last_rebalance = time.time()
        if self._metrics is not None:
            self._metrics.counter("repro_rebalances_total").inc()
            self._metrics.counter(
                "repro_rebalance_moved_buckets_total"
            ).inc(len(moved))
        _log.info(
            "placement.rebalance",
            extra=obslog.fields(
                epoch=epoch,
                shards=self.shards,
                moved=len(moved),
                seconds=round(elapsed, 6),
            ),
        )
        return {
            "epoch": epoch,
            "shards": self.shards,
            "moved_buckets": len(moved),
            "seconds": elapsed,
        }

    def add_shard(self) -> Dict[str, Any]:
        """Grow by one worker, migrating ~1/N of the buckets to it."""
        return self.rebalance(
            self._placement.with_shards(self.shards + 1)
        )

    def remove_shard(self) -> Dict[str, Any]:
        """Shrink by one worker, migrating its buckets off first."""
        if self.shards <= 1:
            raise BackendError("cannot remove the last shard")
        return self.rebalance(
            self._placement.with_shards(self.shards - 1)
        )

    def shard_load(self) -> List[Dict[str, Any]]:
        """Per-shard load signals for the autoscaler: ingest lag in
        simulated-stream seconds (metrics mode only; 0.0 otherwise) and
        outstanding-reply queue depth."""
        if self._workers is None:
            return [
                {"shard": index, "lag": 0.0, "queue": 0}
                for index in range(self.shards)
            ]
        load: List[Dict[str, Any]] = []
        for index, worker in enumerate(self._workers):
            lag = 0.0
            if self._shard_metrics is not None:
                shard_metrics = self._shard_metrics[index]
                if (
                    shard_metrics.sent_watermark is not None
                    and shard_metrics.acked_watermark is not None
                ):
                    lag = float(
                        max(
                            0,
                            shard_metrics.sent_watermark
                            - shard_metrics.acked_watermark,
                        )
                    )
            load.append(
                {"shard": index, "lag": lag, "queue": worker.outstanding}
            )
        return load

    def placement_status(self) -> Dict[str, Any]:
        """Operator view of the placement layer (statusz / top)."""
        return {
            "epoch": self._placement.epoch,
            "shards": self.shards,
            "bucket_counts": self._placement.bucket_counts(
                self._known_pairs()
            ),
            "overrides": len(self._placement.overrides),
            "rebalances": self._rebalances,
            "moved_buckets": self._moved_buckets,
            "last_rebalance": self._last_rebalance,
        }

    # -- reporting ---------------------------------------------------------

    @property
    def stats(self) -> StreamStats:
        """Merged counters: exact after drain, parent-side before."""
        if self._merged_stats is not None:
            return self._merged_stats
        return self._stats

    @property
    def identifications(self) -> List:
        """Confirmed-censor log, merged across shards at drain.

        Ordered and deduplicated on simulated time (globally
        comparable); each entry's ``observations_ingested`` /
        ``measurements_ingested`` counters remain the confirming
        *shard's* tallies, like the event counters.
        """
        return self._merged_identifications


def _sort_identification_payloads(
    payloads: List[Dict[str, Any]],
) -> List[Dict[str, Any]]:
    """Merge identification logs on the only globally comparable clock.

    ``timestamp`` is simulated time — identical meaning in every shard
    and in a restored checkpoint's baseline — whereas the ingest
    counters inside each entry are shard-local tallies (documented as
    such).  Sorting and re-sequencing by (timestamp, asn) keeps the
    merged log deterministic across shard counts and restarts.
    """
    ordered = sorted(
        payloads,
        key=lambda entry: (entry["timestamp"], entry["asn"]),
    )
    return [
        dict(entry, sequence=index + 1)
        for index, entry in enumerate(ordered)
    ]


def _merge_identifications(payloads: List[Dict[str, Any]]) -> List:
    merged = []
    seen = set()
    for entry in _sort_identification_payloads(payloads):
        if entry["asn"] in seen:
            continue  # another shard confirmed later; keep the earliest
        seen.add(entry["asn"])
        merged.append(identification_from_dict(entry))
    return merged


def backend_for(context: BackendContext) -> ExecutionBackend:
    """Instantiate the backend the context's execution policy names."""
    name = context.config.execution.backend
    if name == "inline":
        return InlineBackend(context)
    if name == "sharded":
        return ShardedBackend(context)
    raise ValueError(f"unknown backend {name!r}")


__all__ = [
    "BackendContext",
    "BackendError",
    "ExecutionBackend",
    "InlineBackend",
    "ShardedBackend",
    "backend_for",
    "run_shard_worker",
]
