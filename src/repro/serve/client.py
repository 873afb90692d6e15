"""The serve daemon's client library: a resilient ingest stream.

A :class:`ServeClient` is the thin edge of a campaign: it converts
measurements locally (the same one-tally, one-memo-cache semantics the
sharded parent applies), batches observations into sequenced chunks,
and ships them to a :class:`~repro.serve.server.ServeDaemon` with an
outstanding-ack window for flow control.  Its whole reliability story
is a **resend buffer** keyed by chunk sequence:

- every frame is buffered *before* it is sent;
- a per-chunk ``ack`` only moves the flow-control window — it means
  "applied in memory", which a daemon crash erases;
- only a ``checkpoint_ack`` (the daemon's durable watermark) truncates
  the buffer;
- on any transport failure the client re-dials, re-attaches with its
  resume token, prunes the buffer to the daemon's ``applied_seq``, and
  re-sends the rest — and because the daemon acks-but-skips sequences
  it already applied, the observation sequence the engine folds over
  is identical no matter how many times the TCP stream died.

That idempotence is what the byte-identity tests pin: inline drain ==
served drain, through client reconnects and daemon restarts alike.

:class:`ServeSubscriber` is the read side — a verdict-event stream with
a from-sequence cursor, so a subscriber that reconnects never double
sees an event.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.anomaly import Anomaly
from repro.api import wire
from repro.api.config import SessionConfig
from repro.api.transport import SocketTransport, TransportError, dial
from repro.core.observations import DiscardStats, Observation, observations_of
from repro.core.pipeline import PipelineResult
from repro.iclab.measurement import Measurement
from repro.obs import log as obslog
from repro.serve.tenants import ServeError
from repro.stream.checkpoint import discard_to_dict
from repro.stream.events import VerdictEvent

_log = obslog.get_logger("serve.client")

# Same reply-window bound as the sharded backend's parent: enough to
# keep the pipe full, small enough that backpressure reaches the source.
MAX_OUTSTANDING = 8

# The one-line hint every connect failure carries.
DAEMON_HINT = (
    "is repro-serve running on this address? start it with "
    "`make serve-start` (or `repro-serve --listen HOST:PORT`)"
)


def dial_daemon(
    address: str, retry_for: float = 10.0
) -> SocketTransport:
    """Dial a serve daemon; one actionable line on failure."""
    return dial(
        address,
        retry_for=retry_for,
        peer="serve daemon",
        hint=DAEMON_HINT,
    )


class ServeClient:
    """One campaign's sequenced, reconnect-safe stream to the daemon.

    ``config`` (a :class:`SessionConfig`) creates the campaign on first
    attach; pass ``None`` to join an existing one and adopt its anomalies
    and chunk size from the daemon's attach reply.  ``ip2as`` is needed
    only for :meth:`ingest_measurement` (client-side conversion);
    pre-converted :meth:`ingest_observation` works without it.
    ``on_event`` receives :class:`VerdictEvent` pushes when
    ``want_events`` (deduplicated across reconnects by sequence).

    Conversion tallies ride the sequenced frames: each ``ingest`` or
    ``drain`` frame carries the tallies gathered since this client's
    previous one.  :meth:`flush` ships a record-less ``ingest`` frame
    when only tallies are pending, so a client that leaves without
    draining still delivers every tally.  ``discard`` counts every
    conversion this client has done, shipped or not.
    """

    def __init__(
        self,
        address: str,
        campaign: str,
        config: Optional[SessionConfig] = None,
        ip2as=None,
        want_events: bool = False,
        on_event: Optional[Callable[[VerdictEvent], None]] = None,
        retry_for: float = 10.0,
        window: int = MAX_OUTSTANDING,
    ) -> None:
        self.address = address
        self.campaign = campaign
        self.config = config
        self._ip2as = ip2as
        self._anomalies = (
            config.pipeline_config().anomalies
            if config is not None
            else None
        )
        self._chunk_size = (
            config.execution.chunk_size if config is not None else 256
        )
        self.want_events = want_events
        self.on_event = on_event
        self.retry_for = retry_for
        self.window = window
        self._shipped = DiscardStats()
        self._unsent = DiscardStats()
        self._conversion_cache: Dict = {}
        self._transport: Optional[SocketTransport] = None
        self.resume_token: Optional[str] = None
        self._seq = 0                  # last sequence assigned
        self._acked = 0                # daemon's in-memory watermark
        self._durable = 0              # daemon's checkpointed watermark
        self._buffer: "OrderedDict[int, Tuple]" = OrderedDict()
        self._pending: List[Tuple] = []
        self._last_event_seq = 0
        self.result: Optional[PipelineResult] = None
        self.reconnects = 0

    # -- connection management ---------------------------------------------

    def attach(self) -> int:
        """Connect and attach; returns the daemon's applied watermark."""
        transport = dial_daemon(self.address, retry_for=self.retry_for)
        transport.send(
            wire.attach_frame(
                self.campaign,
                self.config.to_dict() if self.config is not None else None,
                self.want_events,
                resume_token=self.resume_token,
            )
        )
        reply = transport.recv()
        if reply and reply[0] == "error":
            transport.close()
            raise ServeError(reply[1])
        _campaign, token, applied_seq, options = wire.check_attached(
            reply
        )
        if self.config is None:
            self._anomalies = tuple(
                Anomaly(value) for value in options["anomalies"]
            )
            self._chunk_size = options["chunk_size"]
        self._transport = transport
        self.resume_token = token
        self._sync_to(applied_seq)
        return applied_seq

    def _sync_to(self, applied_seq: int) -> None:
        """Prune the buffer to the daemon's watermark, resend the rest."""
        while self._buffer and next(iter(self._buffer)) <= applied_seq:
            self._buffer.popitem(last=False)
        if applied_seq > self._acked:
            self._acked = applied_seq
        if applied_seq > self._durable:
            # The daemon restored/holds this much — durable by definition.
            self._durable = applied_seq
        if applied_seq > self._seq:
            # Joining a campaign another client fed: number on from its
            # watermark, or the daemon would skip this client's chunks.
            self._seq = applied_seq
        for frame in self._buffer.values():
            self._transport.send(frame)

    def _reconnect(self) -> None:
        if self._transport is not None:
            self._transport.close()
            self._transport = None
        self.reconnects += 1
        _log.info(
            "serve.client.reconnect",
            extra=obslog.fields(
                campaign=self.campaign,
                address=self.address,
                buffered=len(self._buffer),
            ),
        )
        self.attach()

    def close(self) -> None:
        """Detach politely (the tenant lives on in the daemon)."""
        if self._transport is not None:
            try:
                self._transport.send(("detach",))
            except (EOFError, OSError):
                pass
            self._transport.close()
            self._transport = None

    def __enter__(self) -> "ServeClient":
        self.attach()
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- the sequenced send/receive core -----------------------------------

    def _post(self, frame: Tuple) -> None:
        """Buffer-then-send one sequenced frame, then honor the window."""
        self._buffer[frame[1]] = frame
        if self._transport is None:
            self.attach()
        try:
            self._transport.send(frame)
        except (EOFError, OSError):
            self._reconnect()   # resends the buffer, this frame included
        while self._seq - self._acked >= self.window:
            self._handle_one_reply()

    def _handle_one_reply(self) -> Tuple:
        while True:
            try:
                message = self._transport.recv()
            except (EOFError, OSError):
                self._reconnect()
                continue
            break
        return self._dispatch(message)

    def _dispatch(self, message: Tuple) -> Tuple:
        kind = message[0]
        if kind == "ack":
            if message[1] > self._acked:
                self._acked = message[1]
        elif kind == "checkpoint_ack":
            durable = message[1]
            if durable > self._durable:
                self._durable = durable
            while self._buffer and next(iter(self._buffer)) <= durable:
                self._buffer.popitem(last=False)
        elif kind == "events":
            if self.on_event is not None:
                for payload in message[1]:
                    sequence = payload[wire.EVENT_SEQUENCE_INDEX]
                    if sequence <= self._last_event_seq:
                        continue   # reconnect overlap — already seen
                    self._last_event_seq = sequence
                    self.on_event(wire.event_from_wire(payload))
        elif kind == "result":
            self.result = wire.result_from_wire(message[1])
        elif kind == "error":
            raise ServeError(message[1])
        else:
            raise ServeError(
                f"unexpected frame {kind!r} from the daemon"
            )
        return message

    # -- ingestion surface --------------------------------------------------

    def ingest_measurement(self, measurement: Measurement) -> None:
        """Convert locally (one tally, one memo cache — the sharded
        parent's exact semantics) and buffer their wire tuples."""
        if self._ip2as is None:
            raise RuntimeError(
                "ingest_measurement needs the client constructed with "
                "an ip2as database; use ingest_observation for "
                "pre-converted streams"
            )
        if self._anomalies is None:
            self.attach()   # a config-less client learns them here
        records = observations_of(
            measurement,
            self._ip2as,
            anomalies=self._anomalies,
            stats=self._unsent,
            conversion_cache=self._conversion_cache,
            record=wire.observation_record,
        )
        pending = self._pending
        if len(pending) + len(records) < self._chunk_size:
            pending.extend(records)
            return
        # A frame fills up on the way: buffer one by one, so every
        # frame still carries exactly chunk_size tuples.
        for record in records:
            self._buffer_record(record)

    def ingest_observation(self, observation: Observation) -> None:
        self._buffer_record(wire.observation_to_wire(observation))

    def _buffer_record(self, record: Tuple) -> None:
        self._pending.append(record)
        if len(self._pending) >= self._chunk_size:
            self.flush()

    @property
    def discard(self) -> DiscardStats:
        """Every conversion tally of this client, shipped or not."""
        stats = DiscardStats()
        stats.merge(self._shipped)
        stats.merge(self._unsent)
        return stats

    def _take_tallies(self) -> Optional[Dict]:
        """The tallies gathered since the last frame, marked shipped;
        None when nothing was converted since."""
        unsent = self._unsent
        if not unsent.total:
            return None
        self._shipped.merge(unsent)
        self._unsent = DiscardStats()
        return discard_to_dict(unsent)

    def flush(self) -> None:
        """Ship the pending observations and tallies as one sequenced
        chunk (records may be empty when only tallies are pending)."""
        tallies = self._take_tallies()
        if not self._pending and tallies is None:
            return
        self._seq += 1
        self._post(("ingest", self._seq, self._pending, tallies))
        self._pending = []

    def advance(self, timestamp: int) -> None:
        """Push the campaign watermark forward (keep-alive)."""
        self.flush()
        self._seq += 1
        self._post(("advance", self._seq, timestamp))

    def wait_for_acks(self) -> None:
        """Block until every sent frame is applied daemon-side.

        Quiesces the tenant: when this returns, the daemon's applier
        has finished every chunk this client sent (tests use it before
        poking daemon internals; a source can use it as a barrier)."""
        while self._acked < self._seq:
            self._handle_one_reply()

    def drain(self) -> PipelineResult:
        """Flush, ship the last tallies, and wait for the result.

        The daemon caches the result per tenant, so a drain retried
        across a reconnect returns the same object.
        """
        if self.result is not None:
            return self.result
        if self._pending:
            self.flush()
        self._seq += 1
        self._post(("drain", self._seq, self._take_tallies()))
        while self.result is None:
            self._handle_one_reply()
        return self.result


class ServeSubscriber:
    """A reconnecting verdict-event reader for one campaign.

    Tracks the last event sequence it has yielded and resubscribes from
    it, so a dropped TCP stream costs a reconnect, never a duplicate or
    a gap (within the daemon's replay ring).
    """

    def __init__(
        self,
        address: str,
        campaign: str,
        from_sequence: int = 0,
        retry_for: float = 10.0,
    ) -> None:
        self.address = address
        self.campaign = campaign
        self.cursor = from_sequence
        self.retry_for = retry_for
        self._transport: Optional[SocketTransport] = None
        self.reconnects = 0

    def _connect(self) -> None:
        transport = dial_daemon(self.address, retry_for=self.retry_for)
        transport.send(wire.subscribe_frame(self.campaign, self.cursor))
        reply = transport.recv()
        if reply and reply[0] == "error":
            transport.close()
            raise ServeError(reply[1])
        if not reply or reply[0] != "subscribed":
            transport.close()
            raise ServeError(
                f"expected a subscribed reply, got {reply[:1]!r}"
            )
        self._transport = transport

    def events(
        self,
        stop_after: Optional[int] = None,
        reconnect: bool = True,
    ) -> Iterator[VerdictEvent]:
        """Yield events as they arrive; resubscribe on stream death.

        ``stop_after`` ends the iterator once that many events have
        been yielded (tests); otherwise it runs until :meth:`close` or
        a failed reconnect.
        """
        yielded = 0
        if self._transport is None:
            self._connect()
        while True:
            try:
                message = self._transport.recv()
            except (EOFError, OSError):
                if not reconnect:
                    return
                self._transport = None
                self.reconnects += 1
                try:
                    self._connect()
                except (TransportError, ServeError):
                    return
                continue
            if message[0] == "error":
                raise ServeError(message[1])
            if message[0] != "events":
                continue
            for payload in message[1]:
                sequence = payload[wire.EVENT_SEQUENCE_INDEX]
                if sequence <= self.cursor:
                    continue   # replay overlap after a reconnect
                self.cursor = sequence
                yield wire.event_from_wire(payload)
                yielded += 1
                if stop_after is not None and yielded >= stop_after:
                    return

    def close(self) -> None:
        if self._transport is not None:
            self._transport.close()
            self._transport = None

    def __enter__(self) -> "ServeSubscriber":
        if self._transport is None:
            self._connect()
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def stream_campaign(
    address: str,
    campaign: str,
    config: SessionConfig,
    want_events: bool = False,
    on_event: Optional[Callable[[VerdictEvent], None]] = None,
    progress_every: int = 0,
    retry_for: float = 10.0,
) -> Tuple[PipelineResult, ServeClient]:
    """Run a config's campaign locally, streaming it through the daemon.

    The thin-client shape behind ``repro-stream --connect``: the world
    builds client-side (it is the *measurement source*), every
    measurement ships to the daemon as it is produced, and the drain
    comes back as the daemon's :class:`PipelineResult` — byte-identical
    to running the same config inline.
    """
    from repro.scenario.world import build_world

    world = build_world(config.scenario_config())
    client = ServeClient(
        address,
        campaign,
        config=config,
        ip2as=world.ip2as,
        want_events=want_events,
        on_event=on_event,
        retry_for=retry_for,
    )
    client.attach()
    try:
        world.platform.add_listener(client.ingest_measurement)
        try:
            world.platform.run_campaign(progress_every=progress_every)
        finally:
            world.platform.remove_listener(client.ingest_measurement)
        result = client.drain()
    finally:
        client.close()
    return result, client


__all__ = [
    "DAEMON_HINT",
    "MAX_OUTSTANDING",
    "ServeClient",
    "ServeSubscriber",
    "dial_daemon",
    "stream_campaign",
]
