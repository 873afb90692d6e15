"""Compact batched wire protocol shared by shard parents and workers.

The first shard protocol shipped one pickled dict per observation and
per verdict event.  Pickle memoizes the repeated key strings, but the
dict building/teardown on both sides of the boundary — plus the
per-message framing — dominated the pipe at campaign scale (the
ROADMAP's "serialization dominates" item): the 4-worker sharded drain
only broke even with single-threaded ingest around ~6k observations.

This codec is the fix, borrowing the shape of batched work units from
SAT accelerator host interfaces: hot-path payloads (observation chunks,
verdict-event batches, drain problem lists) are encoded as flat tuples
— position, not keys — and a whole chunk travels as **one frame**.  A
frame is ``encode()``'s bytes; transports add their own length prefix
(:mod:`repro.api.transport`), so the same frame bytes flow over a
multiprocessing pipe or a TCP socket unchanged, and the parent can keep
encoded frames verbatim in its per-shard replay log for dead-shard
recovery.

Control-plane payloads (engine-state slices for restore/checkpoint)
stay in the :mod:`repro.stream.checkpoint` dict format — they are rare,
and sharing that format is what lets shard recovery reuse session
checkpoints directly.

``WIRE_FORMAT`` versions the whole vocabulary; socket peers exchange it
in the hello frame and refuse mismatched builds instead of
mis-decoding.

Format 2 added the observability extensions, all version-gated behind
the hello exchange: an options dict on the hello frame (``metrics``
turns on the worker-side registry, ``ack`` asks for empty ``events``
replies on otherwise fire-and-forget obs chunks so the parent can
measure ingest lag), an optional trailing trace-context element on
``obs`` frames (echoed verbatim on the matching ``events`` reply — the
carrier for cross-boundary verdict-latency spans and ack watermarks),
and a trailing telemetry element on the drain payload (worker metrics
snapshot + solve-cache counters).  Every extension is a *trailing*
optional element, so the decoders accept format-1-shaped tuples from
this build's own code paths that don't use them.

Format 3 added the **serve vocabulary** — the frames a
:mod:`repro.serve` daemon and its clients exchange on top of the same
length-prefixed transport: ``attach``/``attached`` (a campaign-keyed
session handshake carrying a resume token and the daemon's applied
watermark, so a reconnecting client knows exactly which buffered chunks
to re-send), ``subscribe``/``subscribed`` (verdict-event subscriptions
with a from-sequence replay cursor), and ``checkpoint_ack`` (the
daemon's durable watermark — the only signal that lets a client
truncate its resend buffer).  The shard parent/worker conversation is
unchanged; the bump only keeps a format-2 worker from silently talking
to a format-3 daemon.

Format 4 added the **rebalance vocabulary** — the four parent → worker
frames that migrate live (URL, anomaly) buckets between shards, every
one carrying the destination :class:`~repro.api.placement.PartitionMap`
epoch so two overlapping migrations can never be confused:
``rebalance_begin`` (extract the named pairs' problems from the live
engine and stash the slice under the epoch — logged, so a recovery
replay deterministically rebuilds the stash), ``slice_fetch`` (read-only
fetch of a stashed slice, answered by a ``slice`` reply — *not* logged,
exactly like ``state``, and therefore resendable after a mid-fetch
worker death), ``slice_transfer`` (adopt a slice into the destination's
live engine — logged, so destination recovery replays the adoption),
and ``rebalance_commit`` (drop stashes at or below the epoch — logged).
Slices travel in the :mod:`repro.stream.checkpoint` dict format, the
same one restore/recovery baselines use.

Format 5 changed how pickled observations are named, not what frames
carry.  An :class:`~repro.core.observations.Observation` now pickles as
a call to ``repro.core.observations._observation``, the slot-filling
constructor, so a drained ``PipelineResult`` (every observation group
of the campaign) decodes without the keyword ``__init__``.  A peer on
an older build has no such constructor and would fail with
``AttributeError`` mid-unpickle; the bump makes it refuse at the hello
or attach exchange instead.

Format 6 changed the pickled form of problem keys and solutions, again
not what frames carry.  :class:`~repro.core.splitting.ProblemKey`,
:class:`~repro.core.problem.ProblemSolution` and
:class:`~repro.iclab.measurement.Measurement` are slotted, and the first
two pickle as a call to their constructor.  A format-5 peer pickles
them with an instance-dict state, which a slotted class cannot load as
it was meant; the bump makes the two builds refuse each other at the
hello or attach exchange.

Format 7 shrank the :class:`~repro.api.config.ExecutionPolicy` dict
that ``hello`` and ``attach`` frames carry inside the session config:
``workers``, ``timeout``, ``recovery``, ``rebalance`` and
``shard_checkpoint_every`` are gone, and its ``autoscale`` block keeps
only ``enabled`` and ``max_shards``.  A format-6 config would fail the
constructor with a ``TypeError``.  The serve ``ingest`` frame also
gained a trailing element: the client's conversion tallies
(:func:`repro.stream.checkpoint.discard_to_dict`, or ``None``) gathered
since its previous ``ingest`` or ``drain`` frame; an ``ingest`` frame
may carry no records when only tallies are pending.  The daemon merges
them once per applied sequence, so a campaign fed by several clients
drains with every client's tallies.

Format 8 shrank the :class:`~repro.api.config.SessionConfig` dict that
``hello`` and ``attach`` frames carry: its ``optimized`` field is gone,
because every pipeline run now solves through the shared solve cache.
A format-7 config would fail the constructor with a ``TypeError``; the
bump makes the two builds refuse each other at the exchange instead.

Format 9 changed the serve ``result`` frame.  It used to carry the
drained :class:`~repro.core.pipeline.PipelineResult` whole, so one
``pickle.dumps`` memoized every observation of the campaign — and each
observation's reduce arguments — until it returned: a transient several
times the size of the frame.  It now carries :func:`result_to_wire`'s
payload: the result without its observation groups, the problem keys in
their drained order, and one separately pickled part per (URL, anomaly)
pair holding that pair's groups.  Encoding memory is bounded by one
pair, and a pair's day, week and month groups still share one object
per observation.  :func:`result_from_wire` rebuilds the dict in the
drained order.  A format-8 client would take the tuple for a result.

Format 10 ships records where format 9 shipped objects.  A ``result``
part holds its pair's groups as :func:`observation_to_wire` records, one
record object per observation however many groups hold it; a sharded
serve tenant pickles the records it routed without ever building an
:class:`Observation`, and :func:`result_from_wire` decodes each record
once.  An ``events`` tuple carries its problem key once: the solution
tuple has no key of its own (an event's solution is always of the
event's problem), and the ``candidates`` element is gone, since it is
:func:`repro.stream.events.candidates_of` the solution.  A format-9
peer would read the result parts as observations and the event tuples
one element off.
"""

from __future__ import annotations

import dataclasses
import pickle
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple

from repro.anomaly import Anomaly
from repro.core.observations import Observation, _observation
from repro.core.pipeline import PipelineResult
from repro.core.problem import ProblemSolution, SolutionStatus
from repro.core.splitting import Granularity, ProblemKey
from repro.stream.events import VerdictEvent, VerdictKind, candidates_of
from repro.util.collector import paused
from repro.util.timeutil import TimeWindow

WIRE_FORMAT = 10

_PROTOCOL = pickle.HIGHEST_PROTOCOL

# Index of the shard-local sequence inside an event tuple — the parent's
# recovery dedup filters on it without decoding the whole event.
EVENT_SEQUENCE_INDEX = 2
# Index of the stream timestamp inside an observation tuple — the parent
# reads a chunk's watermark off its buffered tuples.
OBSERVATION_TIMESTAMP_INDEX = 4

# Enum lookups by value go through EnumType.__call__, and ``.value`` is
# a descriptor call — far too slow for per-observation and per-event
# paths.  Plain dict lookups instead (members hash by identity).
_ANOMALY_BY_VALUE = {member.value: member for member in Anomaly}
_GRANULARITY_BY_VALUE = {member.value: member for member in Granularity}
_STATUS_BY_VALUE = {member.value: member for member in SolutionStatus}
_VERDICT_BY_VALUE = {member.value: member for member in VerdictKind}
_VALUE_OF_ANOMALY = {member: member.value for member in Anomaly}
_VALUE_OF_GRANULARITY = {member: member.value for member in Granularity}
_VALUE_OF_STATUS = {member: member.value for member in SolutionStatus}
_VALUE_OF_VERDICT = {member: member.value for member in VerdictKind}
# Each anomaly value to the member's own string: held records share it.
_ANOMALY_VALUE = {member.value: member.value for member in Anomaly}
# The event kinds whose ``candidates`` are their solution's.
_CANDIDATE_KINDS = frozenset(
    (VerdictKind.STATUS_CHANGED, VerdictKind.CANDIDATES_SHRANK)
)


class WireFormatError(RuntimeError):
    """Peer speaks a different wire-format version (or not at all)."""


# -- framing ----------------------------------------------------------------


# Both directions pause the cyclic collector
# (:func:`repro.util.collector.paused`).  A bulk frame (a drained
# result, a drain payload) builds tens of thousands of objects, and
# every collection triggered meanwhile walks them all to find no
# garbage.  The pause is shared and re-entrant: overlapping calls on
# different threads keep the collector off until the last one leaves,
# and it is never turned on for a caller that had it off.


def encode(message: Tuple) -> bytes:
    """One protocol message as one frame's payload bytes."""
    with paused():
        return pickle.dumps(message, _PROTOCOL)


def decode(data: bytes) -> Tuple:
    """Inverse of :func:`encode`."""
    with paused():
        return pickle.loads(data)


# -- observations ------------------------------------------------------------


def observation_to_wire(observation: Observation) -> Tuple:
    """One observation as a flat tuple (no keys on the wire)."""
    return (
        observation.url,
        _VALUE_OF_ANOMALY[observation.anomaly],
        observation.detected,
        observation.as_path,
        observation.timestamp,
        observation.measurement_id,
    )


def observation_record(
    url: str,
    anomaly: Anomaly,
    detected: bool,
    as_path: Tuple[int, ...],
    timestamp: int,
    measurement_id: int,
) -> Tuple:
    """The :func:`observation_to_wire` tuple of an observation, built
    from its fields without the :class:`Observation`.

    The ``record`` a shipping-only front end hands to
    :func:`repro.core.observations.observations_of`.  Keeps the
    observation's non-empty path check."""
    if not as_path:
        raise ValueError("observation requires a non-empty AS path")
    return (
        url,
        _VALUE_OF_ANOMALY[anomaly],
        detected,
        as_path,
        timestamp,
        measurement_id,
    )


class ObservationDecoder:
    """Wire records with each repeat held once, and their observations.

    A campaign's observations repeat a few hundred AS paths and a few
    dozen URLs, and a measurement's per-anomaly records arrive together
    with one timestamp and one measurement id.  Unpickling builds fresh
    copies of all of them for every frame; the decoder maps each path
    tuple and URL to the first equal one it saw, and reuses the previous
    record's ``timestamp`` and ``measurement_id`` objects when the
    measurement id repeats, so whoever keeps the records (:meth:`records`)
    or their observations (:meth:`decode`) holds each once.

    One decoder per session: a sharded backend interns the records it
    routes through one, an inline backend decodes through one, and a
    shard worker starts one with each engine it builds or restores.  The
    tables grow with the session's distinct paths and URLs and die with
    it.
    """

    __slots__ = ("paths", "urls", "_previous")

    def __init__(self) -> None:
        self.paths: Dict[Tuple[int, ...], Tuple[int, ...]] = {}
        self.urls: Dict[str, str] = {}
        # The previous record's measurement_id and timestamp, and its
        # path as received and as interned.
        self._previous: Tuple[Any, ...] = (None, None, None, None)

    def records(self, records: Iterable[Tuple]) -> Iterator[Tuple]:
        """``records``, in order, each rebuilt from the held objects."""
        paths = self.paths
        urls = self.urls
        anomalies = _ANOMALY_VALUE
        last_id, last_timestamp, last_path, interned = self._previous
        for url, anomaly, detected, as_path, timestamp, measurement_id in (
            records
        ):
            if measurement_id == last_id:
                measurement_id = last_id
                if timestamp == last_timestamp:
                    timestamp = last_timestamp
            else:
                last_id = measurement_id
                last_timestamp = timestamp
            # A measurement's records share one path object in a frame.
            if as_path is not last_path:
                last_path = as_path
                interned = paths.get(as_path)
                if interned is None:
                    if not as_path:
                        raise ValueError(
                            "observation requires a non-empty AS path"
                        )
                    interned = paths[as_path] = as_path
            yield (
                urls.setdefault(url, url),
                anomalies[anomaly],
                detected,
                interned,
                timestamp,
                measurement_id,
            )
        self._previous = (last_id, last_timestamp, last_path, interned)

    def decode(self, records: Iterable[Tuple]) -> Iterator[Observation]:
        """The observations of ``records``, in order."""
        by_value = _ANOMALY_BY_VALUE
        for url, anomaly, detected, as_path, timestamp, measurement_id in (
            self.records(records)
        ):
            yield _observation(
                url, by_value[anomaly], detected, as_path, timestamp,
                measurement_id,
            )


def observation_groups(
    record_groups: Iterable[List[Tuple]],
) -> List[List[Observation]]:
    """Groups of records as groups of observations, one observation per
    record object however many groups hold it."""
    by_value = _ANOMALY_BY_VALUE
    made: Dict[int, Observation] = {}
    decoded = []
    for records in record_groups:
        group = []
        for record in records:
            observation = made.get(id(record))
            if observation is None:
                url, anomaly, detected, as_path, timestamp, mid = record
                observation = made[id(record)] = _observation(
                    url, by_value[anomaly], detected, as_path, timestamp, mid
                )
            group.append(observation)
        decoded.append(group)
    return decoded


# -- problem keys ------------------------------------------------------------


def key_to_wire(key: ProblemKey) -> Tuple[str, str, str, int, int]:
    return (
        key.url,
        _VALUE_OF_ANOMALY[key.anomaly],
        _VALUE_OF_GRANULARITY[key.granularity],
        key.window.start,
        key.window.end,
    )


def key_from_wire(payload: Tuple) -> ProblemKey:
    return ProblemKey(
        url=payload[0],
        anomaly=_ANOMALY_BY_VALUE[payload[1]],
        granularity=_GRANULARITY_BY_VALUE[payload[2]],
        window=TimeWindow(payload[3], payload[4]),
    )


# -- solutions ---------------------------------------------------------------


def solution_to_wire(solution: ProblemSolution) -> Tuple:
    """A solution as a flat tuple without its key, which the carrying
    event already holds."""
    return (
        _VALUE_OF_STATUS[solution.status],
        solution.num_solutions,
        solution.capped,
        tuple(solution.observed_ases),
        tuple(solution.censors),
        tuple(solution.potential_censors),
        tuple(solution.eliminated),
        solution.clause_count,
        solution.positive_clause_count,
    )


def solution_from_wire(payload: Tuple, key: ProblemKey) -> ProblemSolution:
    return ProblemSolution(
        key=key,
        status=_STATUS_BY_VALUE[payload[0]],
        num_solutions=payload[1],
        capped=payload[2],
        observed_ases=frozenset(payload[3]),
        censors=frozenset(payload[4]),
        potential_censors=frozenset(payload[5]),
        eliminated=frozenset(payload[6]),
        clause_count=payload[7],
        positive_clause_count=payload[8],
    )


# -- verdict events ----------------------------------------------------------


def event_to_wire(event: VerdictEvent) -> Tuple:
    """One verdict event as a flat tuple.

    Index ``EVENT_SEQUENCE_INDEX`` carries the emitting engine's *local*
    sequence counter — the recovery dedup key.  The key travels once:
    an event's solution is of the event's own problem.  ``candidates``
    does not travel: it is :func:`candidates_of` the solution."""
    solution = event.solution
    return (
        _VALUE_OF_VERDICT[event.kind],
        key_to_wire(event.key),
        event.sequence,
        event.timestamp,
        event.observations_ingested,
        event.measurements_ingested,
        solution_to_wire(solution) if solution is not None else None,
        event.asn,
        event.previous_status,
    )


def event_from_wire(payload: Tuple) -> VerdictEvent:
    kind = _VERDICT_BY_VALUE[payload[0]]
    key = key_from_wire(payload[1])
    solution = (
        solution_from_wire(payload[6], key)
        if payload[6] is not None
        else None
    )
    return VerdictEvent(
        kind=kind,
        key=key,
        sequence=payload[2],
        timestamp=payload[3],
        observations_ingested=payload[4],
        measurements_ingested=payload[5],
        solution=solution,
        asn=payload[7],
        previous_status=payload[8],
        candidates=(
            candidates_of(solution) if kind in _CANDIDATE_KINDS else None
        ),
    )


# -- drained results (formats 9 and 10) --------------------------------------


def records_to_wire(
    head: PipelineResult, groups: Dict[ProblemKey, List[Tuple]]
) -> Tuple:
    """A drained result as ``(head, keys, parts)`` for a ``result`` frame.

    ``head`` is the result with no observation groups, ``groups`` its
    groups as records in key order, one record object per observation.
    ``keys`` is that order, and ``parts`` one pickled list per (URL,
    anomaly) pair, in order of the pair's first key, holding that pair's
    groups in key order.  Each ``dumps`` memo lives for one pair only;
    every group a record belongs to is in its own pair, so the pair's
    pickle keeps them sharing it."""
    by_pair: Dict[Tuple[str, Anomaly], List[List[Tuple]]] = {}
    for key, group in groups.items():
        by_pair.setdefault((key.url, key.anomaly), []).append(group)
    with paused():
        parts = tuple(
            pickle.dumps(pair, _PROTOCOL) for pair in by_pair.values()
        )
    return (head, tuple(groups), parts)


def result_to_wire(result: PipelineResult) -> Tuple:
    """:func:`records_to_wire` of a result holding observations."""
    records: Dict[int, Tuple] = {}
    groups = {}
    for key, group in result.observations_by_key.items():
        encoded = groups[key] = []
        for observation in group:
            record = records.get(id(observation))
            if record is None:
                record = records[id(observation)] = observation_to_wire(
                    observation
                )
            encoded.append(record)
    return records_to_wire(
        dataclasses.replace(result, observations_by_key={}), groups
    )


def result_from_wire(payload: Tuple) -> PipelineResult:
    """Inverse of :func:`records_to_wire`: one part unpickled and
    decoded at a time, as the keys first reach its pair, each record
    once however many groups hold it."""
    head, keys, parts = payload
    remaining = iter(parts)
    by_pair: Dict[Tuple[str, Anomaly], Iterator[List[Observation]]] = {}
    observations_by_key: Dict[ProblemKey, List[Observation]] = {}
    with paused():
        for key in keys:
            pair = (key.url, key.anomaly)
            groups = by_pair.get(pair)
            if groups is None:
                groups = by_pair[pair] = iter(
                    observation_groups(pickle.loads(next(remaining)))
                )
            observations_by_key[key] = next(groups)
    return dataclasses.replace(head, observations_by_key=observations_by_key)


# -- hello handshake ---------------------------------------------------------


def hello_frame(
    shard_index: int,
    config_payload: Dict[str, Any],
    want_events: bool,
    options: Optional[Dict[str, Any]] = None,
) -> Tuple:
    """The parent's first frame on any transport: protocol version plus
    everything a worker needs to build its engine.

    ``options`` (format 2) carries the observability switches:
    ``{"metrics": bool, "ack": bool, "spans": bool, "flight_dir": str}``
    — all optional, all telemetry-only."""
    return (
        "hello",
        WIRE_FORMAT,
        shard_index,
        config_payload,
        want_events,
        dict(options) if options else {},
    )


def check_hello(
    message: Tuple,
) -> Tuple[int, Dict[str, Any], bool, Dict[str, Any]]:
    """Validate a hello frame; returns (shard_index, config, want_events,
    options).  The options element is trailing-optional: a frame without
    it (this build's own minimal callers) yields ``{}``."""
    if not message or message[0] != "hello":
        raise WireFormatError(
            f"expected a hello frame, got {message[:1]!r}"
        )
    if message[1] != WIRE_FORMAT:
        raise WireFormatError(
            f"peer speaks wire format {message[1]!r}; this build speaks "
            f"{WIRE_FORMAT}"
        )
    options = message[5] if len(message) > 5 and message[5] else {}
    return message[2], message[3], message[4], options


def frame_trace(message: Tuple) -> Optional[Tuple]:
    """The trailing trace-context element of an ``obs`` frame or an
    ``events`` reply (format 2), or None when absent.  The context is an
    opaque tuple — minted and consumed by :mod:`repro.obs.trace` — that
    a worker echoes verbatim so the parent can close the span on its own
    clock."""
    return message[2] if len(message) > 2 else None


# -- serve vocabulary (format 3) ---------------------------------------------
#
# The multi-tenant daemon's control plane.  Data-plane frames reuse the
# shard shapes: ``("ingest", seq, [obs_tuple, ...], tallies)`` chunks
# answered by ``("ack", seq)``, ``("advance", seq, timestamp)``,
# ``("drain", seq, tallies)``, and ``("events", [event_tuple, ...])``
# pushes.  ``tallies`` is the sender's conversion tally since its last
# ingest or drain frame (a ``discard_to_dict`` payload, or ``None``).  ``seq`` is a client-monotone chunk
# counter — the daemon applies each sequence exactly once (a re-sent
# chunk at or below the applied watermark is acked but skipped), which
# is what makes reconnect-and-resend idempotent.


def attach_frame(
    campaign: str,
    config_payload: Optional[Dict[str, Any]],
    want_events: bool,
    resume_token: Optional[str] = None,
    options: Optional[Dict[str, Any]] = None,
) -> Tuple:
    """A serve client's first frame: join (or create) a campaign tenant.

    ``config_payload`` is a :class:`~repro.api.config.SessionConfig`
    dict; ``None`` attaches to an existing tenant without asserting a
    config.  ``resume_token`` is the token minted by a previous
    ``attached`` reply — presenting it proves this client owns the
    campaign and asks for the daemon's applied watermark back."""
    return (
        "attach",
        WIRE_FORMAT,
        campaign,
        config_payload,
        want_events,
        resume_token,
        dict(options) if options else {},
    )


def check_attach(
    message: Tuple,
) -> Tuple[str, Optional[Dict[str, Any]], bool, Optional[str],
           Dict[str, Any]]:
    """Validate an attach frame; returns (campaign, config, want_events,
    resume_token, options)."""
    if not message or message[0] != "attach":
        raise WireFormatError(
            f"expected an attach frame, got {message[:1]!r}"
        )
    if message[1] != WIRE_FORMAT:
        raise WireFormatError(
            f"client speaks wire format {message[1]!r}; this daemon "
            f"speaks {WIRE_FORMAT}"
        )
    if not message[2] or not isinstance(message[2], str):
        raise WireFormatError(
            f"attach needs a non-empty campaign id, got {message[2]!r}"
        )
    options = message[6] if len(message) > 6 and message[6] else {}
    return message[2], message[3], message[4], message[5], options


def attached_frame(
    campaign: str,
    resume_token: str,
    applied_seq: int,
    options: Optional[Dict[str, Any]] = None,
) -> Tuple:
    """The daemon's attach reply: the tenant's resume token and its
    applied chunk watermark (the client re-sends everything above it).

    ``options`` carries the tenant's conversion settings,
    ``{"anomalies": [anomaly value, ...], "chunk_size": int}``, which a
    client that attached without a config adopts."""
    return (
        "attached",
        WIRE_FORMAT,
        campaign,
        resume_token,
        applied_seq,
        dict(options) if options else {},
    )


def check_attached(message: Tuple) -> Tuple[str, str, int, Dict[str, Any]]:
    """Validate an attached reply; returns (campaign, resume_token,
    applied_seq, options)."""
    if not message or message[0] != "attached":
        raise WireFormatError(
            f"expected an attached reply, got {message[:1]!r}"
        )
    if message[1] != WIRE_FORMAT:
        raise WireFormatError(
            f"daemon speaks wire format {message[1]!r}; this client "
            f"speaks {WIRE_FORMAT}"
        )
    options = message[5] if len(message) > 5 and message[5] else {}
    return message[2], message[3], message[4], options


def subscribe_frame(campaign: str, from_sequence: int = 0) -> Tuple:
    """Ask for a campaign's verdict-event stream, replayed from (and
    excluding) ``from_sequence`` — the reconnect cursor: a subscriber
    that saw sequence N resubscribes with N and never double-sees."""
    return ("subscribe", WIRE_FORMAT, campaign, from_sequence)


def check_subscribe(message: Tuple) -> Tuple[str, int]:
    """Validate a subscribe frame; returns (campaign, from_sequence)."""
    if not message or message[0] != "subscribe":
        raise WireFormatError(
            f"expected a subscribe frame, got {message[:1]!r}"
        )
    if message[1] != WIRE_FORMAT:
        raise WireFormatError(
            f"subscriber speaks wire format {message[1]!r}; this daemon "
            f"speaks {WIRE_FORMAT}"
        )
    return message[2], message[3]


def subscribed_frame(campaign: str, last_sequence: int) -> Tuple:
    """The daemon's subscribe ack: the highest event sequence it has
    buffered for replay (0 when the tenant has emitted nothing)."""
    return ("subscribed", campaign, last_sequence)


def checkpoint_ack_frame(applied_seq: int) -> Tuple:
    """Daemon → client after a *durable* tenant checkpoint.

    Distinct from the per-chunk ``ack`` on purpose: an ack only means
    "applied in memory" (flow control); a checkpoint_ack means the state
    survives a daemon restart, so the client may drop every buffered
    chunk at or below ``applied_seq``."""
    return ("checkpoint_ack", applied_seq)


# -- rebalance vocabulary (format 4) -----------------------------------------
#
# Live bucket migration between shards.  All four frames carry the
# destination PartitionMap epoch.  begin/transfer/commit mutate worker
# state and are replay-logged like obs chunks (each answered by a
# generic ("ok",)); slice_fetch is a read-only request answered by
# ("slice", epoch, state_dict) and is re-sent, never replayed, after a
# recovery — the replayed begin frame rebuilds the stash it reads.


def rebalance_begin_frame(epoch: int, pairs: Tuple) -> Tuple:
    """Extract ``pairs`` — ``((url, anomaly_value), ...)`` — from the
    worker's live engine and stash the slice under ``epoch``."""
    return ("rebalance_begin", epoch, tuple(pairs))


def slice_fetch_frame(epoch: int) -> Tuple:
    """Read back the slice stashed by ``rebalance_begin`` for ``epoch``."""
    return ("slice_fetch", epoch)


def slice_transfer_frame(epoch: int, state: Dict[str, Any]) -> Tuple:
    """Adopt ``state`` (a checkpoint-format slice) into the live engine."""
    return ("slice_transfer", epoch, state)


def rebalance_commit_frame(epoch: int) -> Tuple:
    """Drop every stashed slice at or below ``epoch`` (migration done)."""
    return ("rebalance_commit", epoch)


def check_hello_ack(message: Tuple) -> None:
    """Validate a worker's hello reply."""
    if not message or message[0] != "hello":
        raise WireFormatError(
            f"expected a hello ack, got {message[:1]!r}"
        )
    if message[1] != WIRE_FORMAT:
        raise WireFormatError(
            f"worker speaks wire format {message[1]!r}; this build "
            f"speaks {WIRE_FORMAT}"
        )


__all__ = [
    "WIRE_FORMAT",
    "EVENT_SEQUENCE_INDEX",
    "OBSERVATION_TIMESTAMP_INDEX",
    "WireFormatError",
    "encode",
    "decode",
    "observation_to_wire",
    "observation_record",
    "ObservationDecoder",
    "observation_groups",
    "key_to_wire",
    "key_from_wire",
    "solution_to_wire",
    "solution_from_wire",
    "event_to_wire",
    "event_from_wire",
    "records_to_wire",
    "result_to_wire",
    "result_from_wire",
    "hello_frame",
    "check_hello",
    "check_hello_ack",
    "frame_trace",
    "attach_frame",
    "check_attach",
    "attached_frame",
    "check_attached",
    "subscribe_frame",
    "check_subscribe",
    "subscribed_frame",
    "checkpoint_ack_frame",
    "rebalance_begin_frame",
    "slice_fetch_frame",
    "slice_transfer_frame",
    "rebalance_commit_frame",
]
