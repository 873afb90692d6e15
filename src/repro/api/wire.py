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
"""

from __future__ import annotations

import pickle
from typing import Any, Dict, Optional, Tuple

from repro.anomaly import Anomaly
from repro.core.observations import Observation, _observation
from repro.core.problem import ProblemSolution, SolutionStatus
from repro.core.splitting import Granularity, ProblemKey
from repro.stream.events import VerdictEvent, VerdictKind
from repro.util.collector import paused
from repro.util.timeutil import TimeWindow

WIRE_FORMAT = 5

_PROTOCOL = pickle.HIGHEST_PROTOCOL

# Index of the shard-local sequence inside an event tuple — the parent's
# recovery dedup filters on it without decoding the whole event.
EVENT_SEQUENCE_INDEX = 2

# Enum lookups by value go through EnumType.__call__ — far too slow for
# a per-observation decode path.  Plain dict lookups instead.
_ANOMALY_BY_VALUE = {member.value: member for member in Anomaly}
_GRANULARITY_BY_VALUE = {member.value: member for member in Granularity}


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


def observation_to_wire(
    observation: Observation, anomaly_value: Optional[str] = None
) -> Tuple:
    """One observation as a flat tuple (no keys on the wire).

    ``anomaly_value`` lets a hot loop that already resolved the enum's
    ``.value`` (a descriptor call) pass it in — there is exactly one
    encoder for the layout either way."""
    return (
        observation.url,
        anomaly_value if anomaly_value is not None
        else observation.anomaly.value,
        observation.detected,
        observation.as_path,
        observation.timestamp,
        observation.measurement_id,
    )


def observation_from_wire(payload: Tuple) -> Observation:
    return _observation(
        payload[0],
        _ANOMALY_BY_VALUE[payload[1]],
        payload[2],
        tuple(payload[3]),
        payload[4],
        payload[5],
    )


# -- problem keys ------------------------------------------------------------


def key_to_wire(key: ProblemKey) -> Tuple[str, str, str, int, int]:
    return (
        key.url,
        key.anomaly.value,
        key.granularity.value,
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
    return (
        key_to_wire(solution.key),
        solution.status.value,
        solution.num_solutions,
        solution.capped,
        tuple(solution.observed_ases),
        tuple(solution.censors),
        tuple(solution.potential_censors),
        tuple(solution.eliminated),
        solution.clause_count,
        solution.positive_clause_count,
    )


def solution_from_wire(payload: Tuple) -> ProblemSolution:
    return ProblemSolution(
        key=key_from_wire(payload[0]),
        status=SolutionStatus(payload[1]),
        num_solutions=payload[2],
        capped=payload[3],
        observed_ases=frozenset(payload[4]),
        censors=frozenset(payload[5]),
        potential_censors=frozenset(payload[6]),
        eliminated=frozenset(payload[7]),
        clause_count=payload[8],
        positive_clause_count=payload[9],
    )


# -- verdict events ----------------------------------------------------------


def event_to_wire(event: VerdictEvent) -> Tuple:
    """One verdict event as a flat tuple.

    Index ``EVENT_SEQUENCE_INDEX`` carries the emitting engine's *local*
    sequence counter — the recovery dedup key."""
    return (
        event.kind.value,
        key_to_wire(event.key),
        event.sequence,
        event.timestamp,
        event.observations_ingested,
        event.measurements_ingested,
        (
            solution_to_wire(event.solution)
            if event.solution is not None
            else None
        ),
        event.asn,
        event.previous_status,
        (
            tuple(event.candidates)
            if event.candidates is not None
            else None
        ),
    )


def event_from_wire(payload: Tuple) -> VerdictEvent:
    return VerdictEvent(
        kind=VerdictKind(payload[0]),
        key=key_from_wire(payload[1]),
        sequence=payload[2],
        timestamp=payload[3],
        observations_ingested=payload[4],
        measurements_ingested=payload[5],
        solution=(
            solution_from_wire(payload[6])
            if payload[6] is not None
            else None
        ),
        asn=payload[7],
        previous_status=payload[8],
        candidates=(
            frozenset(payload[9]) if payload[9] is not None else None
        ),
    )


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
# shard shapes: ``("ingest", seq, [obs_tuple, ...])`` chunks answered by
# ``("ack", seq)``, ``("advance", seq, timestamp)``, and ``("events",
# [event_tuple, ...])`` pushes.  ``seq`` is a client-monotone chunk
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
    applied chunk watermark (the client re-sends everything above it)."""
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
    "WireFormatError",
    "encode",
    "decode",
    "observation_to_wire",
    "observation_from_wire",
    "key_to_wire",
    "key_from_wire",
    "solution_to_wire",
    "solution_from_wire",
    "event_to_wire",
    "event_from_wire",
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
