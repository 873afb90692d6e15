"""Serializing and restoring a :class:`StreamingLocalizer` mid-campaign.

The engine's drain-relevant state is exactly its per-problem data — each
(URL, anomaly, window) problem's observation sequence (from which the
clause ledger and its closure are deterministic replays), the creation
order, which windows have closed and with what final solution — plus
the stream watermark and the bookkeeping counters.
:func:`engine_state` captures all of it as one JSON-compatible dict;
:func:`restore_engine` rebuilds a live engine from it by replaying each
problem's observations through a fresh :class:`ProblemState` (the ledgers
come back bit-for-bit because they are pure folds over the observation
sequence, and so does each closure, which is a pure fold over its ledger).

The guarantee the property tests pin: for an in-order stream,

    ingest k events → engine_state → restore_engine → ingest the rest

drains to a :class:`PipelineResult` byte-identical to the uninterrupted
run.  The solve cache and conversion memos are deliberately *not*
serialized — they are perf memos whose absence changes wall time, never
bytes.  Each problem's ``last_solution`` verdict snapshot *is* carried
(the ``verdict`` entry, absent/None in historical checkpoints): it is
what the event-delta detection compares against, so restoring it makes
the post-restore event stream — kinds, ``previous_status``, sequences —
identical to the uninterrupted run's, which is the property the sharded
backend's dead-shard recovery dedups replayed events by.

For out-of-order streams one caveat applies: the close order of two
still-open windows sharing an end timestamp is creation order after a
restore, whereas a window reopened by a late observation before the
checkpoint would have closed *after* its same-end peers.  Close order
affects event emission order only — never the drained bytes.
"""

from __future__ import annotations

import heapq
from typing import Any, Dict, Iterable, List, Optional, Set, Tuple

from repro.core.aspath import InconclusiveReason
from repro.core.observations import DiscardStats
from repro.core.problem import SolutionStatus
from repro.core.pipeline import (
    PipelineConfig,
    observation_from_dict,
    observation_to_dict,
    problem_key_from_dict,
    problem_key_to_dict,
    solution_from_dict,
    solution_to_dict,
)
from repro.stream.engine import CensorIdentification, StreamingLocalizer
from repro.stream.state import ProblemState, StreamStats
from repro.topology.ip2as import IpToAsDatabase

STATE_FORMAT = 1


def discard_to_dict(discard: DiscardStats) -> Dict[str, Any]:
    """One :class:`DiscardStats` as JSON (reason keys sorted)."""
    return {
        "total": discard.total,
        "converted": discard.converted,
        "discarded_by_reason": {
            reason.value: count
            for reason, count in sorted(
                discard.discarded_by_reason.items(),
                key=lambda item: item[0].value,
            )
        },
    }


def discard_from_dict(payload: Dict[str, Any]) -> DiscardStats:
    return DiscardStats(
        total=payload["total"],
        converted=payload["converted"],
        discarded_by_reason={
            InconclusiveReason(reason): count
            for reason, count in payload["discarded_by_reason"].items()
        },
    )


def identification_to_dict(
    identification: CensorIdentification,
) -> Dict[str, Any]:
    return {
        "asn": identification.asn,
        "key": problem_key_to_dict(identification.key),
        "timestamp": identification.timestamp,
        "observations_ingested": identification.observations_ingested,
        "measurements_ingested": identification.measurements_ingested,
        "sequence": identification.sequence,
    }


def identification_from_dict(payload: Dict[str, Any]) -> CensorIdentification:
    return CensorIdentification(
        asn=payload["asn"],
        key=problem_key_from_dict(payload["key"]),
        timestamp=payload["timestamp"],
        observations_ingested=payload["observations_ingested"],
        measurements_ingested=payload["measurements_ingested"],
        sequence=payload["sequence"],
    )


def state_slice(
    problems: List[Dict[str, Any]],
    watermark: Optional[int] = None,
    sequence: int = 0,
    confirmed: Optional[Dict[str, int]] = None,
    identifications: Optional[List[Dict[str, Any]]] = None,
    stats: Optional[Dict[str, int]] = None,
) -> Dict[str, Any]:
    """A partial engine state in the :data:`STATE_FORMAT` layout.

    The sharded backend's restore/recovery paths ship each worker a
    *slice* of a merged state — its own problems plus whichever counters
    make sense for the slice (zeroed by default).  Building the document
    here keeps every producer of the format in one module.
    """
    return {
        "format": STATE_FORMAT,
        "watermark": watermark,
        "sequence": sequence,
        "last_measurement_id": None,
        "stats": dict(stats) if stats is not None else StreamStats().as_dict(),
        "discard": discard_to_dict(DiscardStats()),
        "confirmed": dict(confirmed) if confirmed is not None else {},
        "identifications": (
            list(identifications) if identifications is not None else []
        ),
        "problems": problems,
    }


def engine_state(engine: StreamingLocalizer) -> Dict[str, Any]:
    """The engine's full resumable state as a JSON-compatible dict."""
    problems: List[Dict[str, Any]] = []
    records = engine.problem_records()
    for bucket, (key, observations, closed, solution) in zip(
        engine._order, records
    ):
        verdict = engine._states[bucket].last_solution
        problems.append(
            {
                "key": problem_key_to_dict(key),
                "observations": [
                    observation_to_dict(observation)
                    for observation in observations
                ],
                "closed": closed,
                "solution": (
                    solution_to_dict(solution)
                    if solution is not None
                    else None
                ),
                "verdict": (
                    solution_to_dict(verdict)
                    if verdict is not None
                    else None
                ),
            }
        )
    return {
        "format": STATE_FORMAT,
        "watermark": engine.watermark,
        "sequence": engine._sequence,
        "last_measurement_id": engine._last_measurement_id,
        "stats": engine.stats.as_dict(),
        "discard": discard_to_dict(engine._discard),
        "confirmed": {
            str(asn): count for asn, count in sorted(engine._confirmed.items())
        },
        "identifications": [
            identification_to_dict(identification)
            for identification in engine.identifications
        ],
        "problems": problems,
    }


def restore_engine(
    state: Dict[str, Any],
    ip2as: Optional[IpToAsDatabase],
    country_by_asn: Dict[int, str],
    config: PipelineConfig = PipelineConfig(),
    late_policy: str = "reopen",
) -> StreamingLocalizer:
    """Rebuild a live engine from :func:`engine_state` output.

    ``config`` and ``late_policy`` must match the checkpointed engine's —
    they are part of the session config the checkpoint file carries, not
    of the engine state itself.  ``ip2as`` may be None when the restored
    engine will only ever see pre-converted observations (the sharded
    backend's workers run this way).
    """
    if state.get("format") != STATE_FORMAT:
        raise ValueError(
            f"unsupported engine-state format {state.get('format')!r} "
            f"(this build reads format {STATE_FORMAT})"
        )
    engine = StreamingLocalizer(
        ip2as=ip2as,
        country_by_asn=country_by_asn,
        config=config,
        late_policy=late_policy,
    )
    for entry in state["problems"]:
        key = problem_key_from_dict(entry["key"])
        bucket = engine._bucket_of(key)
        problem = ProblemState(key, config.solution_cap)
        for payload in entry["observations"]:
            problem.add(observation_from_dict(payload))
        verdict = entry.get("verdict")
        if verdict is not None:
            problem.last_solution = solution_from_dict(verdict)
        engine._states[bucket] = problem
        engine._keys[bucket] = key
        engine._order.append(bucket)
        if entry["closed"]:
            engine._final[bucket] = (
                solution_from_dict(entry["solution"])
                if entry["solution"] is not None
                else None
            )
        else:
            heapq.heappush(
                engine._heap, (key.window.end, engine._tie, bucket)
            )
        engine._tie += 1
    engine._watermark = state["watermark"]
    engine._sequence = state["sequence"]
    engine._last_measurement_id = state["last_measurement_id"]
    engine.stats = StreamStats(**state["stats"])
    engine._discard = discard_from_dict(state["discard"])
    engine._confirmed = {
        int(asn): count for asn, count in state["confirmed"].items()
    }
    engine.identifications = [
        identification_from_dict(entry)
        for entry in state["identifications"]
    ]
    return engine


def confirmed_from_problems(
    problems: Iterable[Dict[str, Any]],
) -> Dict[str, int]:
    """Confirmed-censor counts implied by a slice's closed windows.

    Mirrors the engine's close-time accounting: a satisfiable closed
    window confirms exactly its solution's censors; unsatisfiable (and
    skipped anomaly-free) windows confirm none.  Keys are stringified
    ASNs, matching the :data:`STATE_FORMAT` ``confirmed`` section.
    """
    confirmed: Dict[int, int] = {}
    unsat = SolutionStatus.UNSATISFIABLE.value
    for entry in problems:
        solution = entry.get("solution")
        if not entry.get("closed") or solution is None:
            continue
        if solution["status"] == unsat:
            continue
        for asn in solution["censors"]:
            confirmed[asn] = confirmed.get(asn, 0) + 1
    return {str(asn): count for asn, count in sorted(confirmed.items())}


def split_state(
    state: Dict[str, Any], placement, shards: Optional[int] = None
) -> List[Dict[str, Any]]:
    """Partition a merged engine state into per-shard restore slices.

    ``placement`` is anything with ``shard_for(url, anomaly_value)`` —
    in practice a :class:`~repro.api.placement.PartitionMap` (duck-typed
    here so the stream layer never imports the api layer).  Each slice
    is a complete :data:`STATE_FORMAT` document: the shard's problems in
    the merged state's (global creation) order, with the confirmed
    counts its closed windows imply re-derived — the invariant that
    keeps late reopens after a restore decrementing real counts.
    """
    if shards is None:
        shards = placement.shards
    per_shard: List[List[Dict[str, Any]]] = [[] for _ in range(shards)]
    for entry in state["problems"]:
        shard = placement.shard_for(
            entry["key"]["url"], entry["key"]["anomaly"]
        )
        per_shard[shard].append(entry)
    return [
        state_slice(
            problems,
            watermark=state["watermark"],
            confirmed=confirmed_from_problems(problems),
        )
        for problems in per_shard
    ]


def extract_slice(
    engine: StreamingLocalizer, pairs: Iterable[Tuple[str, str]]
) -> Dict[str, Any]:
    """Remove every problem of the given (URL, anomaly-value) pairs from
    a *live* engine and return them as a :data:`STATE_FORMAT` slice.

    The rebalance source path: the returned slice carries the removed
    problems (all granularities, open and closed — a pair's windows must
    move together or a late reopen could split ownership), the confirmed
    counts those closed windows were supporting (decremented here, so
    the source's counts stay exact), and the identification log entries
    whose window moved.  Event sequences, stats counters, and the
    watermark are deliberately untouched: the source counted the opens,
    the destination will count the closes, and the merged totals stay
    what an uninterrupted run would report.

    The extraction is a pure function of the engine's problem state, so
    replaying a logged ``rebalance_begin`` frame after a worker death
    rebuilds an identical slice.
    """
    wanted: Set[Tuple[str, str]] = set(pairs)
    removed: Set[Tuple] = set()
    problems: List[Dict[str, Any]] = []
    for bucket in engine._order:
        anomaly, url, _, _ = bucket
        if (url, anomaly.value) not in wanted:
            continue
        removed.add(bucket)
        key = engine._keys[bucket]
        state = engine._states[bucket]
        closed = bucket in engine._final
        solution = engine._final.get(bucket)
        verdict = state.last_solution
        problems.append(
            {
                "key": problem_key_to_dict(key),
                "observations": [
                    observation_to_dict(observation)
                    for observation in state.observations
                ],
                "closed": closed,
                "solution": (
                    solution_to_dict(solution)
                    if solution is not None
                    else None
                ),
                "verdict": (
                    solution_to_dict(verdict)
                    if verdict is not None
                    else None
                ),
            }
        )
    confirmed = confirmed_from_problems(problems)
    identifications: List[Dict[str, Any]] = []
    if removed:
        engine._order = [
            bucket for bucket in engine._order if bucket not in removed
        ]
        for bucket in removed:
            del engine._states[bucket]
            del engine._keys[bucket]
            engine._final.pop(bucket, None)
        # Open moved problems still sit in the close heap; a stale entry
        # for a bucket no longer in _states would crash _close_due, so
        # filter and re-heapify (ties are preserved, hence so is the
        # close order of everything that stays).
        engine._heap = [
            entry for entry in engine._heap if entry[2] not in removed
        ]
        heapq.heapify(engine._heap)
        for asn, count in confirmed.items():
            engine._confirmed[int(asn)] = (
                engine._confirmed.get(int(asn), 0) - count
            )
        keep: List = []
        for identification in engine.identifications:
            key = identification.key
            if (key.url, key.anomaly.value) in wanted:
                identifications.append(
                    identification_to_dict(identification)
                )
            else:
                keep.append(identification)
        engine.identifications = keep
    return state_slice(
        problems,
        watermark=engine.watermark,
        confirmed=confirmed,
        identifications=identifications,
    )


def adopt_slice(
    engine: StreamingLocalizer, state: Dict[str, Any]
) -> None:
    """Merge a slice from :func:`extract_slice` into a *live* engine.

    The rebalance destination path: the mirror of
    :func:`restore_engine`'s per-problem insert, but additive — existing
    problems, counters, the watermark, and the event sequence are left
    alone, and ``problems_opened`` is *not* bumped (the source already
    counted these opens).  Closed windows arrive closed with their final
    solutions; open ones enter the close heap and will close when this
    engine's watermark passes their end — which, for an in-order stream,
    can only happen once no further observation can land inside them.
    """
    if state.get("format") != STATE_FORMAT:
        raise ValueError(
            f"unsupported slice format {state.get('format')!r} "
            f"(this build reads format {STATE_FORMAT})"
        )
    cap = engine.config.solution_cap
    for entry in state["problems"]:
        key = problem_key_from_dict(entry["key"])
        bucket = engine._bucket_of(key)
        if bucket in engine._states:
            raise ValueError(
                f"slice transfer would duplicate problem {key} — the "
                f"destination already owns this window"
            )
        problem = ProblemState(key, cap)
        for payload in entry["observations"]:
            problem.add(observation_from_dict(payload))
        verdict = entry.get("verdict")
        if verdict is not None:
            problem.last_solution = solution_from_dict(verdict)
        engine._states[bucket] = problem
        engine._keys[bucket] = key
        engine._order.append(bucket)
        if entry["closed"]:
            engine._final[bucket] = (
                solution_from_dict(entry["solution"])
                if entry["solution"] is not None
                else None
            )
        else:
            heapq.heappush(
                engine._heap, (key.window.end, engine._tie, bucket)
            )
        engine._tie += 1
    for asn, count in state.get("confirmed", {}).items():
        engine._confirmed[int(asn)] = (
            engine._confirmed.get(int(asn), 0) + count
        )
    for entry in state.get("identifications", []):
        engine.identifications.append(identification_from_dict(entry))


def state_summary(state: Dict[str, Any]) -> Dict[str, Any]:
    """A one-glance digest of an :func:`engine_state` document.

    What an operator surface (the serve daemon's resume log line, a
    status endpoint) wants to say about a checkpoint without decoding
    the problem bodies: window counts, the stream watermark, and how
    much the engine had ingested.
    """
    problems = state.get("problems", [])
    closed = sum(1 for entry in problems if entry.get("closed"))
    stats = state.get("stats", {})
    return {
        "problems": len(problems),
        "open": len(problems) - closed,
        "closed": closed,
        "watermark": state.get("watermark"),
        "observations": stats.get("observations", 0),
        "measurements": stats.get("measurements", 0),
    }


__all__ = [
    "STATE_FORMAT",
    "adopt_slice",
    "confirmed_from_problems",
    "engine_state",
    "extract_slice",
    "restore_engine",
    "split_state",
    "state_slice",
    "state_summary",
    "discard_to_dict",
    "discard_from_dict",
    "identification_to_dict",
    "identification_from_dict",
]
