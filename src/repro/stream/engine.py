"""The online streaming localization engine.

:class:`StreamingLocalizer` ingests measurement events one at a time and
maintains every open (URL, anomaly, window) tomography problem
incrementally: each observation appends at most one path to its
problems' ledgers and grows their set-algebra closure (the batch solve's
:class:`~repro.core.problem.Closure`) in place, and verdict-delta events
go out to subscribers as the candidate sets tighten.  A verdict is built
only for an event: between events each problem tracks just its status
and candidate count (:meth:`~repro.stream.state.ProblemState.track`).
Windows are keyed and bucketed exactly like the batch splitter
(:func:`repro.core.splitting.window_start`), close as the stream
watermark passes their end, and confirm censors only at close — so a
confirmed identification can never be retracted by a later in-order
event (the verdict-monotonicity invariant).

Draining a full campaign through the engine produces a
:class:`~repro.core.pipeline.PipelineResult` byte-identical to
``LocalizationPipeline.run`` over the same measurements: the ledgers, the
final solve (:func:`~repro.core.problem.solve_ledger`), and the report
assembly (:func:`~repro.core.pipeline.assemble_result`) are the very same
code both ways.  The equivalence guard in ``tests/test_stream.py`` pins
this on the tiny and small presets.
"""

from __future__ import annotations

import heapq
import logging
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.anomaly import Anomaly
from repro.core.observations import (
    DiscardStats,
    Observation,
    observations_of,
)
from repro.core.pipeline import PipelineConfig, PipelineResult, assemble_result
from repro.core.problem import ProblemSolution, ProblemSolveCache, SolutionStatus
from repro.core.splitting import ProblemKey, window_start
from repro.iclab.measurement import Measurement
from repro.obs import log as obslog
from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import SpanRecorder, TRACK_ENGINE
from repro.stream.events import (
    Subscriber,
    VerdictEvent,
    VerdictKind,
    candidates_of,
)
from repro.stream.state import ProblemState, StreamStats
from repro.topology.ip2as import IpToAsDatabase
from repro.util.timeutil import TimeWindow

# How an observation falling inside an already-closed window is handled:
# "reopen" withdraws the window's confirmation (emitting CENSOR_RETRACTED
# for identifications that lose their last support) and re-closes it at
# the next watermark advance; "error" raises StreamOrderError.  In-order
# sources — the drip feed and dataset replay — never trigger either.
LATE_REOPEN = "reopen"
LATE_ERROR = "error"

# Buckets mirror repro.core.splitting exactly: (anomaly, url,
# granularity index, window start).
_Bucket = Tuple[Anomaly, str, int, int]


class StreamOrderError(ValueError):
    """A late observation arrived for a closed window (policy "error")."""


_log = obslog.get_logger("stream.engine")


@dataclass(frozen=True)
class CensorIdentification:
    """One confirmed identification, for the time-to-localization report."""

    asn: int
    key: ProblemKey
    timestamp: int               # stream watermark at confirmation
    observations_ingested: int
    measurements_ingested: int
    sequence: int


class StreamingLocalizer:
    """Online localization over a stream of measurements/observations."""

    def __init__(
        self,
        ip2as: IpToAsDatabase,
        country_by_asn: Dict[int, str],
        config: PipelineConfig = PipelineConfig(),
        late_policy: str = LATE_REOPEN,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        if late_policy not in (LATE_REOPEN, LATE_ERROR):
            raise ValueError(f"unknown late policy: {late_policy!r}")
        self.ip2as = ip2as
        self.country_by_asn = dict(country_by_asn)
        self.config = config
        self.late_policy = late_policy
        self.stats = StreamStats()
        self.identifications: List[CensorIdentification] = []
        self._granularities = list(config.granularities)
        self._sizes = [
            (index, granularity.seconds)
            for index, granularity in enumerate(self._granularities)
        ]
        self._cache = ProblemSolveCache()
        self._states: Dict[_Bucket, ProblemState] = {}
        self._keys: Dict[_Bucket, ProblemKey] = {}
        self._order: List[_Bucket] = []           # creation order (= batch)
        self._final: Dict[_Bucket, Optional[ProblemSolution]] = {}
        self._heap: List[Tuple[int, int, _Bucket]] = []  # (end, tie, bucket)
        self._tie = 0
        self._watermark: Optional[int] = None
        self._sequence = 0
        self._confirmed: Dict[int, int] = {}      # asn → closed confirmations
        self._subscribers: List[Subscriber] = []
        self._discard = DiscardStats()
        self._conversion_cache: Dict = {}
        self._drained: Optional[PipelineResult] = None
        self._last_measurement_id: Optional[int] = None
        self._metrics: Optional[MetricsRegistry] = None
        self._event_counters: Dict = {}
        self._spans: Optional[SpanRecorder] = None
        self._spans_track = TRACK_ENGINE
        if metrics is not None:
            self.attach_metrics(metrics)

    # -- observability ----------------------------------------------------

    def attach_metrics(self, registry: MetricsRegistry) -> None:
        """Export this engine's telemetry through ``registry``.

        Hot paths stay untouched: everything the engine already counts
        (:class:`StreamStats`, the solve cache's :class:`SolveStats`,
        open/closed problem totals) is exported by a snapshot-time
        *collector*, so steady-state ingestion pays nothing.  The only
        live instruments are the per-kind verdict-event counters bumped
        in ``_emit`` — which only runs with subscribers attached.  One
        engine per registry; a restored engine re-attaching replaces its
        predecessor's collector.
        """
        self._metrics = registry
        self._event_counters = {}
        registry.add_collector(self._collect_metrics, key="stream-engine")

    def attach_spans(
        self, recorder: SpanRecorder, track: str = TRACK_ENGINE
    ) -> None:
        """Record solve (window-close) and drain spans into ``recorder``.

        Telemetry only, same contract as :meth:`attach_metrics`: span
        recording never influences solutions, events, or the drain.
        """
        self._spans = recorder
        self._spans_track = track

    def _collect_metrics(self, registry: MetricsRegistry) -> None:
        gauge = registry.gauge
        for name, value in self.stats.as_dict().items():
            gauge(f"repro_stream_{name}").set(value)
        gauge("repro_stream_open_problems").set(self.open_problems)
        gauge("repro_stream_closed_problems").set(self.closed_problems)
        solve = self._cache.stats
        for name, value in solve.as_dict().items():
            gauge(f"repro_solve_{name}").set(value)
        if solve.problems:
            gauge("repro_solve_signature_hit_ratio").set(
                solve.signature_hits / solve.problems
            )
            gauge("repro_solve_propagation_ratio").set(
                solve.propagation_decided / solve.problems
            )

    # -- subscriptions ----------------------------------------------------

    def subscribe(self, subscriber: Subscriber) -> None:
        """Register a callback for every verdict-delta event."""
        self._subscribers.append(subscriber)

    def _emit(self, event: VerdictEvent) -> None:
        self.stats.events_emitted += 1
        if self._metrics is not None:
            counter = self._event_counters.get(event.kind)
            if counter is None:
                counter = self._event_counters[event.kind] = (
                    self._metrics.counter(
                        "repro_events_total",
                        {"event_kind": event.kind.value},
                    )
                )
            counter.inc()
        for subscriber in self._subscribers:
            subscriber(event)

    def _next_sequence(self) -> int:
        self._sequence += 1
        return self._sequence

    # -- querying ---------------------------------------------------------

    @property
    def watermark(self) -> Optional[int]:
        """Largest timestamp ingested so far (None before any event)."""
        return self._watermark

    @property
    def open_problems(self) -> int:
        """Problems whose windows have not closed yet."""
        return len(self._states) - len(self._final)

    @property
    def closed_problems(self) -> int:
        return len(self._final)

    @property
    def identified_censor_asns(self) -> List[int]:
        """Distinct *confirmed* censoring ASNs, sorted.

        Only closed windows confirm; this set therefore only grows under
        in-order ingestion, and after :meth:`drain` it equals the batch
        pipeline's ``identified_censor_asns`` exactly.
        """
        return sorted(
            asn for asn, count in self._confirmed.items() if count > 0
        )

    def _bucket_of(self, key: ProblemKey) -> _Bucket:
        index = self._granularities.index(key.granularity)
        return (key.anomaly, key.url, index, key.window.start)

    # -- ingestion --------------------------------------------------------

    def ingest_measurement(self, measurement: Measurement) -> None:
        """Convert one measurement and ingest its per-anomaly observations.

        Conversion and discard semantics are shared with the batch
        pipeline (:func:`repro.core.observations.observations_of`), so a
        replayed dataset produces the exact observation stream
        ``build_observations`` would.
        """
        if self._drained is not None:
            raise RuntimeError("engine already drained")
        self.stats.measurements += 1
        self._last_measurement_id = measurement.measurement_id
        observations = observations_of(
            measurement,
            self.ip2as,
            anomalies=self.config.anomalies,
            stats=self._discard,
            conversion_cache=self._conversion_cache,
        )
        if not observations:
            self.stats.discarded_measurements += 1
            return
        for observation in observations:
            self.ingest_observation(observation, _count_measurement=False)

    def ingest_observation(
        self, observation: Observation, _count_measurement: bool = True
    ) -> None:
        """Ingest one pre-converted observation.

        Direct observation feeds count one *measurement* per distinct
        ``measurement_id`` (a measurement's per-anomaly observations
        arrive contiguously from every supported source), so the
        time-to-localization x-axis stays in measurement units either
        way.
        """
        if self._drained is not None:
            raise RuntimeError("engine already drained")
        timestamp = observation.timestamp
        if timestamp < 0:
            raise ValueError(f"negative timestamp: {timestamp}")
        if (
            _count_measurement
            and observation.measurement_id != self._last_measurement_id
        ):
            self.stats.measurements += 1
            self._last_measurement_id = observation.measurement_id
        self.stats.observations += 1
        if self._watermark is None or timestamp > self._watermark:
            self._watermark = timestamp
        self._close_due()
        url = observation.url
        anomaly = observation.anomaly
        for index, size in self._sizes:
            start = window_start(timestamp, size)
            bucket = (anomaly, url, index, start)
            state = self._states.get(bucket)
            if state is None:
                if (
                    self.late_policy == LATE_ERROR
                    and start + size <= self._watermark
                ):
                    # A window that should already be closed is opening
                    # late: the stream is out of order even though the
                    # bucket never held data.
                    raise StreamOrderError(
                        f"late observation at t={timestamp} for already-"
                        f"elapsed window [{start}, {start + size})"
                    )
                state = self._open_problem(bucket, start, size)
            elif bucket in self._final:
                self._reopen(bucket, timestamp)
            self._apply(bucket, state, observation, timestamp)

    def advance(self, timestamp: int) -> None:
        """Push the stream watermark forward without an observation.

        Closes every window ending at or before ``timestamp`` — e.g. the
        end-of-campaign clock tick, or a keep-alive in a live deployment.
        """
        if self._watermark is None or timestamp > self._watermark:
            self._watermark = timestamp
        self._close_due()

    def merge_discard_stats(self, stats: DiscardStats) -> None:
        """Fold in conversion/discard tallies made outside the engine.

        Sources that pre-convert measurements themselves (e.g. the
        no-churn ablation replay, which must filter *observations* before
        ingestion) record their conversion outcomes here so the drained
        result's ``discard_stats`` matches the batch pipeline's.
        """
        self._discard.merge(stats)

    # -- internals --------------------------------------------------------

    def _open_problem(
        self, bucket: _Bucket, start: int, size: int
    ) -> ProblemState:
        anomaly, url, index, _ = bucket
        key = ProblemKey(
            url=url,
            anomaly=anomaly,
            granularity=self._granularities[index],
            window=TimeWindow(start, start + size),
        )
        state = ProblemState(key, self.config.solution_cap)
        self._states[bucket] = state
        self._keys[bucket] = key
        self._order.append(bucket)
        heapq.heappush(self._heap, (start + size, self._tie, bucket))
        self._tie += 1
        self.stats.problems_opened += 1
        return state

    def _apply(
        self,
        bucket: _Bucket,
        state: ProblemState,
        observation: Observation,
        timestamp: int,
    ) -> None:
        if not state.add(observation):
            return
        self.stats.clauses_appended += 1
        if not self._subscribers:
            return  # verdict deltas are only computed for listeners
        previous = state.status
        kind = state.track(observation, self.stats)
        if kind is None:
            return
        solution = state.last_solution
        self._emit(
            VerdictEvent(
                kind=kind,
                key=self._keys[bucket],
                sequence=self._next_sequence(),
                timestamp=timestamp,
                observations_ingested=self.stats.observations,
                measurements_ingested=self.stats.measurements,
                solution=solution,
                previous_status=(
                    previous.value
                    if previous is not None
                    and kind is VerdictKind.STATUS_CHANGED
                    else None
                ),
                candidates=candidates_of(solution),
            )
        )

    def _close_due(self) -> None:
        if self._watermark is None:
            return
        while self._heap and self._heap[0][0] <= self._watermark:
            _, _, bucket = heapq.heappop(self._heap)
            if bucket in self._final:
                continue  # closed already (reopen leaves stale heap entries)
            self._close(bucket)

    def _close(self, bucket: _Bucket) -> None:
        state = self._states[bucket]
        key = self._keys[bucket]
        skip = (
            self.config.skip_anomaly_free_problems and not state.had_anomaly
        )
        if skip:
            solution = None
        elif self._spans is not None:
            with self._spans.span(
                "window.close",
                category="engine",
                track=self._spans_track,
                url=key.url,
                window=key.window.start,
            ):
                solution = state.finalize(self._cache)
        else:
            solution = state.finalize(self._cache)
        if _log.isEnabledFor(logging.DEBUG):
            _log.debug(
                "window.close",
                extra=obslog.fields(
                    url=key.url,
                    anomaly=key.anomaly.value,
                    window=key.window.start,
                    status=(
                        solution.status.value
                        if solution is not None
                        else None
                    ),
                ),
            )
        self._final[bucket] = solution
        self.stats.problems_closed += 1
        timestamp = self._watermark if self._watermark is not None else 0
        self._emit(
            VerdictEvent(
                kind=VerdictKind.WINDOW_CLOSED,
                key=key,
                sequence=self._next_sequence(),
                timestamp=timestamp,
                observations_ingested=self.stats.observations,
                measurements_ingested=self.stats.measurements,
                solution=solution,
            )
        )
        if solution is None:
            return
        for asn in sorted(_confirmed_censors_of(solution)):
            count = self._confirmed.get(asn, 0)
            self._confirmed[asn] = count + 1
            if count == 0:
                sequence = self._next_sequence()
                self.identifications.append(
                    CensorIdentification(
                        asn=asn,
                        key=key,
                        timestamp=timestamp,
                        observations_ingested=self.stats.observations,
                        measurements_ingested=self.stats.measurements,
                        sequence=sequence,
                    )
                )
                self._emit(
                    VerdictEvent(
                        kind=VerdictKind.CENSOR_IDENTIFIED,
                        key=key,
                        sequence=sequence,
                        timestamp=timestamp,
                        observations_ingested=self.stats.observations,
                        measurements_ingested=self.stats.measurements,
                        solution=solution,
                        asn=asn,
                    )
                )

    def _reopen(self, bucket: _Bucket, timestamp: int) -> None:
        """Withdraw a closed window's confirmation (late observation)."""
        if self.late_policy == LATE_ERROR:
            raise StreamOrderError(
                f"late observation at t={timestamp} for closed window "
                f"{self._keys[bucket]}"
            )
        solution = self._final.pop(bucket)
        self.stats.problems_closed -= 1
        self.stats.problems_reopened += 1
        heapq.heappush(
            self._heap,
            (self._keys[bucket].window.end, self._tie, bucket),
        )
        self._tie += 1
        if solution is None:
            return
        for asn in sorted(_confirmed_censors_of(solution)):
            self._confirmed[asn] -= 1
            if self._confirmed[asn] == 0:
                # The identification lost its last supporting window: the
                # time-to-localization log must not keep reporting it (a
                # later re-close re-confirms and re-logs).
                self.identifications = [
                    identification
                    for identification in self.identifications
                    if identification.asn != asn
                ]
                self._emit(
                    VerdictEvent(
                        kind=VerdictKind.CENSOR_RETRACTED,
                        key=self._keys[bucket],
                        sequence=self._next_sequence(),
                        timestamp=timestamp,
                        observations_ingested=self.stats.observations,
                        measurements_ingested=self.stats.measurements,
                        asn=asn,
                    )
                )

    # -- draining ---------------------------------------------------------

    def close_all(self) -> None:
        """Close every still-open window, in window-end (heap) order —
        exactly as a watermark pushed past the last window end would close
        them.  Verdict events fire as usual; further in-order ingestion
        (at or past the watermark) remains legal afterwards."""
        while self._heap:
            _, _, bucket = heapq.heappop(self._heap)
            if bucket not in self._final:
                self._close(bucket)

    def problem_records(
        self,
    ) -> List[Tuple[ProblemKey, List[Observation], bool,
                    Optional[ProblemSolution]]]:
        """Every problem's ``(key, observations, closed, solution)`` in
        creation (= batch) order.

        The engine's full per-problem state as data: the checkpoint format
        (:mod:`repro.stream.checkpoint`) serializes these records, and the
        sharded backend's workers export them at drain so the parent can
        merge shards into one result.  ``solution`` is the *final* (close
        time) solution — None while the window is open, and also None for
        a closed window skipped as anomaly-free.
        """
        return [
            (
                self._keys[bucket],
                self._states[bucket].observations,
                bucket in self._final,
                self._final.get(bucket),
            )
            for bucket in self._order
        ]

    def drain(self) -> PipelineResult:
        """Close every open window and assemble the final result.

        The returned :class:`PipelineResult` is byte-identical to what
        ``LocalizationPipeline.run_from_observations`` produces over the
        same observation sequence — same per-problem solutions in the same
        creation order, same reports.  Idempotent: repeated calls return
        the same result object.
        """
        if self._drained is not None:
            return self._drained
        if self._spans is not None:
            with self._spans.span(
                "engine.drain", category="engine", track=self._spans_track
            ) as span_args:
                self.close_all()
                span_args["problems"] = len(self._order)
        else:
            self.close_all()
        solutions = [
            self._final[bucket]
            for bucket in self._order
            if self._final[bucket] is not None
        ]
        groups = {
            self._keys[bucket]: self._states[bucket].observations
            for bucket in self._order
        }
        self._drained = assemble_result(
            solutions, groups, self._discard, self.country_by_asn
        )
        return self._drained

    @property
    def solve_stats(self):
        """The shared solve cache's counters (signature hits etc.)."""
        return self._cache.stats


def _confirmed_censors_of(solution: ProblemSolution) -> frozenset:
    """Censors a closed window confirms — exactly the ASes the batch
    censor report would count for this solution (True in every model of a
    satisfiable problem)."""
    if solution.status is SolutionStatus.UNSATISFIABLE:
        return frozenset()
    return solution.censors
