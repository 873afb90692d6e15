"""The one façade over batch, streaming, replay, and sweep workloads.

A :class:`LocalizationSession` is "measurements in, censor verdicts out"
as one object: configure it with a single
:class:`~repro.api.config.SessionConfig`, pick a workload —

- :meth:`run` — one-shot batch over a fresh campaign,
- :meth:`stream` — live ingest from the platform's drip feed,
- :meth:`replay` — a stored dataset, optionally with the no-churn
  ablation,
- :meth:`replay_stored` — a sweep job rebuilt from a result store, with
  verification against the stored record,
- :meth:`sweep` — a whole job grid through the parallel runner —

or drive the incremental surface (:meth:`ingest_measurement` /
:meth:`advance` / :meth:`drain`) yourself.  All of them drain through the
session's pluggable :class:`~repro.api.backends.ExecutionBackend`; every
backend is byte-identical to ``LocalizationPipeline.run`` on drain.

Sessions checkpoint: :meth:`checkpoint` snapshots the engine state plus
the config to one file, and :meth:`restore` resumes a consumer
mid-campaign — under the same backend or a different one.

Quickstart::

    from repro.api import LocalizationSession

    session = LocalizationSession.from_preset("tiny", seed=0)
    session.subscribe(lambda event: print(event.describe()))
    outcome = session.stream()          # verdicts fire live
    print(outcome.result.identified_censor_asns)
"""

from __future__ import annotations

import dataclasses
import os
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence

from repro.core.observations import (
    Observation,
    build_observations,
    first_path_only,
)
from repro.core.pipeline import PipelineResult
from repro.iclab.dataset import Dataset
from repro.iclab.measurement import Measurement
from repro.obs import log as obslog
from repro.obs import recorder as obsrecorder
from repro.obs.metrics import MetricsRegistry
from repro.obs.recorder import FlightRecorder
from repro.obs.spans import SpanRecorder
from repro.runner.spec import JobSpec, SweepSpec
from repro.scenario.world import World, build_world
from repro.stream.events import Subscriber
from repro.stream.state import StreamStats
from repro.util.profiling import StageTimer

from repro.api.backends import (
    BackendContext,
    ExecutionBackend,
    ShardedBackend,
    backend_for,
)
from repro.api.checkpoint import (
    CHECKPOINT_FORMAT,
    read_checkpoint,
    write_checkpoint,
)
from repro.api.config import ExecutionPolicy, SessionConfig
from repro.api.placement import (
    Autoscaler,
    AutoscalePolicy,
    PartitionMap,
)

_log = obslog.get_logger("api.session")


@dataclass
class SessionOutcome:
    """One completed workload with every artifact still live."""

    config: SessionConfig
    world: World
    dataset: Dataset
    result: PipelineResult
    perf: Optional[Dict[str, Any]] = None


@dataclass
class StoredReplayOutcome:
    """A stored-job replay and how it compared to the stored record."""

    job: JobSpec
    world: World
    result: PipelineResult
    verified: Optional[bool] = None   # None: no stored result to compare
    mismatches: Sequence[str] = ()


class LocalizationSession:
    """One localization workload, any shape, behind one config."""

    def __init__(
        self,
        config: Optional[SessionConfig] = None,
        world: Optional[World] = None,
        ip2as=None,
        country_by_asn: Optional[Dict[int, str]] = None,
    ) -> None:
        self.config = config if config is not None else SessionConfig()
        self._world = world
        self._ip2as = ip2as
        self._country_by_asn = country_by_asn
        self._subscribers: List[Subscriber] = []
        self._backend: Optional[ExecutionBackend] = None
        self._pending_state: Optional[Dict[str, Any]] = None
        self._metrics: Optional[MetricsRegistry] = None
        self._spans: Optional[SpanRecorder] = None
        self._flight: Optional[FlightRecorder] = None
        self._flight_dir: Optional[str] = None
        # A world bound without an explicit config leaves self.config a
        # default that does NOT describe the world; fine for in-process
        # use, but a checkpoint written from it would restore the wrong
        # world — checkpoint() refuses in that case.
        self._config_describes_world = config is not None or world is None

    # -- construction conveniences ----------------------------------------

    @classmethod
    def from_preset(
        cls, preset: str, seed: int = 0, **overrides
    ) -> "LocalizationSession":
        """A session over a named scenario preset.

        Keyword overrides set any :class:`SessionConfig` field; pass
        ``execution=ExecutionPolicy(backend="sharded", shards=4)`` to
        pick a backend.
        """
        return cls(SessionConfig(preset=preset, seed=seed, **overrides))

    @classmethod
    def for_world(
        cls, world: World, config: Optional[SessionConfig] = None
    ) -> "LocalizationSession":
        """Bind a session to an already-built world (skips the rebuild).

        Pass a ``config`` that describes the world when you intend to
        :meth:`checkpoint` — the checkpointed config is what regenerates
        the world (and its IP-to-AS database) at restore time, and a
        defaulted config could not.
        """
        return cls(config, world=world)

    # -- lazily bound substrate -------------------------------------------

    @property
    def world(self) -> World:
        """The session's world, built deterministically on first use."""
        if self._world is None:
            self._world = build_world(self.config.scenario_config())
        return self._world

    @property
    def ip2as(self):
        return self._ip2as if self._ip2as is not None else self.world.ip2as

    @property
    def country_by_asn(self) -> Dict[int, str]:
        if self._country_by_asn is not None:
            return self._country_by_asn
        return self.world.country_by_asn

    @property
    def backend(self) -> ExecutionBackend:
        """The execution backend, created on first use.

        Creation is deferred so :meth:`subscribe` and :meth:`restore`
        can run first — backends bind their event plumbing (and, for the
        sharded backend, fork their workers) at creation time.
        """
        if self._backend is None:
            self._backend = backend_for(
                BackendContext(
                    config=self.config,
                    ip2as=self.ip2as,
                    country_by_asn=self.country_by_asn,
                    subscribers=self._subscribers,
                    metrics=self._metrics,
                    spans=self._spans,
                    flight=self._flight,
                    flight_dir=self._flight_dir,
                )
            )
            if self._pending_state is not None:
                self._backend.restore(self._pending_state)
                self._pending_state = None
        return self._backend

    # -- events ------------------------------------------------------------

    def subscribe(self, subscriber: Subscriber) -> None:
        """Register a callback for every verdict-delta event.

        Subscribe before the first workload/ingestion: backends decide at
        creation time whether per-event verdicts are computed at all (and
        whether shard workers ship them back).
        """
        if self._backend is not None and not self._subscribers:
            raise RuntimeError(
                "subscribe() must precede backend creation — the first "
                "workload, ingestion, or checkpoint() call on this "
                "session already bound its event plumbing without "
                "subscribers"
            )
        self._subscribers.append(subscriber)

    # -- observability -----------------------------------------------------

    def enable_metrics(
        self, registry: Optional[MetricsRegistry] = None
    ) -> MetricsRegistry:
        """Attach a metrics registry to this session's backend.

        Like :meth:`subscribe`, this must precede backend creation: the
        backend wires its instrumentation (and, for the sharded backend,
        tells its workers to build registries and ack chunks) when it is
        built.  Returns the registry so callers can hand it to
        :func:`repro.obs.export.start_metrics_server` or snapshot it.
        Telemetry only — enabling metrics never changes any result.
        """
        if self._backend is not None and self._metrics is None:
            raise RuntimeError(
                "enable_metrics() must precede backend creation — the "
                "first workload, ingestion, or checkpoint() call on "
                "this session already bound its backend without "
                "instrumentation"
            )
        if registry is None:
            registry = MetricsRegistry()
        self._metrics = registry
        return registry

    @property
    def metrics(self) -> Optional[MetricsRegistry]:
        """The registry from :meth:`enable_metrics`, or None."""
        return self._metrics

    def _require_unbound(self, what: str) -> None:
        if self._backend is not None:
            raise RuntimeError(
                f"{what} must precede backend creation — the first "
                "workload, ingestion, or checkpoint() call on this "
                "session already bound its backend"
            )

    def enable_tracing(
        self, recorder: Optional[SpanRecorder] = None
    ) -> SpanRecorder:
        """Attach a span recorder: real intervals, per track, exportable.

        Like :meth:`enable_metrics`, must precede backend creation.
        When metrics are already enabled the recorder shares the
        registry's clock, so one injected ``FakeClock`` governs
        histograms and spans together (call :meth:`enable_metrics`
        first for that).  Telemetry only — results never change.
        """
        self._require_unbound("enable_tracing()")
        if recorder is None:
            clock = (
                self._metrics.clock if self._metrics is not None else None
            )
            recorder = SpanRecorder(clock=clock)
        self._spans = recorder
        return recorder

    @property
    def spans(self) -> Optional[SpanRecorder]:
        """The recorder from :meth:`enable_tracing`, or None."""
        return self._spans

    def export_trace(self, path: str) -> int:
        """Write the run's spans as Chrome ``trace_event`` JSON.

        Load the file at ``chrome://tracing`` or ``ui.perfetto.dev``.
        Returns the span count.  Call after :meth:`drain` — a sharded
        backend ships worker spans home inside the drain telemetry.
        """
        if self._spans is None:
            raise RuntimeError(
                "tracing is not enabled — call enable_tracing() before "
                "the first workload"
            )
        count = self._spans.export(path)
        _log.info(
            "trace.export", extra=obslog.fields(path=str(path), spans=count)
        )
        return count

    def enable_flight_recorder(
        self,
        directory: Optional[str] = None,
        capacity: int = obsrecorder.DEFAULT_CAPACITY,
    ) -> FlightRecorder:
        """Arm the crash flight recorder for this process.

        A bounded ring of recent wire-frame headers and log records,
        installed process-wide (the transport hooks and
        the log plane find it without plumbing).  The parent dumps it
        to ``directory`` (default ``.flight-recorder``) on worker death;
        shard workers arm their own ring and dump on unhandled engine
        exceptions.  Must precede backend creation.
        """
        self._require_unbound("enable_flight_recorder()")
        recorder = FlightRecorder(capacity=capacity)
        self._flight = recorder
        self._flight_dir = (
            directory if directory is not None else ".flight-recorder"
        )
        obsrecorder.install(recorder)
        return recorder

    # -- one-shot workloads ------------------------------------------------

    def run(self, timer: Optional[StageTimer] = None) -> SessionOutcome:
        """One-shot batch: build the world, run its campaign, localize.

        Honors the config's churn ablation switch.  On the inline
        backend with no subscribers this is the reference
        ``LocalizationPipeline`` fast path (no stream stats or events);
        with subscribers — or on the sharded backend — the same
        observations stream through the engine(s) instead, so verdict
        events fire and :attr:`stats`/:attr:`identifications` populate.
        Byte-identical result every way.
        """
        if timer is None:
            timer = StageTimer()
        started = time.perf_counter()
        with timer.stage("world.build"):
            world = self.world
        world.oracle.timer = timer
        world.platform.timer = timer
        with timer.stage("campaign"):
            dataset = world.run_campaign()
        with timer.stage("pipeline"):
            result = self.backend.run_dataset(
                dataset,
                without_churn=self.config.without_churn,
                timer=timer,
            )
        timer.add("job.total", time.perf_counter() - started)
        for name, value in world.oracle.routes.stats.as_dict().items():
            timer.count(f"routing.{name}", value)
        return SessionOutcome(
            config=self.config,
            world=world,
            dataset=dataset,
            result=result,
            perf=timer.snapshot(),
        )

    def stream(self, progress_every: int = 0) -> SessionOutcome:
        """Live ingest: run the campaign while drip-feeding the backend.

        Every measurement flows into the backend the moment the platform
        produces it; subscribers see verdicts tighten in real time.  The
        no-churn ablation is replay-only (its path filter needs the whole
        dataset up front) — use :meth:`replay` for it.
        """
        if self.config.without_churn:
            raise ValueError(
                "the no-churn ablation is replay-only; use replay()"
            )
        world = self.world
        backend = self.backend
        _log.info(
            "session.stream.start",
            extra=obslog.fields(
                preset=self.config.preset,
                seed=self.config.seed,
                backend=self.config.execution.backend,
                shards=self.config.execution.shards,
            ),
        )
        world.platform.add_listener(backend.ingest_measurement)
        try:
            dataset = world.platform.run_campaign(
                progress_every=progress_every
            )
        finally:
            world.platform.remove_listener(backend.ingest_measurement)
        result = self.drain()
        return SessionOutcome(
            config=self.config, world=world, dataset=dataset, result=result
        )

    def replay(
        self, dataset: Dataset, without_churn: Optional[bool] = None
    ) -> PipelineResult:
        """Replay a stored dataset in recorded order and drain.

        ``without_churn`` defaults to the config's churn switch; when set,
        the Figure-4 first-distinct-path filter applies before ingestion
        — the exact sequence ``LocalizationPipeline.run_without_churn``
        solves.
        """
        ablate = (
            self.config.without_churn
            if without_churn is None
            else without_churn
        )
        backend = self.backend
        if ablate:
            observations, stats = build_observations(
                dataset,
                self.ip2as,
                anomalies=self.config.pipeline_config().anomalies,
            )
            backend.merge_discard_stats(stats)
            for observation in first_path_only(observations):
                backend.ingest_observation(observation)
        else:
            for measurement in dataset:
                backend.ingest_measurement(measurement)
        return self.drain()

    def replay_stored(
        self,
        store,
        job: Optional[JobSpec] = None,
        progress_every: int = 0,
    ):
        """Rebuild a stored job's campaign, stream it, verify the drain.

        The scenario regenerates deterministically from the job spec;
        when the store holds the job's result sidecar, the drained result
        is checked against the stored per-problem statuses and censors.
        """
        from repro.stream.sources import compare_with_stored

        if job is None:
            job = self.config.job_spec()
        world = self.world
        if job.without_churn:
            dataset = world.run_campaign(progress_every=progress_every)
            result = self.replay(dataset, without_churn=True)
        else:
            result = self.stream(progress_every=progress_every).result
        stored = store.get_result(job.job_id)
        if stored is None:
            return StoredReplayOutcome(job=job, world=world, result=result)
        mismatches = compare_with_stored(result, stored)
        return StoredReplayOutcome(
            job=job,
            world=world,
            result=result,
            verified=not mismatches,
            mismatches=tuple(mismatches),
        )

    def sweep(
        self,
        spec: Optional[SweepSpec] = None,
        jobs: Optional[Sequence[JobSpec]] = None,
        store=None,
        workers: int = 1,
        timeout: Optional[float] = None,
        progress=None,
    ):
        """Run a job grid through the parallel sweep runner.

        ``workers`` concurrent job processes, ``timeout`` seconds per job
        (None: unbounded).  Returns the runner's
        :class:`~repro.runner.executor.SweepReport`.
        """
        # Deferred: the executor imports this module for run_job.
        from repro.runner.executor import run_sweep

        if jobs is None:
            if spec is None:
                raise ValueError("sweep() needs a spec or a job list")
            jobs = spec.expand()
        return run_sweep(
            jobs,
            store=store,
            workers=workers,
            timeout=timeout,
            progress=progress,
        )

    # -- incremental surface -----------------------------------------------

    def ingest_measurement(self, measurement: Measurement) -> None:
        """Convert one measurement and ingest its observations."""
        self.backend.ingest_measurement(measurement)

    def ingest_observation(self, observation: Observation) -> None:
        """Ingest one pre-converted observation."""
        self.backend.ingest_observation(observation)

    def advance(self, timestamp: int) -> None:
        """Push the stream watermark forward without an observation."""
        self.backend.advance(timestamp)

    def drain(self) -> PipelineResult:
        """Close every window and assemble the final result."""
        if self._spans is not None:
            with self._spans.span("session.drain", category="session"):
                result = self.backend.drain()
        else:
            result = self.backend.drain()
        _log.info(
            "session.drain",
            extra=obslog.fields(
                problems=len(result.solutions),
                censors=len(result.identified_censor_asns),
            ),
        )
        return result

    # -- elastic sharding --------------------------------------------------

    def _sharded_backend(self, what: str) -> ShardedBackend:
        backend = self.backend
        if not isinstance(backend, ShardedBackend):
            raise RuntimeError(
                f"{what} needs the sharded backend; this session runs "
                f"execution.backend={self.config.execution.backend!r}"
            )
        return backend

    @property
    def placement(self) -> Optional[PartitionMap]:
        """The live routing map (sharded backend only; None otherwise)."""
        backend = self._backend
        if isinstance(backend, ShardedBackend):
            return backend.placement
        return None

    def rebalance(
        self,
        new_map: Optional[PartitionMap] = None,
        overrides: Optional[Dict] = None,
    ) -> Dict[str, Any]:
        """Live-migrate the sharded fleet to a new placement mid-stream.

        Pass a full :class:`PartitionMap`, or just ``overrides``
        (``{(url, anomaly_value): shard}``; ``None`` values unpin) for a
        hot-bucket migration on the current layout.  Only the moving
        buckets quiesce; the drain stays byte-identical to an
        uninterrupted run.  Returns the commit summary (epoch, shard
        count, moved bucket count, seconds).
        """
        backend = self._sharded_backend("rebalance()")
        if new_map is None:
            if overrides is None:
                raise ValueError(
                    "rebalance() needs a new_map or overrides"
                )
            new_map = backend.placement.with_overrides(overrides)
        return backend.rebalance(new_map)

    def add_shard(self) -> Dict[str, Any]:
        """Grow the sharded fleet by one worker, live."""
        return self._sharded_backend("add_shard()").add_shard()

    def remove_shard(self) -> Dict[str, Any]:
        """Shrink the sharded fleet by one worker, live."""
        return self._sharded_backend("remove_shard()").remove_shard()

    def autoscaler(
        self,
        policy: Optional[AutoscalePolicy] = None,
        signals=None,
        clock=time.monotonic,
    ) -> Autoscaler:
        """An :class:`Autoscaler` bound to this session.

        ``policy`` defaults to the execution policy's ``autoscale``
        block; the caller owns the polling cadence (call ``poll()``
        from whatever loop already owns the session — serve tenants do
        this per applied message).
        """
        if policy is None:
            policy = self.config.execution.autoscale
        return Autoscaler(self, policy, signals=signals, clock=clock)

    # -- checkpointing -----------------------------------------------------

    def checkpoint(self, path: os.PathLike) -> os.PathLike:
        """Snapshot config + engine state to ``path`` (atomic write).

        The session stays live — checkpointing is a read — so periodic
        checkpoints during a long campaign are one call in the ingest
        loop.
        """
        if not self._config_describes_world:
            raise ValueError(
                "this session was bound to an existing world without a "
                "SessionConfig; restore() would rebuild a different "
                "world from the default config — pass the world's "
                "config to for_world()/world.session() before "
                "checkpointing"
            )
        if self._spans is not None:
            with self._spans.span(
                "checkpoint.write", category="session", path=str(path)
            ):
                written = write_checkpoint(
                    path, self.config.to_dict(), self.backend.state()
                )
        else:
            written = write_checkpoint(
                path, self.config.to_dict(), self.backend.state()
            )
        _log.info(
            "checkpoint.write", extra=obslog.fields(path=str(path))
        )
        return written

    @classmethod
    def restore(
        cls,
        path: os.PathLike,
        execution: Optional[ExecutionPolicy] = None,
        world: Optional[World] = None,
    ) -> "LocalizationSession":
        """Resume a checkpointed session mid-campaign.

        The world rebuilds deterministically from the checkpointed
        config (pass ``world`` to skip the rebuild when you already have
        it).  ``execution`` overrides the checkpointed policy — restoring
        an inline checkpoint under the sharded backend (or vice versa, or
        under a different shard count) is supported because the state
        format is backend-agnostic.
        """
        document = read_checkpoint(path)
        session = cls.restore_document(
            document, execution=execution, world=world
        )
        _log.info(
            "checkpoint.restore",
            extra=obslog.fields(
                path=str(path),
                preset=session.config.preset,
                backend=session.config.execution.backend,
            ),
        )
        return session

    @classmethod
    def restore_document(
        cls,
        document: Dict[str, Any],
        execution: Optional[ExecutionPolicy] = None,
        world: Optional[World] = None,
    ) -> "LocalizationSession":
        """:meth:`restore` from an already-loaded checkpoint document.

        The serve daemon embeds checkpoint documents inside its own
        per-tenant state files (which carry extra resume bookkeeping),
        so it loads the JSON itself and resumes tenants through here.
        """
        if document.get("format") != CHECKPOINT_FORMAT:
            raise ValueError(
                f"unsupported checkpoint format {document.get('format')!r} "
                f"(this build reads format {CHECKPOINT_FORMAT})"
            )
        config = SessionConfig.from_dict(document["config"])
        if execution is not None:
            config = dataclasses.replace(config, execution=execution)
        session = cls(config, world=world)
        session._pending_state = document["engine"]
        return session

    # -- lifecycle / reporting ---------------------------------------------

    def close(self) -> None:
        """Release backend resources (sharded worker processes)."""
        if self._backend is not None:
            self._backend.close()

    def __enter__(self) -> "LocalizationSession":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    @property
    def stats(self) -> StreamStats:
        """Stream counters (merged across shards after a sharded drain)."""
        if self._backend is None:
            return StreamStats()
        return self._backend.stats

    @property
    def identifications(self) -> List:
        """Confirmed-censor log — feed to ``TimeToLocalization``.

        Duck-compatible with the engine (``identifications`` + ``stats``)
        so ``TimeToLocalization.from_engine(session)`` works unchanged.
        """
        if self._backend is None:
            return []
        return self._backend.identifications

    @property
    def solve_stats(self):
        """Solve-cache counters: live on inline, merged-at-drain on
        sharded (None until the sharded drain ships them back)."""
        return getattr(self._backend, "solve_stats", None)


__all__ = [
    "LocalizationSession",
    "SessionOutcome",
    "StoredReplayOutcome",
]
