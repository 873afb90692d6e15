"""The `repro.api` façade: one session over batch, streaming, and sweeps.

The acceptance surface of the API redesign:

- **backend equivalence** — `LocalizationSession` drained over the
  inline backend *and* the sharded backend (2 and 4 workers) produces a
  `PipelineResult.to_dict()` byte-identical to `LocalizationPipeline.run`
  on the tiny and small presets, both churn modes;
- **checkpoint/restore** — checkpointing after every K ingested
  observations and restoring (a chain of simulated consumer restarts)
  drains byte-identical to an uninterrupted run, in both churn modes,
  across backends, and across backend switches at restore time;
- `SessionConfig` subsumes the old `ScenarioConfig`/`PipelineConfig`/
  `JobSpec` knob split and round-trips through its wire form;
- the sweep and stored-replay workloads ride the same façade.
"""

from __future__ import annotations

import json

import pytest

from repro.api import (
    ExecutionPolicy,
    LocalizationSession,
    PartitionMap,
    SessionConfig,
)
from repro.api.backends import BackendContext, InlineBackend, ShardedBackend
from repro.core.observations import build_observations, first_path_only
from repro.core.pipeline import PipelineConfig
from repro.runner import JobSpec, SweepSpec, run_job
from repro.runner.store import ResultStore
from repro.scenario import build_world, tiny
from repro.stream.checkpoint import engine_state, restore_engine
from repro.stream.engine import StreamingLocalizer
from repro.stream.events import VerdictEvent, VerdictKind

TINY_CONFIG = SessionConfig(preset="tiny", seed=7)


def _sharded(shards: int, **overrides) -> ExecutionPolicy:
    return ExecutionPolicy(backend="sharded", shards=shards, **overrides)


@pytest.fixture(scope="module")
def tiny_batch(tiny_world, tiny_dataset):
    """The reference result both backends must reproduce byte-for-byte."""
    return tiny_world.pipeline().run(tiny_dataset)


@pytest.fixture(scope="module")
def tiny_batch_nochurn(tiny_world, tiny_dataset):
    return tiny_world.pipeline().run_without_churn(tiny_dataset)


class TestSessionConfig:
    """One typed config subsuming the scenario/pipeline/job knob split."""

    def test_round_trips_through_wire_form(self):
        config = SessionConfig(
            preset="tiny",
            seed=3,
            churn="without",
            granularities=("day", "week"),
            anomalies=("dns",),
            solution_cap=8,
            skip_anomaly_free=True,
            duration_days=4,
            num_urls=5,
            num_vantage_points=6,
            tests_per_url_per_day=2.5,
            schedule="sweep",
            sweeps_per_pair_per_day=3.0,
            execution=_sharded(3, chunk_size=17, late_policy="error"),
        )
        # Every field is off its default, so the round trip covers them all.
        default = SessionConfig()
        assert all(
            getattr(config, name) != getattr(default, name)
            for name in config.to_dict()
        )
        payload = json.loads(json.dumps(config.to_dict()))
        assert SessionConfig.from_dict(payload) == config

    def test_job_spec_round_trip(self):
        job = JobSpec(preset="tiny", seed=5, churn="without", num_urls=4)
        config = SessionConfig.from_job(job, execution=_sharded(2))
        assert config.job_spec() == job
        assert config.execution.shards == 2

    def test_subsumes_scenario_and_pipeline_configs(self):
        config = SessionConfig(
            preset="tiny", seed=2, duration_days=3, solution_cap=4,
        )
        job = config.job_spec()
        assert config.scenario_config() == job.scenario_config()
        assert config.pipeline_config().solution_cap == 4

    def test_validation_delegates_to_job_spec(self):
        with pytest.raises(ValueError):
            SessionConfig(preset="nope")
        with pytest.raises(ValueError):
            SessionConfig(churn="sometimes")
        with pytest.raises(ValueError):
            ExecutionPolicy(backend="quantum")
        with pytest.raises(ValueError):
            ExecutionPolicy(shards=0)

    def test_shard_routing_is_stable_and_granularity_free(self):
        # All granularities of one (URL, anomaly) pair must co-locate,
        # and the assignment must be identical across processes/runs.
        assert PartitionMap(4).shard_for(
            "http://x.example/", "dns"
        ) == PartitionMap(4).shard_for("http://x.example/", "dns")
        placement = PartitionMap(4)
        spread = {
            placement.shard_for(f"http://site{i}.example/", "dns")
            for i in range(64)
        }
        assert spread == {0, 1, 2, 3}


class TestBackendEquivalence:
    """Drain over any backend == LocalizationPipeline.run, byte for byte."""

    @pytest.mark.parametrize("shards", [None, 2, 4])
    def test_tiny_with_churn(
        self, tiny_world, tiny_dataset, tiny_batch, shards
    ):
        execution = (
            ExecutionPolicy() if shards is None else _sharded(shards)
        )
        session = LocalizationSession.for_world(
            tiny_world,
            SessionConfig(preset="tiny", seed=7, execution=execution),
        )
        result = session.replay(tiny_dataset)
        assert result.to_dict(include_observations=True) == (
            tiny_batch.to_dict(include_observations=True)
        )

    @pytest.mark.parametrize("shards", [None, 2, 4])
    def test_tiny_without_churn(
        self, tiny_world, tiny_dataset, tiny_batch_nochurn, shards
    ):
        execution = (
            ExecutionPolicy() if shards is None else _sharded(shards)
        )
        session = LocalizationSession.for_world(
            tiny_world,
            SessionConfig(
                preset="tiny", seed=7, churn="without", execution=execution
            ),
        )
        result = session.replay(tiny_dataset)
        assert result.to_dict(include_observations=True) == (
            tiny_batch_nochurn.to_dict(include_observations=True)
        )

    @pytest.mark.parametrize("shards", [None, 2, 4])
    def test_small_with_churn(
        self, small_world, small_dataset, small_result, shards
    ):
        execution = (
            ExecutionPolicy() if shards is None else _sharded(shards)
        )
        session = LocalizationSession.for_world(
            small_world,
            SessionConfig(preset="small", seed=3, execution=execution),
        )
        assert session.replay(small_dataset).to_dict() == (
            small_result.to_dict()
        )

    @pytest.mark.parametrize("shards", [None, 2, 4])
    def test_small_without_churn(
        self, small_world, small_dataset, shards
    ):
        batch = small_world.pipeline().run_without_churn(small_dataset)
        execution = (
            ExecutionPolicy() if shards is None else _sharded(shards)
        )
        session = LocalizationSession.for_world(
            small_world,
            SessionConfig(
                preset="small", seed=3, churn="without",
                execution=execution,
            ),
        )
        assert session.replay(small_dataset).to_dict() == batch.to_dict()

    def test_live_stream_matches_batch(self):
        """The drip-feed workload (fresh world) over both backends."""
        inline = LocalizationSession(TINY_CONFIG).stream()
        batch = inline.world.pipeline().run(inline.dataset)
        assert inline.result.to_dict() == batch.to_dict()
        sharded = LocalizationSession(
            SessionConfig(preset="tiny", seed=7, execution=_sharded(2))
        ).stream()
        assert sharded.result.to_dict() == batch.to_dict()

    def test_run_workload_matches_run_job(self):
        """session.run() == runner.run_job == the batch reference."""
        job = JobSpec(preset="tiny", seed=7)
        outcome = LocalizationSession(TINY_CONFIG).run()
        assert outcome.result.to_dict() == run_job(job).result.to_dict()
        assert outcome.perf is not None
        assert "pipeline" in outcome.perf["stages"]

    def test_run_with_subscribers_streams_on_inline(self):
        """run() with a subscriber must behave the same observable way
        on both backends: events fire, the stream counters populate, and
        the result bytes stay the batch reference's."""
        reference = LocalizationSession(TINY_CONFIG).run().result
        session = LocalizationSession(TINY_CONFIG)
        events = []
        session.subscribe(events.append)
        outcome = session.run()
        assert events
        assert session.stats.observations > 0
        assert outcome.result.to_dict() == reference.to_dict()

    def test_sharded_run_with_small_chunks(self, tiny_world, tiny_dataset,
                                           tiny_batch):
        """Chunk-size boundaries must not affect the merged bytes."""
        session = LocalizationSession.for_world(
            tiny_world,
            SessionConfig(
                preset="tiny", seed=7,
                execution=_sharded(2, chunk_size=7),
            ),
        )
        assert session.replay(tiny_dataset).to_dict() == (
            tiny_batch.to_dict()
        )

    def test_pipeline_knobs_flow_through_sharded(
        self, tiny_world, tiny_dataset
    ):
        config = PipelineConfig(skip_anomaly_free_problems=True)
        batch = tiny_world.pipeline(config).run(tiny_dataset)
        session = LocalizationSession.for_world(
            tiny_world,
            SessionConfig(
                preset="tiny", seed=7, skip_anomaly_free=True,
                execution=_sharded(2),
            ),
        )
        assert session.replay(tiny_dataset).to_dict() == batch.to_dict()


class TestShardedEvents:
    """Workers' verdict events merge into one ordered subscriber stream."""

    @pytest.fixture(scope="class")
    def event_streams(self, tiny_world, tiny_dataset):
        streams = {}
        for name, execution in [
            ("inline", ExecutionPolicy()),
            ("sharded", _sharded(3)),
        ]:
            session = LocalizationSession.for_world(
                tiny_world,
                SessionConfig(preset="tiny", seed=7, execution=execution),
            )
            events = []
            session.subscribe(events.append)
            session.replay(tiny_dataset)
            streams[name] = (events, session)
        return streams

    def test_sequence_strictly_increasing(self, event_streams):
        events, _ = event_streams["sharded"]
        assert events
        assert all(
            first.sequence < second.sequence
            for first, second in zip(events, events[1:])
        )

    def test_per_problem_streams_match_inline(self, event_streams):
        """Sharding must not change any single problem's event history
        (kinds + solutions, in order) — only the interleaving across
        problems may differ.  CENSOR_IDENTIFIED is excluded: it is a
        *global* first-confirmation event whose anchor window depends on
        cross-shard close order (the set of confirmed ASNs is pinned
        separately below)."""
        def per_key(events):
            history = {}
            for event in events:
                if event.kind is VerdictKind.CENSOR_IDENTIFIED:
                    continue
                history.setdefault(event.key, []).append(
                    (
                        event.kind,
                        event.solution.status.value
                        if event.solution is not None
                        else None,
                    )
                )
            return history

        inline_events, _ = event_streams["inline"]
        sharded_events, _ = event_streams["sharded"]
        assert per_key(sharded_events) == per_key(inline_events)

    def test_identifications_merge(self, event_streams):
        _, inline_session = event_streams["inline"]
        _, sharded_session = event_streams["sharded"]
        assert [i.asn for i in sharded_session.identifications] == [
            i.asn for i in inline_session.identifications
        ]
        confirmed = {
            event.asn
            for event in event_streams["sharded"][0]
            if event.kind is VerdictKind.CENSOR_IDENTIFIED
        }
        assert confirmed == {
            i.asn for i in sharded_session.identifications
        }

    def test_merged_stats_match_inline_ingest_counters(self, event_streams):
        _, inline_session = event_streams["inline"]
        _, sharded_session = event_streams["sharded"]
        inline_stats = inline_session.stats
        sharded_stats = sharded_session.stats
        assert sharded_stats.measurements == inline_stats.measurements
        assert sharded_stats.observations == inline_stats.observations
        assert sharded_stats.problems_opened == inline_stats.problems_opened
        assert sharded_stats.problems_closed == inline_stats.problems_closed


class TestVerdictEventWire:
    def test_round_trip(self, tiny_world, tiny_dataset):
        engine = StreamingLocalizer(
            tiny_world.ip2as, tiny_world.country_by_asn
        )
        events = []
        engine.subscribe(events.append)
        for measurement in tiny_dataset[:40]:
            engine.ingest_measurement(measurement)
        engine.drain()
        assert events
        for event in events:
            payload = json.loads(json.dumps(event.to_dict()))
            assert VerdictEvent.from_dict(payload) == event


class TestCheckpointRestore:
    """checkpoint → restore mid-stream reaches the same bytes."""

    @pytest.mark.parametrize("churn", ["with", "without"])
    @pytest.mark.parametrize("every", [23, 301])
    def test_checkpoint_every_k_observations(
        self, tmp_path, tiny_world, tiny_dataset, churn, every
    ):
        """The property test: a consumer that is killed and restored
        after every K observations drains byte-identical to one that
        never restarted — tiny preset, both churn modes."""
        config = SessionConfig(preset="tiny", seed=7, churn=churn)
        if churn == "without":
            uninterrupted = tiny_world.pipeline().run_without_churn(
                tiny_dataset
            )
            observations, stats = build_observations(
                tiny_dataset, tiny_world.ip2as,
                anomalies=config.pipeline_config().anomalies,
            )
            feed = first_path_only(observations)
        else:
            uninterrupted = tiny_world.pipeline().run(tiny_dataset)
            feed = None
        path = tmp_path / "engine.ckpt"
        session = LocalizationSession.for_world(tiny_world, config)
        if feed is not None:
            session.backend.merge_discard_stats(stats)
            ingest = session.ingest_observation
            items = feed
        else:
            ingest = session.ingest_measurement
            items = list(tiny_dataset)
        count = 0
        for item in items:
            ingest(item)
            count += 1
            if count % every == 0:
                session.checkpoint(path)
                session = LocalizationSession.restore(
                    path, world=tiny_world
                )
                ingest = (
                    session.ingest_observation
                    if feed is not None
                    else session.ingest_measurement
                )
        assert session.drain().to_dict(include_observations=True) == (
            uninterrupted.to_dict(include_observations=True)
        )

    @pytest.mark.parametrize(
        "source,target",
        [
            ("inline", "sharded"),
            ("sharded", "inline"),
            ("sharded", "sharded"),
        ],
    )
    def test_cross_backend_restore(
        self, tmp_path, tiny_world, tiny_dataset, tiny_batch, source, target
    ):
        """The state format is backend-agnostic: a checkpoint written
        under one backend restores under the other (or under a different
        shard count) and still reaches the batch bytes."""
        def execution(name, shards):
            return (
                ExecutionPolicy()
                if name == "inline"
                else _sharded(shards)
            )

        path = tmp_path / "cross.ckpt"
        session = LocalizationSession.for_world(
            tiny_world,
            SessionConfig(
                preset="tiny", seed=7, execution=execution(source, 2)
            ),
        )
        for index, measurement in enumerate(tiny_dataset):
            if index == 120:
                session.checkpoint(path)
                session.close()
                session = LocalizationSession.restore(
                    path,
                    execution=execution(target, 3),
                    world=tiny_world,
                )
            session.ingest_measurement(measurement)
        assert session.drain().to_dict() == tiny_batch.to_dict()

    def test_sharded_restore_continues_event_sequence(
        self, tmp_path, tiny_world, tiny_dataset, tiny_batch
    ):
        """The merged event stream's sequence counter survives a sharded
        checkpoint/restore: post-restore events never reuse numbers."""
        config = SessionConfig(
            preset="tiny", seed=7, execution=_sharded(2, chunk_size=8)
        )
        session = LocalizationSession.for_world(tiny_world, config)
        before = []
        session.subscribe(before.append)
        for measurement in tiny_dataset[:80]:
            session.ingest_measurement(measurement)
        path = tmp_path / "seq.ckpt"
        session.checkpoint(path)   # flushes; delivers pending events
        session.close()
        assert before
        high_water = max(event.sequence for event in before)
        restored = LocalizationSession.restore(path, world=tiny_world)
        after = []
        restored.subscribe(after.append)
        for measurement in tiny_dataset[80:]:
            restored.ingest_measurement(measurement)
        result = restored.drain()
        assert after
        assert min(event.sequence for event in after) > high_water
        assert all(
            first.sequence < second.sequence
            for first, second in zip(after, after[1:])
        )
        assert result.to_dict() == tiny_batch.to_dict()

    def test_checkpoint_after_drain_rejected_on_sharded(
        self, tiny_world, tiny_dataset, tmp_path
    ):
        session = LocalizationSession.for_world(
            tiny_world,
            SessionConfig(preset="tiny", seed=7, execution=_sharded(2)),
        )
        session.replay(tiny_dataset)
        with pytest.raises(RuntimeError):
            session.checkpoint(tmp_path / "late.ckpt")

    def test_restored_session_preserves_identifications(
        self, tmp_path, tiny_world, tiny_dataset
    ):
        """The confirmed-censor log (time-to-localization input) and the
        ingest counters survive a restart."""
        full = LocalizationSession.for_world(tiny_world, TINY_CONFIG)
        full.replay(tiny_dataset)
        path = tmp_path / "log.ckpt"
        session = LocalizationSession.for_world(tiny_world, TINY_CONFIG)
        for index, measurement in enumerate(tiny_dataset):
            session.ingest_measurement(measurement)
            if index == len(tiny_dataset) // 2:
                session.checkpoint(path)
                session = LocalizationSession.restore(
                    path, world=tiny_world
                )
        session.drain()
        assert [
            (i.asn, i.measurements_ingested)
            for i in session.identifications
        ] == [
            (i.asn, i.measurements_ingested)
            for i in full.identifications
        ]
        assert session.stats.measurements == full.stats.measurements
        assert session.stats.observations == full.stats.observations

    def test_checkpoint_refused_for_unbound_default_config(
        self, tmp_path, tiny_world, tiny_dataset
    ):
        """A world bound without a config checkpoints a config that
        cannot regenerate that world — refuse instead of silently
        writing a restore-to-the-wrong-world file."""
        session = tiny_world.session()   # default config != tiny world
        session.ingest_measurement(tiny_dataset[0])
        with pytest.raises(ValueError):
            session.checkpoint(tmp_path / "wrong-world.ckpt")

    def test_checkpoint_file_is_json_with_config(
        self, tmp_path, tiny_world, tiny_dataset
    ):
        session = LocalizationSession.for_world(tiny_world, TINY_CONFIG)
        for measurement in tiny_dataset[:25]:
            session.ingest_measurement(measurement)
        path = session.checkpoint(tmp_path / "doc.ckpt")
        with open(path, "r", encoding="utf-8") as handle:
            document = json.load(handle)
        assert document["format"] == 3
        assert SessionConfig.from_dict(document["config"]) == TINY_CONFIG
        assert document["engine"]["problems"]

    def test_engine_state_round_trip_is_exact(
        self, tiny_world, tiny_dataset
    ):
        """The stream-layer primitive: ledgers, closures, watermark, and
        counters all survive engine_state → restore_engine."""
        engine = StreamingLocalizer(
            tiny_world.ip2as, tiny_world.country_by_asn
        )
        for measurement in tiny_dataset[:200]:
            engine.ingest_measurement(measurement)
        state = json.loads(json.dumps(engine_state(engine)))
        restored = restore_engine(
            state, tiny_world.ip2as, tiny_world.country_by_asn
        )
        assert restored.watermark == engine.watermark
        assert restored.stats.as_dict() == engine.stats.as_dict()
        assert restored.open_problems == engine.open_problems
        assert restored.closed_problems == engine.closed_problems
        for remaining in tiny_dataset[200:]:
            engine.ingest_measurement(remaining)
            restored.ingest_measurement(remaining)
        assert restored.drain().to_dict(include_observations=True) == (
            engine.drain().to_dict(include_observations=True)
        )

    def test_unknown_formats_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            restore_engine({"format": 99}, None, {})
        bad = tmp_path / "bad.ckpt"
        bad.write_text(json.dumps({"format": 99}))
        with pytest.raises(ValueError):
            LocalizationSession.restore(bad)


class TestSessionWorkflows:
    def test_sweep_rides_the_facade(self, tmp_path):
        spec = SweepSpec(
            name="api-sweep",
            preset="tiny",
            num_seeds=2,
            duration_days=3,
            num_urls=3,
            num_vantage_points=4,
        )
        store = ResultStore(tmp_path)
        session = LocalizationSession(SessionConfig(preset="tiny"))
        report = session.sweep(spec, store=store)
        assert report.executed == 2 and report.failures == 0
        again = session.sweep(spec, store=store)
        assert again.cache_hits == 2 and again.executed == 0

    def test_replay_stored_verifies_record(self, tmp_path):
        job = JobSpec(
            preset="tiny", seed=9, duration_days=3, num_urls=3,
            num_vantage_points=4,
        )
        store = ResultStore(tmp_path)
        store.put(run_job(job).record)
        outcome = LocalizationSession(
            SessionConfig.from_job(job)
        ).replay_stored(store)
        assert outcome.verified is True
        assert outcome.mismatches == ()

    def test_replay_stored_sharded(self, tmp_path):
        job = JobSpec(
            preset="tiny", seed=9, duration_days=3, num_urls=3,
            num_vantage_points=4,
        )
        store = ResultStore(tmp_path)
        store.put(run_job(job).record)
        outcome = LocalizationSession(
            SessionConfig.from_job(job, execution=_sharded(2))
        ).replay_stored(store)
        assert outcome.verified is True

    def test_sharded_enforces_late_policy_error_globally(self, tiny_world):
        """late_policy="error" is a global-ordering promise; the parent
        enforces it against the global watermark even when the late
        observation routes to a shard whose own watermark lags."""
        from repro.anomaly import Anomaly
        from repro.core.observations import Observation
        from repro.stream.engine import StreamOrderError

        session = LocalizationSession.for_world(
            tiny_world,
            SessionConfig(
                preset="tiny", seed=7,
                execution=_sharded(2, late_policy="error"),
            ),
        )
        early_window_urls = [
            f"http://site{i}.example/" for i in range(8)
        ]
        session.ingest_observation(
            Observation(
                url=early_window_urls[0], anomaly=Anomaly.DNS,
                detected=False, as_path=(1, 2), timestamp=10 * 86400,
                measurement_id=1,
            )
        )
        # A different URL hashes to whichever shard; its day window at
        # t=0 elapsed long ago on the *global* clock.
        with pytest.raises(StreamOrderError):
            session.ingest_observation(
                Observation(
                    url=early_window_urls[1], anomaly=Anomaly.DNS,
                    detected=False, as_path=(1, 3), timestamp=0,
                    measurement_id=2,
                )
            )
        session.close()

    def test_run_after_restore_rejected(
        self, tmp_path, tiny_world, tiny_dataset
    ):
        """run() is a fresh-backend workload: mixing it with restored or
        already-ingested state would silently drop or double-count."""
        session = LocalizationSession.for_world(tiny_world, TINY_CONFIG)
        for measurement in tiny_dataset[:10]:
            session.ingest_measurement(measurement)
        path = tmp_path / "restored.ckpt"
        session.checkpoint(path)
        restored = LocalizationSession.restore(path, world=tiny_world)
        with pytest.raises(RuntimeError):
            restored.run()

    def test_stream_rejects_no_churn(self):
        session = LocalizationSession(
            SessionConfig(preset="tiny", churn="without")
        )
        with pytest.raises(ValueError):
            session.stream()

    def test_subscribe_after_first_use_rejected(
        self, tiny_world, tiny_dataset
    ):
        session = LocalizationSession.for_world(tiny_world, TINY_CONFIG)
        session.ingest_measurement(tiny_dataset[0])
        with pytest.raises(RuntimeError):
            session.subscribe(lambda event: None)

    def test_world_session_binding(self, tiny_world, tiny_dataset,
                                   tiny_batch):
        session = tiny_world.session()
        assert session.world is tiny_world
        assert session.replay(tiny_dataset).to_dict() == (
            tiny_batch.to_dict()
        )

    def test_backend_context_factory(self, tiny_world):
        context = BackendContext(
            config=SessionConfig(preset="tiny", seed=7),
            ip2as=tiny_world.ip2as,
            country_by_asn=tiny_world.country_by_asn,
        )
        assert isinstance(InlineBackend(context), InlineBackend)
        sharded_context = BackendContext(
            config=SessionConfig(
                preset="tiny", seed=7, execution=_sharded(2)
            ),
            ip2as=tiny_world.ip2as,
            country_by_asn=tiny_world.country_by_asn,
        )
        backend = ShardedBackend(sharded_context)
        assert backend.shards == 2
        backend.close()
