"""The streaming engine: batch equivalence, monotonicity, events, CLI.

The acceptance surface of the `repro.stream` subsystem:

- **equivalence guard** — draining a full tiny *and* small campaign
  through the engine yields per-problem statuses and identified censor
  ASNs identical to ``LocalizationPipeline.run`` (in fact the whole
  serialized result is byte-identical);
- **monotonicity guard** — a mid-stream snapshot never reports a censor
  the final batch result does not confirm, and per-problem eliminations
  never retract;
- incremental per-problem state agrees with the batch solve on every
  observation prefix;
- the drip feed (platform listener) sees exactly the campaign's
  measurement sequence;
- window close/reopen semantics, late-observation policies, and the
  CLI entry points.
"""

from __future__ import annotations

import json

import pytest

from repro.anomaly import Anomaly
from repro.api import LocalizationSession, SessionConfig
from repro.core.observations import Observation, build_observations
from repro.core.pipeline import PipelineConfig
from repro.core.problem import SolutionStatus, TomographyProblem
from repro.core.splitting import split_observations
from repro.runner import JobSpec, run_job
from repro.runner.store import ResultStore
from repro.scenario import build_world, tiny
from repro.stream import (
    StreamOrderError,
    StreamingLocalizer,
    VerdictKind,
    replay_dataset,
    stream_campaign,
)
from repro.stream.state import ProblemState, StreamStats
from repro.util.timeutil import DAY, Granularity, TimeWindow


def _engine_for(world, config=PipelineConfig()):
    return StreamingLocalizer(
        ip2as=world.ip2as,
        country_by_asn=world.country_by_asn,
        config=config,
    )


class TestBatchEquivalence:
    """The tentpole guarantee: stream drain == batch run, byte for byte."""

    def test_tiny_campaign_drained_equals_batch(
        self, tiny_world, tiny_dataset
    ):
        batch = tiny_world.pipeline().run(tiny_dataset)
        engine = _engine_for(tiny_world)
        replay_dataset(tiny_dataset, engine)
        stream = engine.drain()
        assert [s.status for s in stream.solutions] == [
            s.status for s in batch.solutions
        ]
        assert stream.identified_censor_asns == batch.identified_censor_asns
        # The strong form: the entire serialized result is identical,
        # including per-problem censor sets, groups, and reports.
        assert stream.to_dict(include_observations=True) == batch.to_dict(
            include_observations=True
        )

    def test_small_campaign_drained_equals_batch(
        self, small_world, small_dataset, small_result
    ):
        engine = _engine_for(small_world)
        replay_dataset(small_dataset, engine)
        stream = engine.drain()
        batch_statuses = {
            s.key: s.status.value for s in small_result.solutions
        }
        stream_statuses = {
            s.key: s.status.value for s in stream.solutions
        }
        assert stream_statuses == batch_statuses
        assert (
            stream.identified_censor_asns
            == small_result.identified_censor_asns
        )
        assert stream.to_dict() == small_result.to_dict()

    def test_without_churn_replay_matches_batch_ablation(
        self, tiny_world, tiny_dataset
    ):
        """The Figure-4 ablation replay drains byte-identical to
        ``run_without_churn`` (filtered observations, sorted order)."""
        batch = tiny_world.pipeline().run_without_churn(tiny_dataset)
        engine = _engine_for(tiny_world)
        replay_dataset(tiny_dataset, engine, without_churn=True)
        assert engine.drain().to_dict() == batch.to_dict()

    def test_replay_verifies_without_churn_job(self, tmp_path):
        job = JobSpec(
            preset="tiny", seed=9, churn="without", duration_days=3,
            num_urls=3, num_vantage_points=4,
        )
        store = ResultStore(tmp_path)
        store.put(run_job(job).record)
        outcome = LocalizationSession(
            SessionConfig.from_job(job)
        ).replay_stored(store)
        assert outcome.mismatches == ()
        assert outcome.verified is True

    def test_skip_anomaly_free_matches_batch(self, tiny_world, tiny_dataset):
        config = PipelineConfig(skip_anomaly_free_problems=True)
        batch = tiny_world.pipeline(config).run(tiny_dataset)
        engine = _engine_for(tiny_world, config)
        replay_dataset(tiny_dataset, engine)
        assert engine.drain().to_dict() == batch.to_dict()

    def test_single_granularity_matches_batch(self, tiny_world, tiny_dataset):
        config = PipelineConfig(granularities=(Granularity.WEEK,))
        batch = tiny_world.pipeline(config).run(tiny_dataset)
        engine = _engine_for(tiny_world, config)
        replay_dataset(tiny_dataset, engine)
        assert engine.drain().to_dict() == batch.to_dict()

    def test_drain_is_idempotent(self, tiny_world, tiny_dataset):
        engine = _engine_for(tiny_world)
        replay_dataset(tiny_dataset, engine)
        assert engine.drain() is engine.drain()
        with pytest.raises(RuntimeError):
            engine.ingest_measurement(tiny_dataset[0])


class TestMonotonicity:
    """Confirmed verdicts never retract under in-order ingestion."""

    def test_midstream_confirmations_subset_of_final(
        self, tiny_world, tiny_dataset
    ):
        batch = tiny_world.pipeline().run(tiny_dataset)
        final = set(batch.identified_censor_asns)
        engine = _engine_for(tiny_world)
        snapshots = []
        for index, measurement in enumerate(tiny_dataset):
            engine.ingest_measurement(measurement)
            if index % 10 == 0:
                snapshots.append(set(engine.identified_censor_asns))
        engine.drain()
        assert set(engine.identified_censor_asns) == final
        for snapshot in snapshots:
            assert snapshot <= final
        # ...and the confirmed set only ever grows.
        for earlier, later in zip(snapshots, snapshots[1:]):
            assert earlier <= later

    def test_eliminations_never_retract_while_satisfiable(
        self, tiny_world, tiny_dataset
    ):
        """While a problem stays satisfiable its eliminated set only grows;
        UNSAT (the 0-solutions terminal state) clears the sets — exactly as
        batch UNSAT solutions carry no elimination information — and is
        never left once entered."""
        engine = _engine_for(tiny_world)
        eliminated_by_key = {}
        unsat_keys = set()
        violations = []

        def check(event):
            if event.solution is None:
                return
            if event.solution.status is SolutionStatus.UNSATISFIABLE:
                unsat_keys.add(event.key)
                return
            if event.key in unsat_keys:
                violations.append((event.key, "left UNSAT"))
                return
            previous = eliminated_by_key.get(event.key, frozenset())
            current = event.solution.eliminated
            if not previous <= current:
                violations.append((event.key, previous, current))
            eliminated_by_key[event.key] = current

        engine.subscribe(check)
        replay_dataset(tiny_dataset, engine)
        engine.drain()
        assert not violations

    def test_censor_identified_only_at_window_close(
        self, tiny_world, tiny_dataset
    ):
        engine = _engine_for(tiny_world)
        events = []
        engine.subscribe(events.append)
        replay_dataset(tiny_dataset, engine)
        engine.drain()
        identified = [
            e for e in events if e.kind is VerdictKind.CENSOR_IDENTIFIED
        ]
        closed_keys = {
            e.key for e in events if e.kind is VerdictKind.WINDOW_CLOSED
        }
        assert identified, "expected at least one confirmation on tiny"
        for event in identified:
            assert event.key in closed_keys
        assert not [
            e for e in events if e.kind is VerdictKind.CENSOR_RETRACTED
        ]

    def test_closed_window_solutions_are_final(self, tiny_world, tiny_dataset):
        """A WINDOW_CLOSED verdict equals the batch solution for that key."""
        batch = tiny_world.pipeline().run(tiny_dataset)
        by_key = {s.key: s for s in batch.solutions}
        engine = _engine_for(tiny_world)
        closed = []
        engine.subscribe(
            lambda e: closed.append(e)
            if e.kind is VerdictKind.WINDOW_CLOSED
            else None
        )
        replay_dataset(tiny_dataset, engine)
        engine.drain()
        assert len(closed) == len(by_key)
        for event in closed:
            assert event.solution == by_key[event.key]


class TestIncrementalState:
    """Per-prefix snapshots agree with the batch solve on that prefix."""

    def test_prefix_snapshots_match_batch_solve(self, tiny_world, tiny_dataset):
        """Every anomalous problem, at every prefix that changed its ledger,
        snapshots to both the batch solve and the reference oracle."""
        observations, _ = build_observations(tiny_dataset, tiny_world.ip2as)
        groups = split_observations(observations)
        stats = StreamStats()
        checked = 0
        for key, group in groups.items():
            if not any(o.detected for o in group):
                continue
            state = ProblemState(key, solution_cap=16)
            for prefix_end in range(1, len(group) + 1):
                changed = state.add(group[prefix_end - 1])
                if not changed and prefix_end < len(group):
                    continue
                snapshot = state.snapshot(stats)
                prefix = TomographyProblem(key, group[:prefix_end])
                assert snapshot == prefix.solve(), (
                    f"{key} diverged from solve() at prefix {prefix_end}"
                )
                assert snapshot == prefix.solve_reference(), (
                    f"{key} diverged from solve_reference() at prefix "
                    f"{prefix_end}"
                )
            checked += 1
        assert checked > 12
        assert stats.propagation_decided > 0
        assert stats.fallback_solves > 0

    def test_duplicate_observations_are_noops(self):
        key = ProblemStateFactory.key()
        state = ProblemState(key, solution_cap=16)
        obs = ProblemStateFactory.observation(detected=True, path=(1, 2))
        assert state.add(obs)
        assert not state.add(obs)
        assert len(state.observations) == 2  # group keeps every arrival
        assert len(state.ledger) == 1


class ProblemStateFactory:
    """Hand-built observations for targeted window/ordering tests."""

    @staticmethod
    def key(
        granularity=Granularity.DAY, start=0, url="http://x/", anomaly=None
    ):
        from repro.core.splitting import ProblemKey

        return ProblemKey(
            url=url,
            anomaly=anomaly or Anomaly.RST,
            granularity=granularity,
            window=TimeWindow(start, start + granularity.seconds),
        )

    @staticmethod
    def observation(
        detected, path, timestamp=10, url="http://x/", anomaly=None
    ):
        return Observation(
            url=url,
            anomaly=anomaly or Anomaly.RST,
            detected=detected,
            as_path=tuple(path),
            timestamp=timestamp,
            measurement_id=0,
        )


class TestWindowLifecycle:
    def _engine(self, tiny_world, **kwargs):
        return StreamingLocalizer(
            ip2as=tiny_world.ip2as,
            country_by_asn=tiny_world.country_by_asn,
            config=PipelineConfig(granularities=(Granularity.DAY,)),
            **kwargs,
        )

    def test_watermark_closes_past_windows(self, tiny_world):
        engine = self._engine(tiny_world)
        make = ProblemStateFactory.observation
        engine.ingest_observation(make(True, (1, 2), timestamp=10))
        assert engine.open_problems == 1
        # An observation in day 2 pushes the watermark past day 0's end.
        engine.ingest_observation(make(False, (3, 4), timestamp=2 * DAY + 5))
        assert engine.closed_problems == 1
        assert engine.open_problems == 1

    def test_boundary_timestamp_opens_next_window(self, tiny_world):
        """t == DAY belongs to [DAY, 2*DAY), not [0, DAY) — and closes the
        earlier window, matching the batch bucketing exactly."""
        engine = self._engine(tiny_world)
        make = ProblemStateFactory.observation
        engine.ingest_observation(make(True, (1, 2), timestamp=0))
        engine.ingest_observation(make(True, (1, 2), timestamp=DAY))
        assert engine.closed_problems == 1
        assert engine.open_problems == 1
        keys = [k for k in (s.key for s in engine.drain().solutions)]
        assert {key.window.start for key in keys} == {0, DAY}

    def test_advance_closes_without_observation(self, tiny_world):
        engine = self._engine(tiny_world)
        make = ProblemStateFactory.observation
        engine.ingest_observation(make(True, (1, 2), timestamp=10))
        engine.advance(DAY)
        assert engine.closed_problems == 1

    def test_late_observation_reopens_and_retracts(self, tiny_world):
        engine = self._engine(tiny_world)
        events = []
        engine.subscribe(events.append)
        make = ProblemStateFactory.observation
        # Censored path (1, 2); 2 exonerated → AS1 uniquely identified.
        engine.ingest_observation(make(True, (1, 2), timestamp=10))
        engine.ingest_observation(make(False, (2, 3), timestamp=20))
        engine.advance(DAY)
        assert engine.identified_censor_asns == [1]
        # A late clean path through AS1 refutes the identification: the
        # problem becomes UNSAT and the confirmation is withdrawn.
        engine.ingest_observation(make(False, (1, 4), timestamp=30))
        assert engine.identified_censor_asns == []
        kinds = [e.kind for e in events]
        assert VerdictKind.CENSOR_RETRACTED in kinds
        result = engine.drain()
        assert [s.status for s in result.solutions] == [
            SolutionStatus.UNSATISFIABLE
        ]
        assert engine.stats.problems_reopened == 1

    def test_late_policy_error_raises(self, tiny_world):
        engine = self._engine(tiny_world, late_policy="error")
        make = ProblemStateFactory.observation
        engine.ingest_observation(make(True, (1, 2), timestamp=10))
        engine.advance(DAY)
        with pytest.raises(StreamOrderError):
            engine.ingest_observation(make(False, (1, 4), timestamp=30))

    def test_late_policy_error_raises_for_never_opened_window(
        self, tiny_world
    ):
        """Out-of-order detection must fire even when the late window
        never held data (a fresh bucket behind the watermark)."""
        engine = self._engine(tiny_world, late_policy="error")
        make = ProblemStateFactory.observation
        engine.ingest_observation(make(True, (1, 2), timestamp=2 * DAY + 5))
        with pytest.raises(StreamOrderError):
            engine.ingest_observation(
                make(False, (3, 4), timestamp=10, url="http://other/")
            )

    def test_retraction_drops_identification_log_entry(self, tiny_world):
        """A retracted censor must vanish from the time-to-localization
        log, not linger as a stale identification."""
        from repro.analysis.localization_time import TimeToLocalization

        engine = self._engine(tiny_world)
        make = ProblemStateFactory.observation
        engine.ingest_observation(make(True, (1, 2), timestamp=10))
        engine.ingest_observation(make(False, (2, 3), timestamp=20))
        engine.advance(DAY)
        assert [i.asn for i in engine.identifications] == [1]
        engine.ingest_observation(make(False, (1, 4), timestamp=30))
        assert engine.identifications == []
        ttl = TimeToLocalization.from_engine(engine)
        assert ttl.identified_asns == []

    def test_direct_observation_feed_counts_measurements_once(
        self, tiny_world, tiny_dataset
    ):
        """Observations sharing a measurement_id are one measurement in
        the stats, matching the measurement-level feed."""
        observations, _ = build_observations(tiny_dataset, tiny_world.ip2as)
        engine = _engine_for(tiny_world)
        for observation in observations:
            engine.ingest_observation(observation)
        assert engine.stats.observations == len(observations)
        assert engine.stats.measurements == len(
            {o.measurement_id for o in observations}
        )


class TestDripFeed:
    def test_platform_listener_sees_campaign_sequence(self):
        world = build_world(tiny(seed=5))
        engine = _engine_for(world)
        heard = []
        world.platform.add_listener(heard.append)
        dataset = stream_campaign(world, engine)
        world.platform.remove_listener(heard.append)
        assert [m.measurement_id for m in heard] == [
            m.measurement_id for m in dataset
        ]
        # Drip-fed drain equals a batch run over the same dataset.
        batch = world.pipeline().run(dataset)
        assert engine.drain().to_dict() == batch.to_dict()
        assert engine.stats.measurements == len(dataset)

    def test_replay_stored_job_verifies_record(self, tmp_path):
        job = JobSpec(
            preset="tiny", seed=11, duration_days=3, num_urls=3,
            num_vantage_points=4,
        )
        store = ResultStore(tmp_path)
        store.put(run_job(job).record)
        outcome = LocalizationSession(
            SessionConfig.from_job(job)
        ).replay_stored(store)
        assert outcome.verified is True
        assert outcome.mismatches == ()

    def test_replay_without_record_leaves_verified_none(self, tmp_path):
        job = JobSpec(
            preset="tiny", seed=12, duration_days=2, num_urls=2,
            num_vantage_points=3,
        )
        outcome = LocalizationSession(
            SessionConfig.from_job(job)
        ).replay_stored(ResultStore(tmp_path))
        assert outcome.verified is None


class TestCli:
    def test_stream_cli_fresh_verify(self, capsys):
        from repro.stream.cli import main

        code = main(
            [
                "--preset", "tiny", "--seed", "3", "--duration-days", "3",
                "--num-urls", "3", "--num-vantage-points", "4",
                "--events", "2", "--verify",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "byte-identical" in out

    def test_stream_cli_json(self, capsys):
        from repro.stream.cli import main

        code = main(
            [
                "--preset", "tiny", "--seed", "3", "--duration-days", "3",
                "--num-urls", "3", "--num-vantage-points", "4", "--json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["problems"] > 0
        assert "time_to_localization" in payload

    def test_runner_cli_stream_and_json_flags(self, tmp_path, capsys):
        from repro.runner.cli import main

        store = str(tmp_path / "store")
        args = [
            "--store", store, "sweep", "--name", "s", "--preset", "tiny",
            "--num-seeds", "1", "--duration-days", "3", "--num-urls", "3",
            "--num-vantage-points", "4",
        ]
        assert main(args) == 0
        capsys.readouterr()
        assert main(["--store", store, "report", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["aggregate"]["jobs"] == 1
        assert main(["--store", store, "perf", "--json"]) == 0
        perf = json.loads(capsys.readouterr().out)
        assert perf["jobs_with_perf"] == 1
        assert (
            main(
                ["--store", store, "stream", "--replay", "s", "--events", "0"]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "statuses + censors match" in out


class TestTimeToLocalization:
    def test_report_orders_and_flags_truth(self, tiny_world, tiny_dataset):
        from repro.analysis.localization_time import TimeToLocalization

        engine = _engine_for(tiny_world)
        replay_dataset(tiny_dataset, engine)
        engine.drain()
        truth = sorted(tiny_world.deployment.censor_asns)
        ttl = TimeToLocalization.from_engine(engine)
        payload = ttl.as_dict(truth)
        assert payload["identified"], "tiny should confirm a censor"
        counts = [e["measurements"] for e in payload["identified"]]
        assert counts == sorted(counts)
        rows = ttl.rows(truth, tiny_world.country_by_asn)
        assert len(rows) >= len(payload["identified"])
        for entry in payload["identified"]:
            assert entry["measurements"] <= engine.stats.measurements


class TestBucketKeyHash:
    """Bucket keys and ProblemKeys hash an Anomaly and a Granularity on
    every lookup; both use the C-level identity hash, not Enum's
    Python-level name hash."""

    @pytest.mark.parametrize("enum_type", [Anomaly, Granularity])
    def test_identity_hash(self, enum_type):
        assert enum_type.__hash__ is object.__hash__
        for member in enum_type:
            assert hash(member) == object.__hash__(member)

    @pytest.mark.parametrize("enum_type", [Anomaly, Granularity])
    def test_lookups_by_member(self, enum_type):
        members = list(enum_type)
        table = {member: member.value for member in members}
        assert len(table) == len(members)
        for member in members:
            assert table[member] == member.value
            assert table[enum_type(member.value)] == member.value
            assert member in set(members)
            assert (member, "url", 0) in {(m, "url", 0) for m in members}
        assert {members[0]} != {members[1]}
