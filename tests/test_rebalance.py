"""Live shard rebalance: byte-identical drains through every migration.

The elastic-sharding contract: a mid-stream rebalance — shard add,
shard remove, hot-bucket override migration, even one racing a worker
SIGKILL — never changes a single drained byte relative to the same feed
run uninterrupted inline.  The merge is keyed on the parent tracker's
global creation order, placement only decides *where* a bucket's state
lives, and the migration moves that state (problems, confirmations,
identifications, replay machinery) wholesale.

Pinned here across 1→2, 2→4 and 4→2 worker transitions, both churn
modes, both transports, plus the session-level ``add_shard`` /
``remove_shard`` verbs, the rebalance gates, and epoch/metrics
bookkeeping.
"""

from __future__ import annotations

import time

import pytest

from repro.api import ExecutionPolicy, LocalizationSession, SessionConfig
from repro.api.backends import (
    BackendContext,
    BackendError,
    ShardedBackend,
)
from repro.api.placement import PartitionMap
from repro.core.observations import build_observations, first_path_only
from repro.core.pipeline import PipelineConfig
from repro.stream.engine import StreamingLocalizer


def _policy(shards, **overrides):
    overrides.setdefault("chunk_size", 32)
    return ExecutionPolicy(backend="sharded", shards=shards, **overrides)


@pytest.fixture(scope="module")
def tiny_observations(tiny_world, tiny_dataset):
    observations, _ = build_observations(tiny_dataset, tiny_world.ip2as)
    return observations


@pytest.fixture(scope="module")
def tiny_batch(tiny_world, tiny_dataset):
    return tiny_world.pipeline().run(tiny_dataset)


def _inline_drain(tiny_world, feed):
    engine = StreamingLocalizer(
        tiny_world.ip2as, tiny_world.country_by_asn, config=PipelineConfig()
    )
    for observation in feed:
        engine.ingest_observation(observation)
    return engine.drain()


def _sharded_backend(tiny_world, policy, subscribers=()):
    return ShardedBackend(
        BackendContext(
            config=SessionConfig(preset="tiny", seed=7, execution=policy),
            ip2as=tiny_world.ip2as,
            country_by_asn=tiny_world.country_by_asn,
            subscribers=list(subscribers),
        )
    )


def _feed(tiny_observations, churn):
    return (
        tiny_observations
        if churn == "with"
        else first_path_only(tiny_observations)
    )


class TestMidStreamRebalance:
    """Ingest half, resize the fleet, ingest the rest: drains pinned."""

    @pytest.mark.parametrize("transport", ["pipe", "socket"])
    @pytest.mark.parametrize("churn", ["with", "without"])
    @pytest.mark.parametrize(
        "old,new", [(1, 2), (2, 4), (4, 2)], ids=["1to2", "2to4", "4to2"]
    )
    def test_resize_drains_byte_identical(
        self, tiny_world, tiny_observations, old, new, churn, transport
    ):
        feed = _feed(tiny_observations, churn)
        reference = _inline_drain(tiny_world, feed)
        backend = _sharded_backend(
            tiny_world, _policy(old, transport=transport)
        )
        half = len(feed) // 2
        for observation in feed[:half]:
            backend.ingest_observation(observation)
        report = backend.rebalance(backend.placement.with_shards(new))
        assert report["shards"] == new
        assert backend.shards == new
        assert backend.placement.epoch == 2
        for observation in feed[half:]:
            backend.ingest_observation(observation)
        assert backend.drain().to_dict(include_observations=True) == (
            reference.to_dict(include_observations=True)
        )

    def test_repeated_rebalances_one_stream(
        self, tiny_world, tiny_observations
    ):
        """1 → 2 → 3 → 2 across one stream, a rebalance per quarter."""
        feed = tiny_observations
        reference = _inline_drain(tiny_world, feed)
        backend = _sharded_backend(tiny_world, _policy(1))
        quarter = len(feed) // 4
        marks = {quarter: 2, 2 * quarter: 3, 3 * quarter: 2}
        for index, observation in enumerate(feed):
            target = marks.get(index)
            if target is not None:
                backend.rebalance(backend.placement.with_shards(target))
            backend.ingest_observation(observation)
        assert backend.placement.epoch == 4
        assert backend.drain().to_dict() == reference.to_dict()

    def test_hot_bucket_override_migration(
        self, tiny_world, tiny_observations
    ):
        """Pin one live pair to the other shard mid-stream."""
        feed = tiny_observations
        reference = _inline_drain(tiny_world, feed)
        backend = _sharded_backend(tiny_world, _policy(2))
        half = len(feed) // 2
        for observation in feed[:half]:
            backend.ingest_observation(observation)
        pairs = backend._known_pairs()
        assert pairs
        pair = sorted(pairs)[0]
        home = backend.placement.shard_for(*pair)
        target = (home + 1) % 2
        report = backend.rebalance(
            backend.placement.with_overrides({pair: target})
        )
        assert report["moved_buckets"] >= 1
        assert backend.placement.shard_for(*pair) == target
        for observation in feed[half:]:
            backend.ingest_observation(observation)
        assert backend.drain().to_dict() == reference.to_dict()
        status = backend.placement_status()
        assert status["overrides"] == 1
        assert backend.placement.overrides == {pair: target}

    def test_rebalance_racing_worker_sigkill(
        self, tiny_world, tiny_observations
    ):
        """SIGKILL a worker, then immediately rebalance 2 → 3: the
        migration's own frames drive dead-shard recovery first (begin /
        fetch replay through the logged baseline), and the drain still
        matches inline."""
        feed = tiny_observations
        reference = _inline_drain(tiny_world, feed)
        backend = _sharded_backend(tiny_world, _policy(2))
        half = len(feed) // 2
        for observation in feed[:half]:
            backend.ingest_observation(observation)
        backend._ensure_workers()[0].process.kill()
        time.sleep(0.05)
        backend.rebalance(backend.placement.with_shards(3))
        assert backend.recoveries >= 1
        for observation in feed[half:]:
            backend.ingest_observation(observation)
        assert backend.drain().to_dict() == reference.to_dict()

    def test_events_exactly_once_across_rebalance(
        self, tiny_world, tiny_observations
    ):
        """Merged verdict sequences stay strictly increasing through a
        grow and a shrink — no replayed or dropped events."""
        feed = tiny_observations
        events = []
        backend = _sharded_backend(
            tiny_world, _policy(2), subscribers=[events.append]
        )
        third = len(feed) // 3
        for index, observation in enumerate(feed):
            if index == third:
                backend.rebalance(backend.placement.with_shards(4))
            elif index == 2 * third:
                backend.rebalance(backend.placement.with_shards(2))
            backend.ingest_observation(observation)
        backend.drain()
        assert events
        sequences = [event.sequence for event in events]
        assert all(a < b for a, b in zip(sequences, sequences[1:]))


class TestSessionVerbs:
    def test_add_and_remove_shard(self, tiny_world, tiny_dataset, tiny_batch):
        session = LocalizationSession.for_world(
            tiny_world,
            SessionConfig(preset="tiny", seed=7, execution=_policy(1)),
        )
        # One grow mid-stream, one shrink right before the drain.
        half = len(tiny_dataset) // 2
        for index, measurement in enumerate(tiny_dataset):
            if index == half:
                session.add_shard()
            session.ingest_measurement(measurement)
        assert session.backend.shards == 2
        session.remove_shard()
        assert session.backend.shards == 1
        assert session.drain().to_dict() == tiny_batch.to_dict()
        assert session.placement.epoch == 3

    def test_remove_last_shard_refused(self, tiny_world):
        session = LocalizationSession.for_world(
            tiny_world,
            SessionConfig(preset="tiny", seed=7, execution=_policy(1)),
        )
        with pytest.raises(BackendError, match="last shard"):
            session.remove_shard()

    def test_inline_session_has_no_placement(self, tiny_world):
        session = LocalizationSession.for_world(
            tiny_world, SessionConfig(preset="tiny", seed=7)
        )
        assert session.placement is None
        with pytest.raises(RuntimeError, match="sharded"):
            session.add_shard()

    def test_session_rebalance_with_overrides(
        self, tiny_world, tiny_dataset, tiny_batch
    ):
        session = LocalizationSession.for_world(
            tiny_world,
            SessionConfig(preset="tiny", seed=7, execution=_policy(2)),
        )
        half = len(tiny_dataset) // 2
        for measurement in tiny_dataset[:half]:
            session.ingest_measurement(measurement)
        pairs = session.backend._known_pairs()
        pair = sorted(pairs)[0]
        target = (session.placement.shard_for(*pair) + 1) % 2
        session.rebalance(overrides={pair: target})
        assert session.placement.shard_for(*pair) == target
        for measurement in tiny_dataset[half:]:
            session.ingest_measurement(measurement)
        assert session.drain().to_dict() == tiny_batch.to_dict()


class TestBookkeeping:
    def test_epoch_autoforwards_on_stale_map(
        self, tiny_world, tiny_observations
    ):
        """A caller handing back a map with a stale epoch gets the next
        epoch, never a rewind — workers dedup migrations by epoch."""
        backend = _sharded_backend(tiny_world, _policy(2))
        for observation in tiny_observations[:32]:
            backend.ingest_observation(observation)
        stale = PartitionMap(3)        # epoch 1, same as the live map
        backend.rebalance(stale)
        assert backend.placement.epoch == 2
        assert backend.placement.shards == 3
        backend.close()

    def test_placement_status_shape(self, tiny_world, tiny_observations):
        backend = _sharded_backend(tiny_world, _policy(2))
        for observation in tiny_observations[:64]:
            backend.ingest_observation(observation)
        backend.rebalance(backend.placement.with_shards(3))
        status = backend.placement_status()
        assert status["epoch"] == 2
        assert status["shards"] == 3
        assert status["rebalances"] == 1
        assert status["moved_buckets"] >= 0
        assert status["last_rebalance"] is not None
        assert len(status["bucket_counts"]) == 3
        backend.close()

    def test_checkpoint_after_rebalance_restores(
        self, tiny_world, tiny_observations
    ):
        """A state document captured after a grow restores into a fresh
        backend (whose map starts at the config's shard count) and
        drains identically — placement never leaks into the bytes."""
        feed = tiny_observations
        reference = _inline_drain(tiny_world, feed)
        backend = _sharded_backend(tiny_world, _policy(2))
        half = len(feed) // 2
        for observation in feed[:half]:
            backend.ingest_observation(observation)
        backend.rebalance(backend.placement.with_shards(3))
        state = backend.state()
        backend.close()
        restored = _sharded_backend(tiny_world, _policy(2))
        restored.restore(state)
        for observation in feed[half:]:
            restored.ingest_observation(observation)
        assert restored.drain().to_dict() == reference.to_dict()
