"""The placement layer: partition maps, autoscaling, retry dialing.

Pure unit tests — no worker processes.  The live-migration paths the
maps drive (slice extraction, transfer, commit, byte-identical drains)
are pinned in ``tests/test_rebalance.py``; here we pin the data layer:

- :class:`PartitionMap` — deterministic ring assignment, minimal
  movement on resize, override pin/unpin, epoch bumps, wire round-trip;
- :class:`Autoscaler` — the constant thresholds, bounds, cadence and
  cooldown, with injected signals and clock;
- :func:`retry_dial` — the one shared connect-retry loop (backoff,
  jitter bounds, deadline message, non-OSError passthrough).
"""

from __future__ import annotations

import pytest

from repro.api.config import ExecutionPolicy
from repro.api.placement import (
    CHECK_EVERY,
    COOLDOWN,
    DEFAULT_VNODES,
    SCALE_DOWN_LAG,
    SCALE_UP_LAG,
    SCALE_UP_QUEUE,
    Autoscaler,
    AutoscalePolicy,
    PartitionMap,
    bucket_hash,
)
from repro.api.transport import TransportError, retry_dial

PAIRS = [
    (f"http://site{index}.example/", anomaly)
    for index in range(96)
    for anomaly in ("dns", "tcp")
]


class TestPartitionMap:
    def test_ring_is_deterministic_across_instances(self):
        one, two = PartitionMap(4), PartitionMap(4)
        assert one.assignments(PAIRS) == two.assignments(PAIRS)

    def test_all_shards_receive_buckets(self):
        counts = PartitionMap(4).bucket_counts(PAIRS)
        assert len(counts) == 4
        assert all(count > 0 for count in counts)
        assert sum(counts) == len(PAIRS)

    def test_granularity_free_routing(self):
        # The key is the (URL, anomaly) pair alone — every granularity
        # of one pair must co-locate, which shard_for guarantees by
        # construction (no window in the signature).
        placement = PartitionMap(4)
        assert placement.shard_for(
            "http://x.example/", "dns"
        ) == placement.shard_for("http://x.example/", "dns")

    def test_resize_moves_a_minority(self):
        # The consistent-hash property the whole design leans on: going
        # 4 → 5 shards must move roughly 1/5 of the pairs, not reshuffle
        # almost everything like the old modulo layout did.
        old = PartitionMap(4)
        moved = old.moved_pairs(old.with_shards(5), PAIRS)
        assert 0 < len(moved) < len(PAIRS) // 2
        kept = [pair for pair in PAIRS if pair not in moved]
        new = old.with_shards(5)
        for pair in kept:
            assert old.shard_for(*pair) == new.shard_for(*pair)

    def test_modulo_layout_would_move_a_majority(self):
        # Contrast pin: the hash-modulo layout reshuffles most pairs on
        # the same resize — the reason placement is a ring.
        moved = sum(
            1
            for url, anomaly in PAIRS
            if bucket_hash(url, anomaly) % 4 != bucket_hash(url, anomaly) % 5
        )
        assert moved > len(PAIRS) // 2

    def test_with_shards_bumps_epoch_and_prunes_overrides(self):
        pinned = PAIRS[0]
        placement = PartitionMap(4).with_overrides({pinned: 3})
        assert placement.epoch == 2
        assert placement.shard_for(*pinned) == 3
        shrunk = placement.with_shards(3)
        assert shrunk.epoch == 3
        # The override pointed at the removed shard 3: back to the ring.
        assert pinned not in shrunk.overrides
        assert 0 <= shrunk.shard_for(*pinned) < 3

    def test_override_pin_and_unpin(self):
        pair = PAIRS[1]
        placement = PartitionMap(4)
        ring_home = placement.shard_for(*pair)
        target = (ring_home + 1) % 4
        pinned = placement.with_overrides({pair: target})
        assert pinned.shard_for(*pair) == target
        unpinned = pinned.with_overrides({pair: None})
        assert unpinned.shard_for(*pair) == ring_home
        assert unpinned.overrides == {}
        assert unpinned.epoch == 3

    def test_override_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="outside shards"):
            PartitionMap(2, overrides={PAIRS[0]: 2})

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            PartitionMap(0)
        with pytest.raises(ValueError):
            PartitionMap(2, epoch=0)
        with pytest.raises(ValueError):
            PartitionMap(2, vnodes=0)

    def test_dict_round_trip(self):
        placement = PartitionMap(
            3, epoch=7, overrides={PAIRS[2]: 1}, vnodes=32
        )
        clone = PartitionMap.from_dict(placement.to_dict())
        assert clone == placement
        assert clone.assignments(PAIRS) == placement.assignments(PAIRS)
        with pytest.raises(ValueError, match="placement format"):
            PartitionMap.from_dict({"format": 99, "shards": 2, "epoch": 1})

    def test_single_shard_owns_everything(self):
        assert PartitionMap(1).bucket_counts(PAIRS) == [len(PAIRS)]


class _FakeBackend:
    def __init__(self, shards):
        self.shards = shards


class _FakeSession:
    """Records scale actions; mirrors them into the backend count."""

    def __init__(self, shards=2):
        self.backend = _FakeBackend(shards)
        self.calls = []

    def add_shard(self):
        self.backend.shards += 1
        self.calls.append("add")

    def remove_shard(self):
        self.backend.shards -= 1
        self.calls.append("remove")


def _scaler(session, signals, clock, **policy):
    policy.setdefault("enabled", True)
    return Autoscaler(
        session, AutoscalePolicy(**policy), signals=signals, clock=clock
    )


def _load(*entries):
    return [
        {"shard": index, "lag": lag, "queue": queue}
        for index, (lag, queue) in enumerate(entries)
    ]


class TestAutoscaler:
    def test_disabled_never_acts(self):
        session = _FakeSession()
        scaler = _scaler(
            session,
            lambda: _load((99.0, 9), (99.0, 9)),
            lambda: 0.0,
            enabled=False,
        )
        assert scaler.poll() is None
        assert session.calls == []

    def test_scales_up_on_lag(self):
        session = _FakeSession(2)
        scaler = _scaler(
            session,
            lambda: _load((0.0, 0), (SCALE_UP_LAG, 0)),
            lambda: 0.0,
        )
        assert scaler.poll() == "up"
        assert session.calls == ["add"]
        assert scaler.actions == [("up", 3)]

    def test_scales_up_on_queue(self):
        session = _FakeSession(2)
        scaler = _scaler(
            session,
            lambda: _load((0.0, SCALE_UP_QUEUE), (0.0, 0)),
            lambda: 0.0,
        )
        assert scaler.poll() == "up"

    def test_holds_below_both_thresholds(self):
        session = _FakeSession(2)
        scaler = _scaler(
            session,
            lambda: _load(
                (SCALE_UP_LAG - 1.0, SCALE_UP_QUEUE - 1), (0.0, 0)
            ),
            lambda: 0.0,
        )
        assert scaler.poll() is None
        assert session.calls == []

    def test_scales_down_when_idle(self):
        session = _FakeSession(3)
        scaler = _scaler(
            session,
            lambda: _load((0.0, 0), (SCALE_DOWN_LAG, 0), (0.0, 0)),
            lambda: 0.0,
        )
        assert scaler.poll() == "down"
        assert session.calls == ["remove"]

    def test_respects_bounds(self):
        session = _FakeSession(4)
        scaler = _scaler(
            session,
            lambda: _load(*[(99.0, 9)] * 4),
            lambda: 0.0,
            max_shards=4,
        )
        assert scaler.poll() is None
        session = _FakeSession(1)
        scaler = _scaler(session, lambda: _load((0.0, 0)), lambda: 0.0)
        assert scaler.poll() is None
        assert session.calls == []

    def test_live_backend_count_beats_stale_signals(self):
        # An external scrape can lag a scale action we just took; the
        # live backend's shard count must bound the decision, or a
        # stale reading would blow straight past max_shards.
        session = _FakeSession(4)
        scaler = _scaler(
            session,
            lambda: _load((99.0, 9)),   # stale: claims one shard
            lambda: 0.0,
            max_shards=4,
        )
        assert scaler.poll() is None

    def test_check_every_rate_limits(self):
        # The first poll sees a quiet fleet and takes no action, so no
        # cooldown runs: only the check window can hold the next poll.
        session = _FakeSession(2)
        now = [0.0]
        busy = [False]
        scaler = _scaler(
            session,
            lambda: _load(
                *[(99.0, 9) if busy[0] else (SCALE_UP_LAG - 1.0, 1)] * 2
            ),
            lambda: now[0],
            max_shards=8,
        )
        assert scaler.poll() is None
        busy[0] = True
        now[0] = CHECK_EVERY / 2
        assert scaler.poll() is None      # inside the check window
        assert session.calls == []
        now[0] = CHECK_EVERY
        assert scaler.poll() == "up"

    def test_cooldown_spaces_actions(self):
        session = _FakeSession(2)
        now = [0.0]
        scaler = _scaler(
            session,
            lambda: _load((99.0, 9), (99.0, 9)),
            lambda: now[0],
        )
        assert scaler.poll() == "up"
        now[0] = CHECK_EVERY
        assert scaler.poll() is None      # checked, but cooling down
        now[0] = COOLDOWN
        assert scaler.poll() == "up"
        assert session.calls == ["add", "add"]

    def test_empty_signals_are_a_no_op(self):
        session = _FakeSession(2)
        scaler = _scaler(session, lambda: [], lambda: 0.0)
        assert scaler.poll() is None


class TestAutoscaleConfig:
    def test_policy_round_trips_through_execution(self):
        policy = ExecutionPolicy(
            backend="sharded",
            shards=2,
            autoscale=AutoscalePolicy(enabled=True, max_shards=5),
        )
        clone = ExecutionPolicy.from_dict(policy.to_dict())
        assert clone == policy
        assert clone.autoscale.max_shards == 5

    def test_policy_validation(self):
        with pytest.raises(ValueError, match="max_shards"):
            AutoscalePolicy(max_shards=0)


class _Uniform:
    """A fake rng pinning uniform() to one end of its range."""

    def __init__(self, pick):
        self.pick = pick
        self.ranges = []

    def uniform(self, low, high):
        self.ranges.append((low, high))
        return low if self.pick == "low" else high


class TestRetryDial:
    def test_returns_first_success(self):
        calls = []
        assert retry_dial(lambda: calls.append(1) or "sock") == "sock"
        assert calls == [1]

    def test_retries_transient_oserror(self):
        attempts = []
        slept = []

        def connect():
            attempts.append(1)
            if len(attempts) < 3:
                raise OSError("refused")
            return "sock"

        rng = _Uniform("low")
        assert (
            retry_dial(
                connect,
                retry_for=30.0,
                base_delay=0.05,
                rng=rng,
                clock=lambda: 0.0,
                sleep=slept.append,
            )
            == "sock"
        )
        assert len(attempts) == 3
        # Exponential backoff at the low jitter edge: 0.05·0.75, 0.1·0.75.
        assert slept == pytest.approx([0.0375, 0.075])
        assert rng.ranges == [(0.75, 1.25)] * 2

    def test_deadline_raises_one_actionable_line(self):
        now = [0.0]

        def connect():
            now[0] += 10.0
            raise OSError("refused")

        with pytest.raises(TransportError) as excinfo:
            retry_dial(
                connect,
                retry_for=5.0,
                describe="the daemon at 127.0.0.1:7700",
                hint="start repro-serve",
                clock=lambda: now[0],
                sleep=lambda delay: None,
            )
        message = str(excinfo.value)
        assert "the daemon at 127.0.0.1:7700" in message
        assert "1 attempt" in message
        assert "refused" in message
        assert "start repro-serve" in message

    def test_delay_caps_at_max(self):
        slept = []
        attempts = []

        def connect():
            attempts.append(1)
            if len(attempts) < 8:
                raise OSError("refused")
            return "sock"

        retry_dial(
            connect,
            retry_for=30.0,
            base_delay=0.1,
            max_delay=0.4,
            rng=_Uniform("high"),
            jitter=0.0,
            clock=lambda: 0.0,
            sleep=slept.append,
        )
        assert max(slept) == pytest.approx(0.4)
        assert slept == pytest.approx(
            [0.1, 0.2, 0.4, 0.4, 0.4, 0.4, 0.4]
        )

    def test_non_oserror_propagates(self):
        def connect():
            raise RuntimeError("bug")

        with pytest.raises(RuntimeError, match="bug"):
            retry_dial(connect, retry_for=30.0)


def test_default_vnodes_balance():
    # The docstring's promise: at DEFAULT_VNODES the heaviest shard
    # carries at most ~2x the lightest over a few hundred pairs.
    counts = PartitionMap(4, vnodes=DEFAULT_VNODES).bucket_counts(PAIRS)
    assert max(counts) <= 2 * min(counts)
