"""Tests for the churn engine and path oracle."""

import pytest

from repro.routing.churn import ChurnConfig, PairSchedule, PathOracle
from repro.routing.policy import is_valley_free
from repro.topology.generator import TopologyConfig, generate_topology
from repro.util.timeutil import DAY

GRAPH = generate_topology(
    TopologyConfig(
        seed=4, country_codes=("US", "DE", "CN", "JP", "GB"), num_tier1=3
    )
)


def oracle(seed=0, **overrides) -> PathOracle:
    config = ChurnConfig(seed=seed, horizon=30 * DAY, **overrides)
    return PathOracle(GRAPH, config)


def sample_pair():
    asns = GRAPH.registry.asns
    return asns[-1], asns[-2]


class TestConfigValidation:
    def test_stable_fraction_bounds(self):
        with pytest.raises(ValueError):
            ChurnConfig(stable_fraction=1.5)

    def test_mixture_bucket_validation(self):
        with pytest.raises(ValueError):
            ChurnConfig(rate_mixture=((0.5, 0.0, 1.0),))
        with pytest.raises(ValueError):
            ChurnConfig(rate_mixture=((0.5, 2.0, 1.0),))

    def test_mixture_mass_bounded(self):
        with pytest.raises(ValueError):
            ChurnConfig(stable_fraction=0.5, rate_mixture=((0.6, 1.0, 2.0),))

    def test_empty_mixture_rejected(self):
        with pytest.raises(ValueError):
            ChurnConfig(rate_mixture=())

    def test_horizon_positive(self):
        with pytest.raises(ValueError):
            ChurnConfig(horizon=0)


class TestAlternatives:
    def test_alternatives_are_distinct_valley_free_paths(self):
        orc = oracle()
        src, dst = sample_pair()
        alternatives = orc.alternatives_for(src, dst)
        assert alternatives
        assert len(set(alternatives)) == len(alternatives)
        for path in alternatives:
            assert path[0] == src and path[-1] == dst
            assert is_valley_free(GRAPH, path)

    def test_canonical_first(self):
        orc = oracle()
        src, dst = sample_pair()
        alternatives = orc.alternatives_for(src, dst)
        canonical = orc.routes.routing_table(dst, salt=0).path_from(src)
        assert alternatives[0] == canonical


class TestSchedules:
    def test_deterministic(self):
        src, dst = sample_pair()
        a = oracle(seed=9).schedule_for(src, dst)
        b = oracle(seed=9).schedule_for(src, dst)
        assert a.switch_times == b.switch_times
        assert a.choices == b.choices

    def test_cached(self):
        orc = oracle()
        src, dst = sample_pair()
        assert orc.schedule_for(src, dst) is orc.schedule_for(src, dst)
        assert len(orc._schedules) == 1

    def test_index_at_before_first_switch(self):
        schedule = PairSchedule(1, 2, [(1, 2), (1, 3, 2)], [100], [1])
        assert schedule.index_at(50) == 0
        assert schedule.index_at(100) == 1
        assert schedule.index_at(500) == 1

    def test_path_at_tracks_switches(self):
        schedule = PairSchedule(
            1, 2, [(1, 2), (1, 3, 2)], [100, 200], [1, 0]
        )
        assert schedule.path_at(0) == (1, 2)
        assert schedule.path_at(150) == (1, 3, 2)
        assert schedule.path_at(250) == (1, 2)

    def test_distinct_paths_in_window(self):
        schedule = PairSchedule(
            1, 2, [(1, 2), (1, 3, 2)], [100, 200], [1, 0]
        )
        assert schedule.distinct_paths_in(0, 50) == [(1, 2)]
        assert set(schedule.distinct_paths_in(0, 300)) == {(1, 2), (1, 3, 2)}
        # window straddling only the second switch sees both paths
        assert set(schedule.distinct_paths_in(150, 250)) == {(1, 3, 2), (1, 2)}

    def test_stable_world_never_churns(self):
        orc = oracle(stable_fraction=1.0, rate_mixture=((0.0, 1.0, 2.0),))
        src, dst = sample_pair()
        assert not orc.schedule_for(src, dst).switch_times

    def test_churn_fraction_statistics(self):
        orc = oracle(seed=11)
        churning = total = 0
        asns = GRAPH.registry.asns
        for src in asns[:12]:
            for dst in asns[-12:]:
                if src == dst:
                    continue
                schedule = orc.schedule_for(src, dst)
                if len(schedule.alternatives) <= 1:
                    continue
                total += 1
                if schedule.switch_times:
                    churning += 1
        # stable_fraction=0.33 => about two thirds of multi-path pairs churn
        assert total > 30
        assert 0.4 < churning / total < 0.9


class TestOracle:
    def test_aspath_at_matches_schedule(self):
        orc = oracle()
        src, dst = sample_pair()
        schedule = orc.schedule_for(src, dst)
        for t in (0, DAY, 10 * DAY):
            assert orc.aspath_at(src, dst, t) == schedule.path_at(t)

    def test_same_src_dst(self):
        orc = oracle()
        src, _ = sample_pair()
        assert orc.aspath_at(src, src, 0) == (src,)

    def test_previous_path_none_before_any_switch(self):
        orc = oracle(stable_fraction=1.0, rate_mixture=((0.0, 1.0, 2.0),))
        src, dst = sample_pair()
        assert orc.previous_path(src, dst, 10 * DAY) is None

    def test_previous_path_after_switch(self):
        orc = oracle(
            seed=13,
            stable_fraction=0.0,
            rate_mixture=((1.0, 5.0, 10.0),),
        )
        src, dst = sample_pair()
        schedule = orc.schedule_for(src, dst)
        if not schedule.switch_times:
            pytest.skip("pair has one alternative only")
        t = schedule.switch_times[0] + 1
        previous = orc.previous_path(src, dst, t)
        assert previous == schedule.alternatives[0]
        assert previous != schedule.path_at(t) or len(schedule.alternatives) == 1
