"""Tests for repro.util.rng."""

import pytest

from repro.util.rng import DeterministicRNG, derive_seed


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(1, "a", "b") == derive_seed(1, "a", "b")

    def test_labels_matter(self):
        assert derive_seed(1, "a") != derive_seed(1, "b")

    def test_base_seed_matters(self):
        assert derive_seed(1, "a") != derive_seed(2, "a")

    def test_label_boundaries_matter(self):
        # ("ab",) and ("a", "b") must not collide
        assert derive_seed(1, "ab") != derive_seed(1, "a", "b")

    def test_fits_in_64_bits(self):
        assert 0 <= derive_seed(123, "x") < 2**64


class TestDeterministicRNG:
    def test_same_labels_same_stream(self):
        a = DeterministicRNG(5, "traceroute")
        b = DeterministicRNG(5, "traceroute")
        assert [a.random() for _ in range(10)] == [b.random() for _ in range(10)]

    def test_different_labels_different_stream(self):
        a = DeterministicRNG(5, "x")
        b = DeterministicRNG(5, "y")
        assert [a.random() for _ in range(10)] != [b.random() for _ in range(10)]

    def test_chance_extremes(self):
        rng = DeterministicRNG(0)
        assert rng.chance(1.0) is True
        assert rng.chance(0.0) is False
        assert rng.chance(1.5) is True
        assert rng.chance(-0.5) is False

    def test_chance_statistics(self):
        rng = DeterministicRNG(0, "stats")
        hits = sum(1 for _ in range(20000) if rng.chance(0.25))
        assert 0.22 < hits / 20000 < 0.28

    def test_pick_from_empty_raises(self):
        with pytest.raises(ValueError):
            DeterministicRNG(0).pick([])

    def test_pick_single(self):
        assert DeterministicRNG(0).pick(["only"]) == "only"

    def test_pick_weighted_validates_lengths(self):
        with pytest.raises(ValueError):
            DeterministicRNG(0).pick_weighted([1, 2], [1.0])

    def test_pick_weighted_respects_weights(self):
        rng = DeterministicRNG(0, "weighted")
        picks = [rng.pick_weighted(["a", "b"], [9.0, 1.0]) for _ in range(5000)]
        assert picks.count("a") > 4000

    def test_subset_probability_one_keeps_all(self):
        rng = DeterministicRNG(0)
        assert rng.subset([1, 2, 3], 1.0) == [1, 2, 3]

    def test_sample_at_most_caps_at_population(self):
        rng = DeterministicRNG(0)
        assert sorted(rng.sample_at_most([1, 2, 3], 10)) == [1, 2, 3]

    def test_sample_at_most_zero(self):
        assert DeterministicRNG(0).sample_at_most([1, 2], 0) == []

    def test_exponential_jitter_respects_floor(self):
        rng = DeterministicRNG(0)
        for _ in range(100):
            assert rng.exponential_jitter(0.001, floor=0.5) >= 0.5

    def test_exponential_jitter_zero_mean(self):
        assert DeterministicRNG(0).exponential_jitter(0.0, floor=0.25) == 0.25

    def test_fork_is_deterministic(self):
        a = DeterministicRNG(5, "parent").fork("child")
        b = DeterministicRNG(5, "parent").fork("child")
        assert a.random() == b.random()

    def test_fork_independent_of_parent_consumption_order(self):
        parent = DeterministicRNG(5, "parent")
        child = parent.fork("child")
        first = child.random()
        # a fresh parent's fork produces the same child stream
        assert DeterministicRNG(5, "parent").fork("child").random() == first
