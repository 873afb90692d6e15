"""Tests for tomography problem construction and solving (§3.1-3.2).

Crafted observation sets verify the three-way classification (0 / 1 / 2+
solutions), exact censor identification, definite-non-censor elimination,
and the reduction fraction — cross-checked against brute-force enumeration
where the instances are small.
"""

import random

import pytest

from repro.anomaly import Anomaly
from repro.core.clauses import PathLedger
from repro.core.observations import Observation
from repro.core.problem import (
    Closure,
    ProblemKey,
    ProblemSolveCache,
    SolutionStatus,
    TomographyProblem,
)
from repro.sat.simplify import propagate_units
from repro.util.timeutil import Granularity, window_of

URL = "http://x.com/"


def obs(path, detected, timestamp=10, anomaly=Anomaly.DNS):
    return Observation(
        url=URL,
        anomaly=anomaly,
        detected=detected,
        as_path=tuple(path),
        timestamp=timestamp,
        measurement_id=0,
    )


def key(anomaly=Anomaly.DNS, timestamp=10):
    return ProblemKey(
        url=URL,
        anomaly=anomaly,
        granularity=Granularity.DAY,
        window=window_of(timestamp, Granularity.DAY),
    )


def solve(observations):
    return TomographyProblem(key(), observations).solve()


class TestValidation:
    def test_requires_observations(self):
        with pytest.raises(ValueError):
            TomographyProblem(key(), [])

    def test_rejects_wrong_url(self):
        wrong = Observation(
            url="http://other.com/",
            anomaly=Anomaly.DNS,
            detected=False,
            as_path=(1,),
            timestamp=10,
            measurement_id=0,
        )
        with pytest.raises(ValueError):
            TomographyProblem(key(), [wrong])

    def test_rejects_out_of_window(self):
        late = obs([1, 2], False, timestamp=10**6)
        with pytest.raises(ValueError):
            TomographyProblem(key(), [late])

    def test_empty_path_rejected(self):
        with pytest.raises(ValueError):
            obs([], False)


class TestClassification:
    def test_all_clean_is_unique_all_false(self):
        solution = solve([obs([1, 2, 3], False), obs([1, 4], False)])
        assert solution.status is SolutionStatus.UNIQUE
        assert solution.censors == frozenset()
        assert solution.eliminated == {1, 2, 3, 4}
        assert not solution.had_anomaly

    def test_exact_identification(self):
        # censored path (1,2,3); 1 and 2 exonerated by clean paths
        solution = solve(
            [
                obs([1, 2, 3], True),
                obs([1, 2, 4], False),
            ]
        )
        assert solution.status is SolutionStatus.UNIQUE
        assert solution.censors == {3}
        assert 1 in solution.eliminated and 2 in solution.eliminated

    def test_contradiction_is_unsat(self):
        solution = solve(
            [
                obs([1, 2, 3], True),
                obs([1, 2, 3], False),
            ]
        )
        assert solution.status is SolutionStatus.UNSATISFIABLE
        assert solution.num_solutions == 0

    def test_underconstrained_is_multiple(self):
        solution = solve([obs([1, 2, 3], True)])
        assert solution.status is SolutionStatus.MULTIPLE
        # 7 satisfying assignments over three free variables
        assert solution.num_solutions == 7
        assert solution.potential_censors == {1, 2, 3}
        assert solution.eliminated == frozenset()

    def test_partial_elimination(self):
        solution = solve(
            [
                obs([1, 2, 3], True),
                obs([1, 4], False),
            ]
        )
        assert solution.status is SolutionStatus.MULTIPLE
        assert solution.eliminated == {1, 4}
        assert solution.potential_censors == {2, 3}
        # (2), (3), (2,3) => three solutions
        assert solution.num_solutions == 3

    def test_backbone_certain_censor_in_multiple(self):
        # clause (2 v 3) with 3 exonerated forces 2; clause (4 v 5) leaves
        # ambiguity, so the problem is MULTIPLE but 2 is certain.
        solution = solve(
            [
                obs([2, 3], True),
                obs([3], False),
                obs([4, 5], True),
            ]
        )
        assert solution.status is SolutionStatus.MULTIPLE
        assert 2 in solution.censors
        assert solution.potential_censors >= {2, 4, 5}

    def test_two_censored_paths_intersection_not_forced(self):
        # (1,2,9) and (3,4,9) both censored: 9 is the plausible common
        # censor but NOT forced — models exist blaming 2 and 4.
        solution = solve(
            [
                obs([1, 2, 9], True),
                obs([3, 4, 9], True),
            ]
        )
        assert solution.status is SolutionStatus.MULTIPLE
        assert 9 in solution.potential_censors
        assert solution.censors == frozenset()


class TestReductionFraction:
    def test_defined_only_for_multiple(self):
        unique = solve([obs([1, 2], False)])
        assert unique.reduction_fraction is None
        multiple = solve([obs([1, 2, 3], True), obs([1], False)])
        assert multiple.reduction_fraction == pytest.approx(1 / 3)

    def test_zero_when_nothing_eliminated(self):
        solution = solve([obs([1, 2, 3], True)])
        assert solution.reduction_fraction == 0.0


class TestDeduplication:
    def test_identical_measurements_collapse(self):
        observations = [obs([1, 2, 3], True)] * 50 + [obs([1, 2], False)] * 50
        problem = TomographyProblem(key(), observations)
        cnf, _ = problem.build_cnf()
        # one positive clause + two negative units
        assert len(cnf.clauses) == 3

    def test_clause_counts_reported(self):
        solution = solve([obs([1, 2, 3], True), obs([1, 2], False)])
        assert solution.positive_clause_count == 1
        assert solution.clause_count == 3

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_ledger_clause_count_tracks_every_add(self, seed):
        """The running count equals the built CNF's clause count after
        every add, duplicates and repeated ASes within a path included."""
        rng = random.Random(seed)
        for _ in range(100):
            ases = range(1, rng.randint(2, 7) + 1)
            ledger = PathLedger()
            assert ledger.clause_count == 0
            for _ in range(rng.randint(1, 15)):
                path = tuple(rng.choices(ases, k=rng.randint(1, 4)))
                ledger.add(path, rng.random() < 0.4)
                cnf, _ = ledger.build_cnf()
                assert ledger.clause_count == len(cnf.clauses)
                assert ledger.positive_clause_count == len(ledger.positive)


class TestSolutionCap:
    def test_cap_respected(self):
        # a single positive clause over 6 ASes has 63 models
        solution = TomographyProblem(
            key(), [obs([1, 2, 3, 4, 5, 6], True)], solution_cap=10
        ).solve()
        assert solution.status is SolutionStatus.MULTIPLE
        assert solution.num_solutions == 10
        assert solution.capped

    def test_cap_does_not_affect_elimination(self):
        # backbone-based elimination is exact regardless of the cap
        solution = TomographyProblem(
            key(),
            [obs([1, 2, 3, 4, 5, 6], True), obs([1, 2], False)],
            solution_cap=4,
        ).solve()
        assert solution.eliminated == {1, 2}

    def test_residual_with_exactly_cap_models_is_capped(self):
        # (1 v 2) has 3 models; the residual count reports capped at >= cap
        solution = TomographyProblem(
            key(), [obs([1, 2], True)], solution_cap=3
        ).solve()
        assert solution.status is SolutionStatus.MULTIPLE
        assert solution.num_solutions == 3
        assert solution.capped

    def test_decided_with_exactly_cap_models_is_not_capped(self):
        # 1 forced True satisfies (1 v 2 v 3): 2 and 3 are free, 4 models;
        # the propagation-decided count reports capped only above cap
        solution = TomographyProblem(
            key(), [obs([1, 2, 3], True), obs([1], True)], solution_cap=4
        ).solve()
        assert solution.status is SolutionStatus.MULTIPLE
        assert solution.num_solutions == 4
        assert not solution.capped


def random_residual_problems(seed, count):
    """Small random problems whose solve reaches the residual count.

    2-8 ASes, 1-5 censored paths, 0-3 clean paths, caps in {1, 2, 3, 16}.
    """
    rng = random.Random(seed)
    found = 0
    while found < count:
        ases = list(range(1, rng.randint(2, 8) + 1))
        observations = [
            obs(rng.sample(ases, rng.randint(1, min(4, len(ases)))), True)
            for _ in range(rng.randint(1, 5))
        ] + [
            obs(rng.sample(ases, rng.randint(1, min(3, len(ases)))), False)
            for _ in range(rng.randint(0, 3))
        ]
        problem = TomographyProblem(
            key(), observations, solution_cap=rng.choice([1, 2, 3, 16])
        )
        cache = ProblemSolveCache()
        solution = problem.solve(cache)
        if cache.stats.cdcl_solves:
            found += 1
            yield problem, solution


class TestResidualMatchesReference:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_residuals_equal_reference(self, seed):
        for problem, solution in random_residual_problems(seed, 150):
            assert solution == problem.solve_reference(), (
                problem.observations, problem.solution_cap
            )


def close(entries):
    """A Closure fed ``(path, detected)`` entries in the given order."""
    closure = Closure()
    for path, detected in entries:
        closure.add(tuple(path), detected)
    return closure


def residual_sets(clauses):
    return sorted(sorted(frozenset(clause)) for clause in clauses)


class TestClosure:
    """The set-algebra closure equals the unit-propagation fixpoint."""

    def test_clean_paths_force_last_live_as(self):
        closure = close([((1, 2, 3), True), ((1,), False), ((3,), False)])
        assert not closure.conflict
        assert closure.forced_false == {1, 3}
        assert closure.forced_true == {2}
        assert closure.residual == []

    def test_conflict_on_fully_exonerated_censored_path(self):
        closure = close([((1, 2), True), ((1,), False), ((2,), False)])
        assert closure.conflict
        assert closure.residual == []

    def test_clean_path_through_forced_censor_conflicts(self):
        closure = close([((1, 2), True), ((1,), False), ((2, 3), False)])
        assert closure.conflict

    def test_conflict_is_terminal(self):
        closure = close([((1,), True), ((1,), False)])
        assert closure.conflict
        closure.add((2, 3), True)
        closure.add((4,), False)
        assert closure.residual == []
        assert closure.forced_false == set()

    def test_satisfied_path_is_noop(self):
        closure = close([((1,), True)])
        closure.add((1, 2), True)
        assert closure.residual == []
        assert closure.forced_true == {1}

    def test_residual_reduces_incrementally(self):
        closure = close([((1, 2, 3), True), ((1,), False)])
        assert closure.residual == [(2, 3)]
        closure.add((2,), False)
        assert closure.residual == []
        assert closure.forced_true == {3}

    def test_insertion_order_is_irrelevant(self):
        entries = [
            ((1, 2, 3), True), ((2,), False), ((3, 4), True),
            ((4,), False), ((1,), False),
        ]
        forward = close(entries)
        backward = close(list(reversed(entries)))
        assert forward.conflict == backward.conflict
        assert forward.forced_false == backward.forced_false
        assert forward.forced_true == backward.forced_true
        assert residual_sets(forward.residual) == residual_sets(
            backward.residual
        )

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_propagate_units(self, seed):
        """Random tomography-shaped ledgers, each fed in 3 shuffled
        orders, close to propagate_units over the ledger's CNF."""
        rng = random.Random(seed)
        outcomes = set()
        for _ in range(300):
            ases = range(1, rng.randint(2, 9) + 1)
            ledger = PathLedger()
            for detected, count in ((True, rng.randint(1, 6)),
                                    (False, rng.randint(0, 5))):
                for _ in range(count):
                    path = rng.choices(ases, k=rng.randint(1, 4))
                    ledger.add(tuple(path), detected)
            cnf, builder = ledger.build_cnf()
            reference = propagate_units(cnf)
            forced = {
                builder.name_of(var): value
                for var, value in reference.forced.items()
            }
            residual = residual_sets(
                [builder.name_of(abs(lit)) for lit in clause.literals]
                for clause in reference.residual
            )
            entries = list(ledger.entries)
            for _ in range(3):
                rng.shuffle(entries)
                closure = close(entries)
                assert closure.conflict == reference.conflict, entries
                if reference.conflict:
                    continue
                assert forced == {
                    **dict.fromkeys(closure.forced_false, False),
                    **dict.fromkeys(closure.forced_true, True),
                }, entries
                assert residual_sets(closure.residual) == residual, entries
            outcomes.add(
                "conflict" if reference.conflict
                else "residual" if reference.residual
                else "decided"
            )
        assert outcomes == {"conflict", "residual", "decided"}
