"""Tests for the CDCL solver, including brute-force cross-checks."""

from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sat.cnf import CNF, Clause
from repro.sat.solver import Solver, check_model


def brute_force_satisfiable(cnf: CNF) -> bool:
    variables = sorted(cnf.variables())
    if not variables:
        return all(not clause.is_empty for clause in cnf.clauses)
    for values in product([False, True], repeat=len(variables)):
        assignment = dict(zip(variables, values))
        if all(
            clause.is_tautology or clause.satisfied_by(assignment)
            for clause in cnf.clauses
        ):
            return True
    return False


def random_cnf_strategy(max_vars=6, max_clauses=10):
    literal = st.integers(min_value=1, max_value=max_vars).flatmap(
        lambda v: st.sampled_from([v, -v])
    )
    clause = st.lists(literal, min_size=1, max_size=4)
    return st.lists(clause, min_size=0, max_size=max_clauses).map(
        lambda cls: CNF(max_vars, [Clause(c) for c in cls])
    )


class TestBasics:
    def test_empty_formula_is_sat(self):
        result = Solver(CNF(0, [])).solve()
        assert result.satisfiable

    def test_single_unit(self):
        cnf = CNF(1, [Clause([1])])
        result = Solver(cnf).solve()
        assert result.satisfiable
        assert result.model[1] is True

    def test_contradictory_units(self):
        cnf = CNF(1, [Clause([1]), Clause([-1])])
        assert not Solver(cnf).solve().satisfiable

    def test_empty_clause_unsat(self):
        cnf = CNF(1, [Clause([])])
        assert not Solver(cnf).solve().satisfiable

    def test_tautology_is_no_constraint(self):
        cnf = CNF(1, [Clause([1, -1])])
        assert Solver(cnf).solve().satisfiable

    def test_propagation_chain(self):
        # 1 and (−1∨2) and (−2∨3) force 3
        cnf = CNF(3, [Clause([1]), Clause([-1, 2]), Clause([-2, 3])])
        result = Solver(cnf).solve()
        assert result.satisfiable
        assert result.model == {1: True, 2: True, 3: True}

    def test_model_is_total(self):
        cnf = CNF(4, [Clause([1, 2])])
        result = Solver(cnf).solve()
        assert set(result.model) == {1, 2, 3, 4}

    def test_model_checks(self):
        cnf = CNF(3, [Clause([1, 2]), Clause([-1, 3]), Clause([-2, -3])])
        result = Solver(cnf).solve()
        assert result.satisfiable
        assert check_model(cnf, result.model)


class TestCraftedUnsat:
    def test_all_sign_combinations_over_two_vars(self):
        clauses = [Clause(list(c)) for c in ([1, 2], [1, -2], [-1, 2], [-1, -2])]
        assert not Solver(CNF(2, clauses)).solve().satisfiable

    def test_pigeonhole_3_pigeons_2_holes(self):
        # var p_ij: pigeon i in hole j -> vars 1..6 as (i-1)*2 + j
        def var(i, j):
            return (i - 1) * 2 + j

        clauses = []
        for i in (1, 2, 3):
            clauses.append(Clause([var(i, 1), var(i, 2)]))  # each pigeon placed
        for j in (1, 2):
            for i1, i2 in combinations((1, 2, 3), 2):
                clauses.append(Clause([-var(i1, j), -var(i2, j)]))
        assert not Solver(CNF(6, clauses)).solve().satisfiable


class TestAssumptions:
    def test_assumption_forces_value(self):
        cnf = CNF(2, [Clause([1, 2])])
        result = Solver(cnf).solve(assumptions=[-1])
        assert result.satisfiable
        assert result.model[1] is False
        assert result.model[2] is True

    def test_contradictory_assumption(self):
        cnf = CNF(1, [Clause([1])])
        assert not Solver(cnf).solve(assumptions=[-1]).satisfiable

    def test_assumptions_do_not_persist(self):
        cnf = CNF(1, [])
        solver = Solver(cnf)
        assert not solver.solve(assumptions=[1, -1]).satisfiable
        # without assumptions the formula is satisfiable again
        assert solver.solve().satisfiable

    def test_conflicting_assumption_pair(self):
        solver = Solver(CNF(2, [Clause([1, 2])]))
        assert not solver.solve(assumptions=[-1, -2]).satisfiable
        assert solver.solve(assumptions=[-1]).satisfiable

    def test_zero_assumption_rejected(self):
        with pytest.raises(ValueError):
            Solver(CNF(1, [])).solve(assumptions=[0])


class TestIncremental:
    def test_add_clause_after_solve(self):
        solver = Solver(CNF(2, [Clause([1, 2])]))
        assert solver.solve().satisfiable
        assert solver.add_clause([-1])
        assert solver.add_clause([-2]) is False or not solver.solve().satisfiable

    def test_blocking_clause_enumeration_terminates(self):
        solver = Solver(CNF(2, [Clause([1, 2])]))
        models = []
        while True:
            result = solver.solve()
            if not result.satisfiable:
                break
            models.append(dict(result.model))
            blocking = [(-v if val else v) for v, val in result.model.items()]
            if not solver.add_clause(blocking):
                break
        assert len(models) == 3  # (T,T), (T,F), (F,T)

    def test_add_clause_with_new_variable(self):
        solver = Solver(CNF(1, [Clause([1])]))
        solver.add_clause([2, 3])
        result = solver.solve()
        assert result.satisfiable
        assert set(result.model) >= {1, 2, 3}


class TestAgainstBruteForce:
    @settings(max_examples=300, deadline=None)
    @given(random_cnf_strategy())
    def test_satisfiability_matches_brute_force(self, cnf):
        result = Solver(cnf).solve()
        assert result.satisfiable == brute_force_satisfiable(cnf)
        if result.satisfiable:
            assert check_model(cnf, result.model)

    @settings(max_examples=100, deadline=None)
    @given(random_cnf_strategy(max_vars=8, max_clauses=20))
    def test_larger_instances(self, cnf):
        result = Solver(cnf).solve()
        assert result.satisfiable == brute_force_satisfiable(cnf)
        if result.satisfiable:
            assert check_model(cnf, result.model)


class TestStatistics:
    def test_counters_accumulate(self):
        cnf = CNF(6, [Clause([1, 2, 3]), Clause([-1, 4]), Clause([-4, -2, 5])])
        solver = Solver(cnf)
        solver.solve()
        assert solver.propagations >= 0
        assert solver.num_vars == 6
