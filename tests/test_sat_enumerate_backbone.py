"""Tests for model enumeration and backbone extraction (vs brute force)."""

from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sat.backbone import backbone
from repro.sat.cnf import CNF, Clause
from repro.sat.enumerate import (
    count_models,
    enumerate_models,
    models_agreeing_false,
)


def brute_force_models(cnf: CNF):
    variables = sorted(cnf.variables())
    models = []
    for values in product([False, True], repeat=len(variables)):
        assignment = dict(zip(variables, values))
        if all(
            clause.is_tautology or clause.satisfied_by(assignment)
            for clause in cnf.clauses
        ):
            models.append(assignment)
    return models


def random_cnf_strategy(max_vars=5, max_clauses=8):
    literal = st.integers(min_value=1, max_value=max_vars).flatmap(
        lambda v: st.sampled_from([v, -v])
    )
    clause = st.lists(literal, min_size=1, max_size=3)
    return st.lists(clause, min_size=1, max_size=max_clauses).map(
        lambda cls: CNF(max_vars, [Clause(c) for c in cls])
    )


class TestEnumerate:
    def test_unsat_formula(self):
        cnf = CNF(1, [Clause([1]), Clause([-1])])
        result = enumerate_models(cnf)
        assert result.unsatisfiable
        assert result.count == 0

    def test_unique_model(self):
        cnf = CNF(2, [Clause([1]), Clause([-2])])
        result = enumerate_models(cnf)
        assert result.unique
        assert result.models == [{1: True, 2: False}]

    def test_three_models(self):
        cnf = CNF(2, [Clause([1, 2])])
        result = enumerate_models(cnf)
        assert result.count == 3
        assert not result.capped

    def test_cap(self):
        cnf = CNF(4, [])  # one clause-free var set: 16 models over 0 vars...
        cnf.add_clause([1, 2, 3, 4])
        result = enumerate_models(cnf, cap=5)
        assert result.count == 5
        assert result.capped

    def test_cap_must_be_positive(self):
        with pytest.raises(ValueError):
            enumerate_models(CNF(1, []), cap=0)

    def test_projection(self):
        # var 2 is free given var 1 true; projecting on {1} → one model
        cnf = CNF(2, [Clause([1]), Clause([1, 2])])
        full = enumerate_models(cnf)
        projected = enumerate_models(cnf, variables=[1])
        assert full.count == 2
        assert projected.count == 1

    @settings(max_examples=200, deadline=None)
    @given(random_cnf_strategy())
    def test_count_matches_brute_force(self, cnf):
        expected = brute_force_models(cnf)
        result = enumerate_models(cnf, cap=64)
        assert result.count == len(expected)
        # every enumerated model is a genuine model
        expected_keys = {tuple(sorted(m.items())) for m in expected}
        for model in result.models:
            assert tuple(sorted(model.items())) in expected_keys

    def test_count_models_helper(self):
        cnf = CNF(2, [Clause([1, 2])])
        assert count_models(cnf) == 3


class TestModelsAgreeingFalse:
    def test_empty_input(self):
        assert models_agreeing_false([]) == set()

    def test_intersection(self):
        models = [{1: False, 2: False}, {1: False, 2: True}]
        assert models_agreeing_false(models) == {1}

    def test_missing_variable_counts_as_not_false(self):
        models = [{1: False}, {2: False}]
        assert models_agreeing_false(models) == set()


class TestBackbone:
    def test_unsat(self):
        cnf = CNF(1, [Clause([1]), Clause([-1])])
        assert not backbone(cnf).satisfiable

    def test_forced_values(self):
        cnf = CNF(3, [Clause([1, 2]), Clause([-2]), Clause([3, 2])])
        result = backbone(cnf)
        assert result.always_true == {1, 3}
        assert result.always_false == {2}
        assert not result.free

    def test_free_variable(self):
        cnf = CNF(2, [Clause([1]), Clause([1, 2])])
        result = backbone(cnf)
        assert result.always_true == {1}
        assert 2 in result.free

    def test_variable_outside_clauses_is_free(self):
        cnf = CNF(1, [Clause([1])])
        result = backbone(cnf, variables=[1, 9])
        assert result.always_true == {1}
        assert 9 in result.free

    @settings(max_examples=200, deadline=None)
    @given(random_cnf_strategy())
    def test_matches_brute_force(self, cnf):
        expected_models = brute_force_models(cnf)
        result = backbone(cnf)
        assert result.satisfiable == bool(expected_models)
        if not expected_models:
            return
        variables = sorted(cnf.variables())
        for var in variables:
            always_true = all(m[var] for m in expected_models)
            always_false = all(not m[var] for m in expected_models)
            if always_true:
                assert var in result.always_true
            elif always_false:
                assert var in result.always_false
            else:
                assert var in result.free
