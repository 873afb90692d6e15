"""Tests for repro.sat.cnf."""

import pytest

from repro.sat.cnf import CNF, Clause, CNFBuilder, var_of


class TestLiteralHelpers:
    def test_var_of(self):
        assert var_of(3) == 3
        assert var_of(-3) == 3

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            var_of(0)


class TestClause:
    def test_deduplicates(self):
        assert Clause([1, 2, 1, 2]).literals == (1, 2)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            Clause([1, 0])

    def test_tautology(self):
        assert Clause([1, -1]).is_tautology
        assert not Clause([1, 2]).is_tautology

    def test_unit_and_empty(self):
        assert Clause([1]).is_unit
        assert Clause([]).is_empty
        assert not Clause([1, 2]).is_unit

    def test_variables(self):
        assert Clause([1, -2, 3]).variables() == {1, 2, 3}

    def test_satisfied_by(self):
        clause = Clause([1, -2])
        assert clause.satisfied_by({1: True})
        assert clause.satisfied_by({2: False})
        assert not clause.satisfied_by({1: False, 2: True})
        assert not clause.satisfied_by({})  # partial, nothing satisfying

    def test_contains(self):
        assert 1 in Clause([1, -2])
        assert -2 in Clause([1, -2])
        assert 2 not in Clause([1, -2])


class TestCNF:
    def test_add_clause_grows_num_vars(self):
        cnf = CNF(0, [])
        cnf.add_clause([1, -5])
        assert cnf.num_vars == 5

    def test_rejects_clause_beyond_declared_vars(self):
        with pytest.raises(ValueError):
            CNF(2, [Clause([3])])

    def test_variables(self):
        cnf = CNF(10, [Clause([1, 2]), Clause([-2, 3])])
        assert cnf.variables() == {1, 2, 3}

    def test_copy_is_shallow_but_independent_list(self):
        cnf = CNF(2, [Clause([1])])
        clone = cnf.copy()
        clone.add_clause([2])
        assert len(cnf) == 1
        assert len(clone) == 2


class TestCNFBuilder:
    def test_variable_allocation_stable(self):
        builder = CNFBuilder()
        v1 = builder.variable("AS1")
        v2 = builder.variable("AS2")
        assert builder.variable("AS1") == v1
        assert v1 != v2
        assert builder.name_of(v1) == "AS1"

    def test_positive_clause(self):
        builder = CNFBuilder()
        builder.add_clause_named(["a", "b"], positive=True)
        cnf = builder.build()
        assert len(cnf) == 1
        assert cnf.clauses[0].literals == (1, 2)

    def test_negative_clause_becomes_units(self):
        builder = CNFBuilder()
        builder.add_clause_named(["a", "b"], positive=False)
        cnf = builder.build()
        assert [c.literals for c in cnf.clauses] == [(-1,), (-2,)]

    def test_decode(self):
        builder = CNFBuilder()
        builder.add_clause_named(["a", "b"])
        named = builder.decode({1: True, 2: False})
        assert named == {"a": True, "b": False}

    def test_names_in_allocation_order(self):
        builder = CNFBuilder()
        builder.add_clause_named(["z", "a", "m"])
        assert builder.names == ("z", "a", "m")
