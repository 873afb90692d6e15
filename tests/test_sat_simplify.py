"""Tests for repro.sat.simplify."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sat.cnf import CNF, Clause
from repro.sat.simplify import propagate_units
from repro.sat.solver import Solver


def random_cnf_strategy(max_vars=5, max_clauses=8):
    literal = st.integers(min_value=1, max_value=max_vars).flatmap(
        lambda v: st.sampled_from([v, -v])
    )
    clause = st.lists(literal, min_size=1, max_size=3)
    return st.lists(clause, min_size=1, max_size=max_clauses).map(
        lambda cls: CNF(max_vars, [Clause(c) for c in cls])
    )


class TestPropagateUnits:
    def test_no_units(self):
        cnf = CNF(2, [Clause([1, 2])])
        result = propagate_units(cnf)
        assert not result.conflict
        assert result.forced == {}
        assert len(result.residual) == 1

    def test_chain(self):
        cnf = CNF(3, [Clause([-1]), Clause([1, 2]), Clause([-2, 3])])
        result = propagate_units(cnf)
        assert not result.conflict
        assert result.forced == {1: False, 2: True, 3: True}
        assert result.decided

    def test_conflict_between_units(self):
        cnf = CNF(1, [Clause([1]), Clause([-1])])
        assert propagate_units(cnf).conflict

    def test_conflict_via_emptied_clause(self):
        cnf = CNF(2, [Clause([-1]), Clause([-2]), Clause([1, 2])])
        assert propagate_units(cnf).conflict

    def test_empty_clause_is_conflict(self):
        assert propagate_units(CNF(0, [Clause([])])).conflict

    def test_tautologies_dropped(self):
        cnf = CNF(1, [Clause([1, -1])])
        result = propagate_units(cnf)
        assert not result.conflict
        assert result.decided

    def test_residual_has_falsified_literals_removed(self):
        cnf = CNF(3, [Clause([-1]), Clause([1, 2, 3])])
        result = propagate_units(cnf)
        assert len(result.residual) == 1
        assert set(result.residual[0].literals) == {2, 3}

    def test_tomography_shape(self):
        # negative units from clean paths + a positive clause reducing to
        # a unit: the censor is forced True
        cnf = CNF(4, [Clause([-1]), Clause([-2]), Clause([-4]), Clause([1, 2, 3])])
        result = propagate_units(cnf)
        assert not result.conflict
        assert result.forced[3] is True

    @settings(max_examples=200, deadline=None)
    @given(random_cnf_strategy())
    def test_propagation_preserves_satisfiability(self, cnf):
        result = propagate_units(cnf)
        solver_sat = Solver(cnf).solve().satisfiable
        if result.conflict:
            assert not solver_sat
        else:
            # Apply forced values as assumptions: must stay satisfiable
            # exactly when the formula is.
            assumptions = [
                (v if value else -v) for v, value in result.forced.items()
            ]
            assert Solver(cnf).solve(assumptions=assumptions).satisfiable == solver_sat
