"""A CDCL SAT solver with two-watched-literal propagation.

This is a compact but real implementation of the standard conflict-driven
clause-learning loop (MiniSat lineage): unit propagation over watched
literals, first-UIP conflict analysis with clause learning and non-
chronological backjumping, and EVSIDS-style activity-based branching.

The tomography CNFs produced by this project are small (tens of variables),
but the solver is general and is exercised by the test suite on random 3-SAT
and crafted instances as well.

Example
-------
>>> from repro.sat.cnf import CNF
>>> cnf = CNF(2, [])
>>> _ = cnf.add_clause([1, 2])
>>> _ = cnf.add_clause([-1])
>>> result = Solver(cnf).solve()
>>> result.satisfiable, result.model[1], result.model[2]
(True, False, True)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.sat.cnf import CNF, Clause

Assignment = Dict[int, bool]

_ACTIVITY_RESCALE = 1e100
_ACTIVITY_DECAY = 1.0 / 0.95


@dataclass
class SolveResult:
    """Outcome of a :meth:`Solver.solve` call.

    Attributes
    ----------
    satisfiable:
        Whether a model was found (under the given assumptions).
    model:
        A total assignment ``{var: bool}`` when satisfiable, else empty.
    conflicts, decisions, propagations:
        Search statistics, useful for benchmarks and regression tests.
    """

    satisfiable: bool
    model: Assignment = field(default_factory=dict)
    conflicts: int = 0
    decisions: int = 0
    propagations: int = 0

    def __bool__(self) -> bool:
        return self.satisfiable


class Solver:
    """Conflict-driven clause-learning solver over a :class:`CNF`.

    The solver is incremental: :meth:`add_clause` may be called between
    :meth:`solve` calls (model enumeration adds blocking clauses this way).
    Learned clauses are retained across calls; assumption-based solving
    never learns clauses that depend on the assumptions, because assumptions
    are implemented as decision levels and analysis stops at them.
    """

    def __init__(self, cnf: CNF) -> None:
        self._num_vars = cnf.num_vars
        # Assignment state, indexed by variable (slot 0 unused).
        self._value: List[Optional[bool]] = [None] * (self._num_vars + 1)
        self._level: List[int] = [0] * (self._num_vars + 1)
        self._reason: List[Optional[int]] = [None] * (self._num_vars + 1)
        self._activity: List[float] = [0.0] * (self._num_vars + 1)
        self._activity_inc = 1.0
        self._trail: List[int] = []
        self._trail_lim: List[int] = []
        self._propagate_head = 0
        # Clause database: lists of literals; index 0/1 are the watched slots.
        self._clauses: List[List[int]] = []
        self._watches: Dict[int, List[int]] = {}
        self._root_units: List[int] = []
        self._unsat = False  # formula is unsatisfiable at root level
        self.conflicts = 0
        self.decisions = 0
        self.propagations = 0
        for clause in cnf.clauses:
            self.add_clause(clause)

    # ------------------------------------------------------------------
    # Clause database
    # ------------------------------------------------------------------

    def add_clause(self, literals: Iterable[int]) -> bool:
        """Add a clause; returns False if the formula became root-UNSAT.

        Must be called with the solver at decision level 0 (which is the
        state after construction and after every :meth:`solve`).
        """
        if self._trail_lim:
            raise RuntimeError("add_clause requires decision level 0")
        if isinstance(literals, Clause):
            lits = list(literals.literals)
        else:
            lits = list(dict.fromkeys(literals))
        for lit in lits:
            if lit == 0:
                raise ValueError("0 is not a valid literal")
            self._ensure_var(abs(lit))
        lit_set = set(lits)
        if any(-lit in lit_set for lit in lits):
            return not self._unsat  # tautology: no constraint
        # Drop literals already false at root; satisfied clause is a no-op.
        reduced: List[int] = []
        for lit in lits:
            value = self._lit_value(lit)
            if value is True:
                return not self._unsat
            if value is None:
                reduced.append(lit)
        if not reduced:
            self._unsat = True
            return False
        if len(reduced) == 1:
            self._root_units.append(reduced[0])
            if not self._enqueue(reduced[0], None):
                self._unsat = True
                return False
            if self._propagate() is not None:
                self._unsat = True
                return False
            return True
        index = len(self._clauses)
        self._clauses.append(reduced)
        self._watch(reduced[0], index)
        self._watch(reduced[1], index)
        return not self._unsat

    def _ensure_var(self, var: int) -> None:
        while self._num_vars < var:
            self._num_vars += 1
            self._value.append(None)
            self._level.append(0)
            self._reason.append(None)
            self._activity.append(0.0)

    def _watch(self, lit: int, clause_index: int) -> None:
        self._watches.setdefault(-lit, []).append(clause_index)

    # ------------------------------------------------------------------
    # Assignment primitives
    # ------------------------------------------------------------------

    def _lit_value(self, lit: int) -> Optional[bool]:
        value = self._value[abs(lit)]
        if value is None:
            return None
        return value if lit > 0 else not value

    def _enqueue(self, lit: int, reason: Optional[int]) -> bool:
        """Assign ``lit`` true; False when it contradicts the current state."""
        current = self._lit_value(lit)
        if current is not None:
            return current
        var = abs(lit)
        self._value[var] = lit > 0
        self._level[var] = len(self._trail_lim)
        self._reason[var] = reason
        self._trail.append(lit)
        return True

    def _decision_level(self) -> int:
        return len(self._trail_lim)

    def _cancel_until(self, level: int) -> None:
        if self._decision_level() <= level:
            return
        bound = self._trail_lim[level]
        for lit in reversed(self._trail[bound:]):
            var = abs(lit)
            self._value[var] = None
            self._reason[var] = None
        del self._trail[bound:]
        del self._trail_lim[level:]
        self._propagate_head = min(self._propagate_head, len(self._trail))

    # ------------------------------------------------------------------
    # Propagation
    # ------------------------------------------------------------------

    def _propagate(self) -> Optional[int]:
        """Unit-propagate; return a conflicting clause index or None."""
        while self._propagate_head < len(self._trail):
            lit = self._trail[self._propagate_head]
            self._propagate_head += 1
            self.propagations += 1
            watchers = self._watches.get(lit)
            if not watchers:
                continue
            kept: List[int] = []
            conflict: Optional[int] = None
            i = 0
            while i < len(watchers):
                ci = watchers[i]
                i += 1
                clause = self._clauses[ci]
                # Normalize: the falsified literal sits in slot 1.
                if clause[0] == -lit:
                    clause[0], clause[1] = clause[1], clause[0]
                first = clause[0]
                if self._lit_value(first) is True:
                    kept.append(ci)
                    continue
                # Look for a non-false replacement watch.
                moved = False
                for k in range(2, len(clause)):
                    if self._lit_value(clause[k]) is not False:
                        clause[1], clause[k] = clause[k], clause[1]
                        self._watch(clause[1], ci)
                        moved = True
                        break
                if moved:
                    continue
                kept.append(ci)
                if not self._enqueue(first, ci):
                    conflict = ci
                    kept.extend(watchers[i:])
                    break
            self._watches[lit] = kept
            if conflict is not None:
                return conflict
        return None

    # ------------------------------------------------------------------
    # Conflict analysis (first UIP)
    # ------------------------------------------------------------------

    def _bump(self, var: int) -> None:
        self._activity[var] += self._activity_inc
        if self._activity[var] > _ACTIVITY_RESCALE:
            for v in range(1, self._num_vars + 1):
                self._activity[v] *= 1.0 / _ACTIVITY_RESCALE
            self._activity_inc *= 1.0 / _ACTIVITY_RESCALE

    def _analyze(self, conflict: int, floor_level: int) -> Tuple[List[int], int]:
        """First-UIP analysis; returns (learned clause, backjump level)."""
        learned: List[int] = [0]  # slot 0 reserved for the asserting literal
        seen = [False] * (self._num_vars + 1)
        counter = 0  # literals of the current level still to resolve
        lit: Optional[int] = None
        reason_clause: Sequence[int] = self._clauses[conflict]
        index = len(self._trail)
        current_level = self._decision_level()
        while True:
            for q in reason_clause:
                if lit is not None and q == lit:
                    continue
                var = abs(q)
                if seen[var] or self._level[var] == 0:
                    continue
                seen[var] = True
                self._bump(var)
                if self._level[var] >= current_level:
                    counter += 1
                else:
                    learned.append(q)
            # Walk the trail backwards to the next marked literal.
            while True:
                index -= 1
                lit = self._trail[index]
                if seen[abs(lit)]:
                    break
            counter -= 1
            if counter == 0:
                break
            reason_index = self._reason[abs(lit)]
            assert reason_index is not None, "UIP literal must have a reason"
            reason_clause = self._clauses[reason_index]
        learned[0] = -lit
        if len(learned) == 1:
            backjump = floor_level
        else:
            backjump = max(self._level[abs(q)] for q in learned[1:])
            backjump = max(backjump, floor_level)
        return learned, backjump

    # ------------------------------------------------------------------
    # Search
    # ------------------------------------------------------------------

    def _pick_branch_literal(self) -> Optional[int]:
        best_var = 0
        best_activity = -1.0
        for var in range(1, self._num_vars + 1):
            if self._value[var] is None and self._activity[var] > best_activity:
                best_var = var
                best_activity = self._activity[var]
        if best_var == 0:
            return None
        # Negative phase first: tomography models are sparse (few censors),
        # so trying False first finds models with less backtracking.
        return -best_var

    def solve(self, assumptions: Sequence[int] = ()) -> SolveResult:
        """Search for a model extending ``assumptions``.

        Assumptions are literals temporarily forced true; they behave like
        external decisions and leave no trace in the learned-clause database
        that would be unsound without them.
        """
        self._cancel_until(0)
        if self._unsat:
            return self._result(False)
        if self._propagate() is not None:
            self._unsat = True
            return self._result(False)
        # Install assumptions, each on its own decision level.
        for lit in assumptions:
            if lit == 0:
                raise ValueError("0 is not a valid literal")
            self._ensure_var(abs(lit))
            value = self._lit_value(lit)
            if value is False:
                self._cancel_until(0)
                return self._result(False)
            if value is None:
                self._trail_lim.append(len(self._trail))
                self._enqueue(lit, None)
                if self._propagate() is not None:
                    self._cancel_until(0)
                    return self._result(False)
        floor_level = self._decision_level()
        while True:
            conflict = self._propagate()
            if conflict is not None:
                self.conflicts += 1
                if self._decision_level() <= floor_level:
                    self._cancel_until(0)
                    if floor_level == 0:
                        self._unsat = True
                    return self._result(False)
                learned, backjump = self._analyze(conflict, floor_level)
                self._cancel_until(backjump)
                if len(learned) == 1 and backjump == 0:
                    self._root_units.append(learned[0])
                    self._enqueue(learned[0], None)
                elif len(learned) == 1:
                    # Asserting unit but assumptions pin us above level 0:
                    # enqueue without recording a (sound) learned clause.
                    self._enqueue(learned[0], None)
                else:
                    index = len(self._clauses)
                    self._clauses.append(learned)
                    self._watch(learned[0], index)
                    self._watch(learned[1], index)
                    self._enqueue(learned[0], index)
                self._activity_inc *= _ACTIVITY_DECAY
                continue
            branch = self._pick_branch_literal()
            if branch is None:
                model = {
                    var: bool(self._value[var])
                    for var in range(1, self._num_vars + 1)
                }
                self._cancel_until(0)
                return self._result(True, model)
            self.decisions += 1
            self._trail_lim.append(len(self._trail))
            self._enqueue(branch, None)

    def _result(self, satisfiable: bool, model: Optional[Assignment] = None) -> SolveResult:
        return SolveResult(
            satisfiable=satisfiable,
            model=model or {},
            conflicts=self.conflicts,
            decisions=self.decisions,
            propagations=self.propagations,
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def num_vars(self) -> int:
        """Number of variables known to the solver."""
        return self._num_vars


def check_model(cnf: CNF, model: Assignment) -> bool:
    """Verify that ``model`` satisfies every clause of ``cnf``.

    Used pervasively in tests: any model the solver emits must check.
    """
    return all(clause.satisfied_by(model) for clause in cnf.clauses)


__all__ = ["Solver", "SolveResult", "Assignment", "check_model"]
