"""CNF simplification: the unit propagation closure.

The tomography CNFs have a characteristic shape — many negative unit clauses
(from censorship-free measurements) plus a few positive clauses (from
censored measurements).  Unit-propagating the negatives usually collapses
the positives to units or empties, so most instances are decided here
without search.  :func:`propagate_units` is the literal-level closure of
the reference oracle; the production solve computes the same fixpoint by
set algebra (:class:`repro.core.problem.Closure`).  It is pure: it
returns new structures and leaves its input untouched.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.sat.cnf import CNF, Clause


@dataclass
class PropagationResult:
    """Outcome of :func:`propagate_units`.

    ``conflict`` means the closure derived both ``v`` and ``-v`` (or an
    empty clause): the CNF is unsatisfiable.  Otherwise ``forced`` maps each
    decided variable to its forced value and ``residual`` holds the clauses
    not yet satisfied, with falsified literals removed.
    """

    conflict: bool
    forced: Dict[int, bool] = field(default_factory=dict)
    residual: List[Clause] = field(default_factory=list)

    @property
    def decided(self) -> bool:
        """True when propagation alone fully decided the formula."""
        return self.conflict or not self.residual


def propagate_units(cnf: CNF) -> PropagationResult:
    """Compute the unit-propagation closure of ``cnf``.

    >>> cnf = CNF(3, [])
    >>> _ = cnf.add_clause([-1])
    >>> _ = cnf.add_clause([1, 2, 3])
    >>> _ = cnf.add_clause([-3])
    >>> result = propagate_units(cnf)
    >>> result.conflict, result.forced
    (False, {1: False, 3: False, 2: True})
    """
    forced: Dict[int, bool] = {}
    queue: List[int] = []
    clauses: List[Tuple[int, ...]] = []
    for clause in cnf.clauses:
        if clause.is_tautology:
            continue
        if clause.is_empty:
            return PropagationResult(conflict=True)
        if clause.is_unit:
            queue.append(clause.literals[0])
        else:
            clauses.append(clause.literals)

    def assign(lit: int) -> bool:
        var, value = abs(lit), lit > 0
        prior = forced.get(var)
        if prior is None:
            forced[var] = value
            return True
        return prior == value

    while True:
        while queue:
            lit = queue.pop()
            if not assign(lit):
                return PropagationResult(conflict=True, forced=forced)
        progressed = False
        remaining: List[Tuple[int, ...]] = []
        for lits in clauses:
            satisfied = False
            alive: List[int] = []
            for lit in lits:
                value = forced.get(abs(lit))
                if value is None:
                    alive.append(lit)
                elif value == (lit > 0):
                    satisfied = True
                    break
            if satisfied:
                progressed = True
                continue
            if not alive:
                return PropagationResult(conflict=True, forced=forced)
            if len(alive) == 1:
                queue.append(alive[0])
                progressed = True
                continue
            if len(alive) != len(lits):
                progressed = True
            remaining.append(tuple(alive))
        clauses = remaining
        if not queue and not progressed:
            break
    return PropagationResult(
        conflict=False,
        forced=forced,
        residual=[Clause(lits) for lits in clauses],
    )


__all__ = ["propagate_units", "PropagationResult"]
