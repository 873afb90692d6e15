"""Backbone extraction: literals fixed in every model.

A variable ``v`` is *backbone-positive* when every model assigns it True,
*backbone-negative* when every model assigns it False, and *free* otherwise.

Backbone-negative variables are exactly the paper's "definite non-censors":
ASes whose literal is False in all returned solutions.  The complement —
backbone-positive plus free variables — is the potential-censor set, and
backbone-positive variables with a satisfiable formula are the *certain*
censors even when the full model count is larger than one.

Computed by assumption probing: ``v`` can be True iff the formula is
satisfiable under assumption ``v``; similarly for False.  This costs two
incremental solves per variable instead of full enumeration, and is exact
regardless of any enumeration cap.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.sat.cnf import CNF
from repro.sat.solver import Solver


@dataclass
class BackboneResult:
    """Partition of variables by their behaviour across all models."""

    satisfiable: bool
    always_true: set[int] = field(default_factory=set)
    always_false: set[int] = field(default_factory=set)
    free: set[int] = field(default_factory=set)


def backbone(cnf: CNF, variables: Optional[Sequence[int]] = None) -> BackboneResult:
    """Compute the backbone of ``cnf`` over ``variables``.

    Parameters
    ----------
    cnf:
        The formula (not mutated).
    variables:
        Variables of interest; defaults to every variable appearing in a
        clause.

    >>> from repro.sat.cnf import CNF
    >>> cnf = CNF(3, [])
    >>> _ = cnf.add_clause([1, 2])
    >>> _ = cnf.add_clause([-2])
    >>> result = backbone(cnf)
    >>> sorted(result.always_true), sorted(result.always_false)
    ([1], [2])
    """
    targets = sorted(variables) if variables is not None else sorted(cnf.variables())
    solver = Solver(cnf)
    base = solver.solve()
    if not base.satisfiable:
        return BackboneResult(satisfiable=False)
    result = BackboneResult(satisfiable=True)
    seed_model = base.model
    for var in targets:
        value = seed_model.get(var)
        if value is None:
            # Variable unknown to the solver: unconstrained, hence free
            # (when the formula is satisfiable both phases extend a model).
            result.free.add(var)
            continue
        # The seed model witnesses one phase; probe the other one only.
        if value:
            flips = solver.solve(assumptions=[-var]).satisfiable
            if flips:
                result.free.add(var)
            else:
                result.always_true.add(var)
        else:
            flips = solver.solve(assumptions=[var]).satisfiable
            if flips:
                result.free.add(var)
            else:
                result.always_false.add(var)
    return result


__all__ = ["backbone", "BackboneResult"]
