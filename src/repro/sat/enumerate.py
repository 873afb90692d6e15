"""Model enumeration and counting via blocking clauses.

The paper classifies every CNF by its number of satisfying assignments:
0 (noise / policy change), exactly 1 (censors exactly identified), or 2+
(candidate set to be narrowed).  Enumeration proceeds by repeatedly solving
and adding a *blocking clause* — the negation of the found model restricted
to the variables of interest — until UNSAT or a cap is reached.

Restricting blocking clauses to ``variables`` projects the model count onto
those variables, which matters when a CNF contains variables that appear
only in satisfied clauses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Sequence

from repro.sat.cnf import CNF
from repro.sat.solver import Assignment, Solver

DEFAULT_MODEL_CAP = 64


@dataclass
class EnumerationResult:
    """Models found by :func:`enumerate_models`.

    Attributes
    ----------
    models:
        The satisfying assignments found (projected onto the requested
        variables), in discovery order.
    capped:
        True when enumeration stopped at the cap (``len(models) >= cap``);
        the true count is then at least ``len(models)``, not necessarily
        more.
    """

    models: List[Assignment] = field(default_factory=list)
    capped: bool = False

    @property
    def count(self) -> int:
        """Number of models found (a lower bound when ``capped``)."""
        return len(self.models)

    @property
    def unsatisfiable(self) -> bool:
        """True when the formula has no model at all."""
        return not self.models

    @property
    def unique(self) -> bool:
        """True when the formula has exactly one (projected) model."""
        return len(self.models) == 1 and not self.capped


def enumerate_models(
    cnf: CNF,
    cap: int = DEFAULT_MODEL_CAP,
    variables: Optional[Sequence[int]] = None,
) -> EnumerationResult:
    """Enumerate up to ``cap`` models of ``cnf``.

    Parameters
    ----------
    cnf:
        The formula. It is not mutated; enumeration works on a fresh solver.
    cap:
        Stop after this many models. The paper only needs the three-way
        0/1/2+ classification plus per-variable backbone information, so a
        small cap keeps worst-case CNFs cheap.
    variables:
        Project models onto this subset of variables (default: variables
        that appear in at least one clause). Two models agreeing on the
        projection count once.
    """
    if cap < 1:
        raise ValueError("cap must be >= 1")
    project: List[int] = sorted(variables) if variables is not None else sorted(
        cnf.variables()
    )
    solver = Solver(cnf)
    result = EnumerationResult()
    while True:
        outcome = solver.solve()
        if not outcome.satisfiable:
            return result
        projected = {var: outcome.model[var] for var in project if var in outcome.model}
        result.models.append(projected)
        if len(result.models) >= cap:
            result.capped = True
            return result
        if not projected:
            # Zero projection variables: the single empty model is all there is.
            return result
        blocking = [(-var if value else var) for var, value in projected.items()]
        if not solver.add_clause(blocking):
            return result


def count_models(
    cnf: CNF,
    cap: int = DEFAULT_MODEL_CAP,
    variables: Optional[Sequence[int]] = None,
) -> int:
    """Count models of ``cnf`` up to ``cap`` (projected like above)."""
    return enumerate_models(cnf, cap=cap, variables=variables).count


def models_agreeing_false(models: Iterable[Assignment]) -> set[int]:
    """Variables assigned False in *every* model of ``models``.

    This is the paper's definite-non-censor rule (§3.2): with multiple
    solutions, an AS is eliminated only if its literal is False in all of
    them.  Returns the empty set when ``models`` is empty.
    """
    iterator = iter(models)
    try:
        first = next(iterator)
    except StopIteration:
        return set()
    always_false = {var for var, value in first.items() if not value}
    for model in iterator:
        always_false = {var for var in always_false if not model.get(var, True)}
        if not always_false:
            break
    return always_false


__all__ = [
    "enumerate_models",
    "count_models",
    "EnumerationResult",
    "models_agreeing_false",
    "DEFAULT_MODEL_CAP",
]
