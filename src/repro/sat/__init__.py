"""A from-scratch boolean satisfiability toolkit.

The paper feeds per-(URL, anomaly, time-window) CNFs to "an off-the-shelf SAT
solver" and classifies them by their number of solutions (0 / 1 / 2+), then
uses "False in every returned solution" to eliminate definite non-censors.
No third-party solver is available offline, so this package provides one.
Its solver, enumeration and backbone serve the paper-faithful reference
oracle (:meth:`repro.core.problem.TomographyProblem.solve_reference`), which
the optimized solve is tested against; the production path computes the
same propagation fixpoint by set algebra (:class:`repro.core.problem.Closure`)
and builds no CNF.  The package holds:

- :class:`~repro.sat.cnf.CNF` / :class:`~repro.sat.cnf.Clause` — DIMACS-style
  formula representation with named variables,
- :class:`~repro.sat.solver.Solver` — CDCL (conflict-driven clause learning)
  with two-watched-literal propagation and activity-based branching,
- :func:`~repro.sat.enumerate.enumerate_models` /
  :func:`~repro.sat.enumerate.count_models` — model enumeration via blocking
  clauses, with a configurable cap,
- :func:`~repro.sat.backbone.backbone` — literals fixed in *every* model,
  which is exactly the paper's non-censor elimination rule,
- :func:`~repro.sat.simplify.propagate_units` — the unit propagation
  closure that decides most tomography CNFs without search.

Literals use the DIMACS convention: variables are positive integers and a
negative integer denotes negation.
"""

from repro.sat.backbone import BackboneResult, backbone
from repro.sat.cnf import CNF, Clause, CNFBuilder
from repro.sat.enumerate import EnumerationResult, count_models, enumerate_models
from repro.sat.simplify import propagate_units
from repro.sat.solver import Assignment, SolveResult, Solver

__all__ = [
    "CNF",
    "Clause",
    "CNFBuilder",
    "Solver",
    "SolveResult",
    "Assignment",
    "enumerate_models",
    "count_models",
    "EnumerationResult",
    "backbone",
    "BackboneResult",
    "propagate_units",
]
