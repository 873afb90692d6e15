"""One tomography problem: CNF construction and solution analysis (§3.1-3.2).

Clause semantics: a censored observation of path ``X → Y → Z`` contributes
the positive clause ``(X ∨ Y ∨ Z)``; a clean observation contributes the
negative unit clauses ``¬X``, ``¬Y``, ``¬Z`` (the whole path is exonerated).

The paper-faithful solve (:meth:`TomographyProblem.solve_reference`)
proceeds in two stages.  Unit propagation alone decides most instances
(the characteristic shape is many negative units plus a few positive
clauses).  Undecided residuals go to the CDCL solver: model enumeration
(with a cap) yields the paper's 0 / 1 / 2+ classification, and backbone
extraction yields the exact True/False/free status of every AS — "False
in all returned solutions" marks definite non-censors.

Three layers of optimization keep a many-thousand-problem batch cheap while
producing *identical* results to the straightforward path (which is kept
as :meth:`TomographyProblem.solve_reference` and pinned by tests):

- **Structural deduplication.**  A problem's solution depends only on its
  set of censored and clean paths, not on its (URL, anomaly, window) key.
  :class:`ProblemSolveCache` memoizes solutions by a canonical content
  signature, so each structurally unique CNF is solved once per batch.
- **Set-based propagation.**  Because all non-unit clauses are purely
  positive, the unit-propagation closure reduces to set algebra
  (:class:`Closure`) — no CNF, clause objects, or CDCL solver are ever
  constructed.  The stream grows the same closure one path at a time.
- **Closed-form residuals.**  A clause propagation leaves undecided is
  all-positive with at least two live, unforced ASes, so all-True (and
  all-True-except-any-one-AS) satisfies the residual: the problem is
  MULTIPLE, its certain censors are the forced-True ASes and its
  definite non-censors the exonerated ones.  Only the capped model count
  needs a search, a small hitting-set counter over the residual clauses.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, fields
from operator import attrgetter
from typing import (
    Dict,
    FrozenSet,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.core.clauses import PathLedger, ProblemSignature
from repro.core.observations import Observation
from repro.core.splitting import ProblemKey
from repro.sat.backbone import backbone
from repro.sat.cnf import CNF, CNFBuilder
from repro.sat.enumerate import enumerate_models
from repro.sat.simplify import propagate_units

DEFAULT_SOLUTION_CAP = 16


class SolutionStatus(enum.Enum):
    """The paper's three-way classification of a CNF."""

    UNSATISFIABLE = "unsat"   # 0 solutions: noise or a policy change
    UNIQUE = "unique"         # 1 solution: censors exactly identified
    MULTIPLE = "multiple"     # 2+ solutions: candidate set to narrow


@dataclass(slots=True)
class ProblemSolution:
    """Everything the analyses need to know about one solved problem.

    ``censors`` is meaningful for UNIQUE problems (ASes assigned True).
    For MULTIPLE problems, ``potential_censors`` holds ASes True in at
    least one solution and ``eliminated`` the definite non-censors (False
    in all solutions).  ``num_solutions`` is exact up to ``capped``.

    Slotted: a batch holds one solution per problem, tens of thousands
    on a paper-shaped run.
    """

    key: ProblemKey
    status: SolutionStatus
    num_solutions: int
    capped: bool
    observed_ases: FrozenSet[int]
    censors: FrozenSet[int] = frozenset()
    potential_censors: FrozenSet[int] = frozenset()
    eliminated: FrozenSet[int] = frozenset()
    clause_count: int = 0
    positive_clause_count: int = 0

    def __reduce__(self):
        # Through the constructor, not the default pickle of a slotted
        # object, a per-instance dict of slot names: a served drain
        # result carries a solution per problem.
        return (ProblemSolution, _solution_fields(self))

    @property
    def had_anomaly(self) -> bool:
        """Whether the problem contained at least one censored observation."""
        return self.positive_clause_count > 0

    @property
    def reduction_fraction(self) -> Optional[float]:
        """Fraction of observed ASes eliminated as definite non-censors.

        Defined for MULTIPLE problems (the Figure 2 quantity); None
        otherwise.
        """
        if self.status is not SolutionStatus.MULTIPLE or not self.observed_ases:
            return None
        return len(self.eliminated) / len(self.observed_ases)


_solution_fields = attrgetter(*(spec.name for spec in fields(ProblemSolution)))


@dataclass
class SolveStats:
    """Counters over one batch of solves (perf reports, regression tests)."""

    problems: int = 0
    signature_hits: int = 0      # solved by the structural memo alone
    unique_cnfs: int = 0         # structurally distinct formulas solved
    propagation_decided: int = 0  # closed by the set-based fast path
    cdcl_solves: int = 0  # residual problems closed by the hitting-set count

    def as_dict(self) -> Dict[str, int]:
        return {
            "problems": self.problems,
            "signature_hits": self.signature_hits,
            "unique_cnfs": self.unique_cnfs,
            "propagation_decided": self.propagation_decided,
            "cdcl_solves": self.cdcl_solves,
        }


class ProblemSolveCache:
    """Shared state for solving a batch of problems.

    Holds the signature → solution memo, an intern table of AS sets, and
    the batch's solve counters.  One cache instance serves one pipeline
    run; it must not be shared across runs with different observation
    semantics (the cache key includes the solution cap, so differing caps
    are safe).
    """

    def __init__(self) -> None:
        self._solutions: Dict[ProblemSignature, ProblemSolution] = {}
        self._ases: Dict[FrozenSet[int], FrozenSet[int]] = {}
        self.stats = SolveStats()

    def lookup(self, signature: ProblemSignature) -> Optional[ProblemSolution]:
        return self._solutions.get(signature)

    def store(
        self, signature: ProblemSignature, solution: ProblemSolution
    ) -> None:
        """Memoize ``solution``, pointing its AS sets at interned copies.

        Distinct CNFs often share an observed-AS set, and one solution's
        ``eliminated`` often equals another's ``observed_ases``: each
        value is kept once per batch, whatever field holds it.
        """
        intern = self._ases.setdefault
        solution.observed_ases = intern(
            solution.observed_ases, solution.observed_ases
        )
        solution.censors = intern(solution.censors, solution.censors)
        solution.potential_censors = intern(
            solution.potential_censors, solution.potential_censors
        )
        solution.eliminated = intern(solution.eliminated, solution.eliminated)
        self._solutions[signature] = solution


class TomographyProblem:
    """Builds and solves the CNF for one (URL, anomaly, window) group."""

    def __init__(
        self,
        key: ProblemKey,
        observations: Sequence[Observation],
        solution_cap: int = DEFAULT_SOLUTION_CAP,
        validate: bool = True,
    ) -> None:
        if not observations:
            raise ValueError("a problem needs at least one observation")
        if validate:
            for observation in observations:
                if observation.url != key.url or observation.anomaly != key.anomaly:
                    raise ValueError("observation does not belong to this problem")
                if not key.window.contains(observation.timestamp):
                    raise ValueError("observation outside the problem window")
        self.key = key
        # validate=False is the batch fast path (the pipeline owns the
        # group lists and never mutates them) — skip the defensive copy.
        self.observations = list(observations) if validate else observations
        self.solution_cap = solution_cap
        self._ledger: Optional[PathLedger] = None

    # -- structure ----------------------------------------------------------

    def ledger(self) -> PathLedger:
        """The problem's deduplicated path ledger (built once, lazily).

        This is the shared observation→clause construction: the streaming
        engine fills the same structure one observation at a time, so
        batch and stream derive their CNFs from one code path.
        """
        if self._ledger is None:
            ledger = PathLedger()
            for observation in self.observations:
                ledger.add(observation.as_path, observation.detected)
            self._ledger = ledger
        return self._ledger

    # -- CNF construction ---------------------------------------------------

    def build_cnf(self) -> Tuple[CNF, CNFBuilder]:
        """Construct the problem's CNF (memoized builder)."""
        ledger = self.ledger()
        cnf, builder = ledger.build_cnf()
        self._positive_count = ledger.positive_clause_count
        return cnf, builder

    # -- solving ---------------------------------------------------------------

    def solve(self, cache: Optional[ProblemSolveCache] = None) -> ProblemSolution:
        """Solve the CNF and classify per the paper's §3.2.

        With a :class:`ProblemSolveCache`, structurally identical problems
        are solved once; decided-by-propagation problems skip CNF and
        solver construction entirely.  Results are identical to
        :meth:`solve_reference` (the test suite pins this).
        """
        return solve_ledger(
            self.key, self.ledger(), self.solution_cap, cache
        )

    def solve_reference(self) -> ProblemSolution:
        """The straightforward solve: build the CNF, propagate, enumerate.

        This is the original implementation, kept verbatim as the ground
        truth the optimized :meth:`solve` is tested against (the
        determinism guard asserts equal pipeline output both ways).
        """
        cnf, builder = self.build_cnf()
        observed: FrozenSet[int] = frozenset(
            asn for observation in self.observations for asn in observation.as_path
        )
        clause_count = len(cnf.clauses)
        positive_count = self._positive_count

        propagation = propagate_units(cnf)
        if propagation.conflict:
            return ProblemSolution(
                key=self.key,
                status=SolutionStatus.UNSATISFIABLE,
                num_solutions=0,
                capped=False,
                observed_ases=observed,
                clause_count=clause_count,
                positive_clause_count=positive_count,
            )
        forced_named = {
            builder.name_of(var): value for var, value in propagation.forced.items()
        }
        if not propagation.residual:
            # Fully decided by propagation.  Variables never forced are
            # unconstrained (they only appeared in satisfied clauses) and
            # make the solution non-unique.
            free = [
                name for name in builder.names if name not in forced_named
            ]
            if not free:
                censors = frozenset(
                    asn for asn, value in forced_named.items() if value
                )
                eliminated = frozenset(
                    asn for asn, value in forced_named.items() if not value
                )
                return ProblemSolution(
                    key=self.key,
                    status=SolutionStatus.UNIQUE,
                    num_solutions=1,
                    capped=False,
                    observed_ases=observed,
                    censors=censors,
                    eliminated=eliminated,
                    clause_count=clause_count,
                    positive_clause_count=positive_count,
                )
            count = min(self.solution_cap, 2 ** len(free))
            capped = 2 ** len(free) > self.solution_cap
            potential = frozenset(
                asn for asn, value in forced_named.items() if value
            ) | frozenset(free)
            eliminated = frozenset(
                asn for asn, value in forced_named.items() if not value
            )
            return ProblemSolution(
                key=self.key,
                status=SolutionStatus.MULTIPLE,
                num_solutions=count,
                capped=capped,
                observed_ases=observed,
                potential_censors=potential,
                eliminated=eliminated,
                clause_count=clause_count,
                positive_clause_count=positive_count,
            )

        # Residual search space: enumerate models and extract the backbone.
        enumeration = enumerate_models(cnf, cap=self.solution_cap)
        if enumeration.unsatisfiable:
            return ProblemSolution(
                key=self.key,
                status=SolutionStatus.UNSATISFIABLE,
                num_solutions=0,
                capped=False,
                observed_ases=observed,
                clause_count=clause_count,
                positive_clause_count=positive_count,
            )
        if enumeration.unique:
            model = enumeration.models[0]
            named = builder.decode(model)
            censors = frozenset(asn for asn, value in named.items() if value)
            eliminated = frozenset(
                asn for asn, value in named.items() if not value
            )
            return ProblemSolution(
                key=self.key,
                status=SolutionStatus.UNIQUE,
                num_solutions=1,
                capped=False,
                observed_ases=observed,
                censors=censors,
                eliminated=eliminated,
                clause_count=clause_count,
                positive_clause_count=positive_count,
            )
        # Multiple solutions: the backbone gives exact always-True /
        # always-False sets independent of the enumeration cap.
        bb = backbone(cnf)
        always_false_named = frozenset(
            builder.name_of(var) for var in bb.always_false
        )
        always_true_named = frozenset(
            builder.name_of(var) for var in bb.always_true
        )
        potential = frozenset(builder.names) - always_false_named
        return ProblemSolution(
            key=self.key,
            status=SolutionStatus.MULTIPLE,
            num_solutions=enumeration.count,
            capped=enumeration.capped,
            observed_ases=observed,
            censors=always_true_named,  # certain even among many models
            potential_censors=potential,
            eliminated=always_false_named,
            clause_count=clause_count,
            positive_clause_count=positive_count,
        )


def solve_ledger(
    key: ProblemKey,
    ledger: PathLedger,
    solution_cap: int,
    cache: Optional[ProblemSolveCache] = None,
) -> ProblemSolution:
    """Solve one problem's :class:`PathLedger` and classify per §3.2.

    The single optimized solve shared by batch (`TomographyProblem.solve`)
    and the stream's window close (`repro.stream`): memoized by content
    signature when a :class:`ProblemSolveCache` is supplied, otherwise the
    ledger's :class:`Closure` put through :func:`classify`.
    """
    if cache is None:
        return _solve_ledger_fast(key, ledger, solution_cap, None)
    cache.stats.problems += 1
    signature = ledger.signature(solution_cap)
    memoized = cache.lookup(signature)
    if memoized is not None:
        cache.stats.signature_hits += 1
        # Hand-rolled copy-with-new-key: dataclasses.replace() walks
        # fields() per call, visible at tens of thousands of hits.
        return ProblemSolution(
            key=key,
            status=memoized.status,
            num_solutions=memoized.num_solutions,
            capped=memoized.capped,
            observed_ases=memoized.observed_ases,
            censors=memoized.censors,
            potential_censors=memoized.potential_censors,
            eliminated=memoized.eliminated,
            clause_count=memoized.clause_count,
            positive_clause_count=memoized.positive_clause_count,
        )
    cache.stats.unique_cnfs += 1
    solution = _solve_ledger_fast(key, ledger, solution_cap, cache)
    cache.store(signature, solution)
    return solution


def _solve_ledger_fast(
    key: ProblemKey,
    ledger: PathLedger,
    solution_cap: int,
    cache: Optional[ProblemSolveCache],
) -> ProblemSolution:
    # Clean paths first: the censored ones then reduce against the final
    # exonerated set once, and the residual is never re-shrunk.  Before
    # any censored path a clean one can neither conflict nor shrink a
    # clause, so ``add`` would only grow ``forced_false``; growing it
    # directly keeps the per-path call out of the batch's hottest loop.
    closure = Closure()
    forced_false = closure.forced_false
    for path in ledger.negative:
        forced_false.update(path)
    for path in ledger.positive:
        closure.add(path, True)
    if cache is not None:
        if closure.residual:
            cache.stats.cdcl_solves += 1
        else:
            cache.stats.propagation_decided += 1
    return classify(key, ledger, solution_cap, closure)


class Closure:
    """The unit-propagation closure of one problem, by set algebra.

    Every multi-literal clause of a tomography CNF is purely positive, so
    the closure is two sets and a clause list: ``forced_false`` (ASes on
    some clean path), ``forced_true`` (the last live AS of some censored
    path) and ``residual`` (censored paths reduced to their >= 2 live,
    unforced ASes).  ``conflict`` marks a censored path whose every AS is
    exonerated; it is final, and empties the residual.

    :meth:`add` grows the closure one path at a time.  The result is the
    least fixpoint over the paths added, whatever their order, so a batch
    problem and a stream prefix over the same paths close alike.
    """

    __slots__ = ("forced_false", "forced_true", "residual", "conflict")

    def __init__(self) -> None:
        self.forced_false: Set[int] = set()
        self.forced_true: Set[int] = set()
        self.residual: List[Tuple[int, ...]] = []
        self.conflict = False

    def add(self, path: Tuple[int, ...], detected: bool) -> None:
        """Close over one censored (``detected``) or clean path."""
        if self.conflict:
            return
        forced_false = self.forced_false
        forced_true = self.forced_true
        if detected:
            alive = tuple(
                dict.fromkeys(a for a in path if a not in forced_false)
            )
            if not alive:
                # Every AS exonerated: noise, or a policy change.
                self._fail()
            elif len(alive) == 1:
                self._force_true(alive)
            elif forced_true.isdisjoint(alive):
                self.residual.append(alive)
            return
        if not forced_true.isdisjoint(path):
            self._fail()
            return
        if forced_false.issuperset(path):
            return
        forced_false.update(path)
        if not self.residual:
            return
        # Exonerating only falsifies, and forcing True only satisfies, so
        # one reduction pass plus one satisfaction pass is the fixpoint.
        reduced: List[Tuple[int, ...]] = []
        units: List[int] = []
        for clause in self.residual:
            alive = tuple(a for a in clause if a not in forced_false)
            if not alive:
                self._fail()
                return
            if len(alive) == 1:
                units.append(alive[0])
            else:
                reduced.append(alive)
        self.residual = reduced
        if units:
            self._force_true(units)

    def _force_true(self, asns: Sequence[int]) -> None:
        forced_true = self.forced_true
        if forced_true.issuperset(asns):
            return
        forced_true.update(asns)
        if self.residual:
            self.residual = [
                clause
                for clause in self.residual
                if forced_true.isdisjoint(clause)
            ]

    def _fail(self) -> None:
        self.conflict = True
        self.residual = []


def classify(
    key: ProblemKey,
    ledger: PathLedger,
    solution_cap: int,
    closure: Closure,
) -> ProblemSolution:
    """The paper's UNSAT / UNIQUE / MULTIPLE verdict from a closure (§3.2).

    ``closure`` must hold exactly the ledger's paths.  Without a residual
    the verdict is the closure's: unforced ASes (only ever in satisfied
    clauses) make it non-unique.  A residual clause is all-positive with
    >= 2 live ASes none of which is forced, so all-True is a model, and
    so is all-True-except-v for any residual AS v: the status is
    MULTIPLE, the always-True ASes are exactly the forced-True ones and
    the always-False ASes exactly the exonerated ones.  Only the capped
    model count needs a search.
    """
    observed = ledger.observed_ases()
    clause_count = ledger.clause_count
    positive_count = ledger.positive_clause_count
    if closure.conflict:
        return ProblemSolution(
            key=key,
            status=SolutionStatus.UNSATISFIABLE,
            num_solutions=0,
            capped=False,
            observed_ases=observed,
            clause_count=clause_count,
            positive_clause_count=positive_count,
        )
    forced_false = closure.forced_false
    forced_true = closure.forced_true
    free_count = len(observed) - len(forced_false) - len(forced_true)
    if not closure.residual:
        if not free_count:
            return ProblemSolution(
                key=key,
                status=SolutionStatus.UNIQUE,
                num_solutions=1,
                capped=False,
                observed_ases=observed,
                censors=frozenset(forced_true),
                eliminated=frozenset(forced_false),
                clause_count=clause_count,
                positive_clause_count=positive_count,
            )
        return ProblemSolution(
            key=key,
            status=SolutionStatus.MULTIPLE,
            num_solutions=min(solution_cap, 2 ** free_count),
            capped=2 ** free_count > solution_cap,
            observed_ases=observed,
            potential_censors=observed - forced_false,
            eliminated=frozenset(forced_false),
            clause_count=clause_count,
            positive_clause_count=positive_count,
        )
    total = _count_hitting_sets(closure.residual, free_count, solution_cap)
    return ProblemSolution(
        key=key,
        status=SolutionStatus.MULTIPLE,
        num_solutions=min(solution_cap, total),
        # >=, as in EnumerationResult.capped: exactly ``cap`` models
        # reads as capped here, unlike the decided branch's ``>``.
        capped=total >= solution_cap,
        observed_ases=observed,
        censors=frozenset(forced_true),
        potential_censors=observed - forced_false,
        eliminated=frozenset(forced_false),
        clause_count=clause_count,
        positive_clause_count=positive_count,
    )


def _count_hitting_sets(
    clauses: List[Tuple[int, ...]], num_vars: int, cap: int
) -> int:
    """Assignments of ``num_vars`` ASes that set some AS of every
    all-positive clause True, counted exactly below ``cap``.

    ``clauses`` must be non-empty and mention no other AS; an AS they do
    not mention doubles the count.

    Branches on one AS: True drops the clauses it hits, False deletes it
    from them (an emptied clause kills the branch).  Every surviving
    branch has a model (the rest all True), so the search stops after
    about ``cap * num_vars`` nodes.  The result may overshoot ``cap`` but is
    then still ``>= cap``.
    """
    pivot = clauses[0][0]
    num_vars -= 1
    hit: List[Tuple[int, ...]] = []
    missed: List[Tuple[int, ...]] = []
    for clause in clauses:
        if pivot in clause:
            hit.append(clause)
        else:
            missed.append(clause)
    # Pivot True: the clauses it hits are satisfied; every AS that only
    # they mention is now unconstrained.
    if missed:
        left: Set[int] = set()
        for clause in missed:
            left.update(clause)
        unconstrained = num_vars - len(left)
        count = _count_hitting_sets(
            missed, len(left), -(-cap >> unconstrained)
        ) << unconstrained
    else:
        count = 1 << num_vars
    if count >= cap:
        return count
    # Pivot False: every clause it was in must be hit by another AS.
    # Shrunk clauses go first so the next pivot comes from one of them.
    reduced: List[Tuple[int, ...]] = []
    for clause in hit:
        rest = tuple(a for a in clause if a != pivot)
        if not rest:
            return count
        reduced.append(rest)
    reduced.extend(missed)
    return count + _count_hitting_sets(reduced, num_vars, cap - count)


__all__ = [
    "SolutionStatus",
    "ProblemSolution",
    "ProblemSolveCache",
    "SolveStats",
    "TomographyProblem",
    "Closure",
    "classify",
    "ProblemKey",
    "ProblemSignature",
    "solve_ledger",
    "DEFAULT_SOLUTION_CAP",
]
