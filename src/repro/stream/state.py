"""Per-problem incremental state for the streaming engine.

A :class:`ProblemState` is one open tomography problem: the shared
:class:`~repro.core.clauses.PathLedger` (exactly what the batch
`TomographyProblem` builds from a complete group) plus a resumable
:class:`~repro.sat.simplify.IncrementalPropagation` whose variables are the
ASNs themselves.  Each arriving observation appends at most one clause
(positive for a censored path, negative units for a clean one); the
propagation closure then updates in place instead of being recomputed from
scratch.

Verdict snapshots come from the closure whenever it decides the formula —
the overwhelmingly common case, mirroring the batch set-algebra fast path
literal for literal — and fall back to the signature-deduped solve
(:func:`~repro.core.problem.solve_ledger`, the very function batch uses,
which closes residuals with a capped hitting-set count) only when a
genuine residual search space remains.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.clauses import PathLedger
from repro.core.observations import Observation
from repro.core.problem import (
    ProblemSolution,
    ProblemSolveCache,
    SolutionStatus,
    solve_ledger,
)
from repro.core.splitting import ProblemKey
from repro.sat.simplify import IncrementalPropagation


@dataclass
class StreamStats:
    """Counters over one engine's lifetime (reports, tests, benches)."""

    measurements: int = 0
    observations: int = 0
    discarded_measurements: int = 0
    problems_opened: int = 0
    problems_closed: int = 0
    problems_reopened: int = 0
    clauses_appended: int = 0       # ledger entries that added information
    snapshots: int = 0              # verdict recomputations triggered
    propagation_decided: int = 0    # snapshots closed by incremental state
    fallback_solves: int = 0        # snapshots needing the full solve path
    events_emitted: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "measurements": self.measurements,
            "observations": self.observations,
            "discarded_measurements": self.discarded_measurements,
            "problems_opened": self.problems_opened,
            "problems_closed": self.problems_closed,
            "problems_reopened": self.problems_reopened,
            "clauses_appended": self.clauses_appended,
            "snapshots": self.snapshots,
            "propagation_decided": self.propagation_decided,
            "fallback_solves": self.fallback_solves,
            "events_emitted": self.events_emitted,
        }


class ProblemState:
    """One open (URL, anomaly, window) problem, updated in place."""

    __slots__ = (
        "key",
        "solution_cap",
        "observations",
        "ledger",
        "propagation",
        "last_solution",
    )

    def __init__(self, key: ProblemKey, solution_cap: int) -> None:
        self.key = key
        self.solution_cap = solution_cap
        self.observations: List[Observation] = []
        self.ledger = PathLedger()
        self.propagation = IncrementalPropagation()
        self.last_solution: Optional[ProblemSolution] = None

    def add(self, observation: Observation) -> bool:
        """Record one observation; True when it added clause information.

        Repeated identical (path, polarity) measurements change nothing —
        the same deduplication the batch CNF construction applies — so the
        engine skips verdict recomputation for them.
        """
        self.observations.append(observation)
        path = observation.as_path
        if not self.ledger.add(path, observation.detected):
            return False
        if observation.detected:
            self.propagation.add_clause(list(path))
        else:
            add_clause = self.propagation.add_clause
            for asn in path:
                add_clause((-asn,))
        return True

    @property
    def had_anomaly(self) -> bool:
        return self.ledger.had_anomaly

    def snapshot(
        self, cache: ProblemSolveCache, stats: StreamStats
    ) -> ProblemSolution:
        """The problem's verdict over everything ingested so far.

        Decided closures classify directly from the incremental state (no
        CNF, no solver); inconclusive ones go through the shared
        :func:`solve_ledger` path, deduplicated by content signature in
        ``cache``.  Either way the snapshot is exactly what the batch
        pipeline would report for the same observation prefix.
        """
        stats.snapshots += 1
        propagation = self.propagation
        if propagation.conflict:
            stats.propagation_decided += 1
            solution = self._classify_unsat()
        elif propagation.decided:
            stats.propagation_decided += 1
            solution = self._classify_decided()
        else:
            stats.fallback_solves += 1
            solution = solve_ledger(
                self.key, self.ledger, self.solution_cap, cache
            )
        self.last_solution = solution
        return solution

    def finalize(self, cache: ProblemSolveCache) -> ProblemSolution:
        """The problem's *final* solution, via the shared batch solve.

        Called at window close, when the clause set is complete.  Routing
        the final answer through :func:`solve_ledger` (rather than the
        incremental classification) makes stream/batch equivalence hold by
        construction: identical ledgers, identical code path, identical
        bytes.
        """
        solution = solve_ledger(
            self.key, self.ledger, self.solution_cap, cache
        )
        self.last_solution = solution
        return solution

    # -- classification from the incremental closure ----------------------

    def _classify_unsat(self) -> ProblemSolution:
        ledger = self.ledger
        return ProblemSolution(
            key=self.key,
            status=SolutionStatus.UNSATISFIABLE,
            num_solutions=0,
            capped=False,
            observed_ases=ledger.observed_ases(),
            clause_count=ledger.clause_count,
            positive_clause_count=ledger.positive_clause_count,
        )

    def _classify_decided(self) -> ProblemSolution:
        """Mirror of the batch set-algebra classification, from the closure.

        The incremental closure partitions the observed ASes into
        forced-False (exonerated), forced-True (pinned censors), and free
        (only ever seen in satisfied clauses); the 1-vs-2+ split is purely
        a count of the free variables.
        """
        ledger = self.ledger
        forced = self.propagation.forced
        observed = ledger.observed_ases()
        forced_true = frozenset(
            asn for asn, value in forced.items() if value
        )
        forced_false = frozenset(
            asn for asn, value in forced.items() if not value
        )
        free = observed - forced_true - forced_false
        if not free:
            return ProblemSolution(
                key=self.key,
                status=SolutionStatus.UNIQUE,
                num_solutions=1,
                capped=False,
                observed_ases=observed,
                censors=forced_true,
                eliminated=forced_false,
                clause_count=ledger.clause_count,
                positive_clause_count=ledger.positive_clause_count,
            )
        count = min(self.solution_cap, 2 ** len(free))
        capped = 2 ** len(free) > self.solution_cap
        return ProblemSolution(
            key=self.key,
            status=SolutionStatus.MULTIPLE,
            num_solutions=count,
            capped=capped,
            observed_ases=observed,
            potential_censors=forced_true | free,
            eliminated=forced_false,
            clause_count=ledger.clause_count,
            positive_clause_count=ledger.positive_clause_count,
        )


__all__ = ["ProblemState", "StreamStats"]
