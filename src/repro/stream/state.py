"""Per-problem incremental state for the streaming engine.

A :class:`ProblemState` is one open tomography problem: the shared
:class:`~repro.core.clauses.PathLedger` (exactly what the batch
`TomographyProblem` builds from a complete group) plus the
:class:`~repro.core.problem.Closure` the batch solve computes over it.
Each arriving observation appends at most one path to the ledger and
grows the closure in place instead of recomputing it from scratch.

Verdict snapshots classify the closure with
:func:`~repro.core.problem.classify`, the function the batch solve ends
in, so a snapshot is the batch verdict on the same prefix by
construction.

The stream builds that snapshot only when a subscriber will receive it.
After each new clause :meth:`ProblemState.track` reads the verdict's
status and candidate count off the closure and the ledger in O(1), and
only a change of status, or a clean path that lowers the count, builds
the :class:`~repro.core.problem.ProblemSolution`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.core.clauses import PathLedger
from repro.core.observations import Observation
from repro.core.problem import (
    Closure,
    ProblemSolution,
    ProblemSolveCache,
    SolutionStatus,
    classify,
    solve_ledger,
)
from repro.core.splitting import ProblemKey
from repro.stream.events import VerdictKind, candidates_of


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
    propagation_decided: int = 0    # snapshots decided by propagation alone
    fallback_solves: int = 0        # snapshots closed by the hitting-set count
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
    """One open (URL, anomaly, window) problem, updated in place.

    ``status`` and ``candidates`` describe the verdict after the last
    tracked clause (``None`` and 0 before any): its status and the size
    of its candidate censor set.  ``last_solution`` is that verdict in
    full, built from the closure on first read.
    """

    __slots__ = (
        "key",
        "solution_cap",
        "observations",
        "ledger",
        "closure",
        "status",
        "candidates",
        "_solution",
        "_stale",
    )

    def __init__(self, key: ProblemKey, solution_cap: int) -> None:
        self.key = key
        self.solution_cap = solution_cap
        self.observations: List[Observation] = []
        self.ledger = PathLedger()
        self.closure = Closure()
        self.status: Optional[SolutionStatus] = None
        self.candidates = 0
        # The built verdict; None while it is still to be built.  Stale
        # when set from an older ledger than the problem's.
        self._solution: Optional[ProblemSolution] = None
        self._stale = False

    @property
    def last_solution(self) -> Optional[ProblemSolution]:
        """The verdict after the last tracked clause (or the one set by
        :meth:`finalize` or a restore); None before any."""
        if self._solution is None and self.status is not None:
            self._solution = classify(
                self.key, self.ledger, self.solution_cap, self.closure
            )
        return self._solution

    @last_solution.setter
    def last_solution(self, solution: Optional[ProblemSolution]) -> None:
        self._solution = solution
        if solution is None:
            self.status = None
            self.candidates = 0
            self._stale = False
        else:
            self.status = solution.status
            self.candidates = len(candidates_of(solution))
            self._stale = solution.clause_count != self.ledger.clause_count

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
        self.closure.add(path, observation.detected)
        return True

    @property
    def had_anomaly(self) -> bool:
        return self.ledger.had_anomaly

    def track(
        self, observation: Observation, stats: StreamStats
    ) -> Optional[VerdictKind]:
        """Bring the verdict up to date after :meth:`add` took
        ``observation`` as a new clause; the event it calls for, if any.

        ``STATUS_CHANGED`` when the status moved (or there was none),
        ``CANDIDATES_SHRANK`` when the candidate set lost an AS.  Against
        the verdict of the ledger before, both read off counts: a clean
        path only exonerates, so the set it leaves is a subset of the
        one before, and a censored path exonerates nothing, so it never
        shrinks the set.  A verdict of an older ledger, restored from a
        checkpoint whose engine took later clauses without subscribers,
        is compared set to set.
        """
        if self._stale:
            prior = self._solution
            solution = self.snapshot(stats)
            if solution.status is not prior.status:
                return VerdictKind.STATUS_CHANGED
            if candidates_of(solution) < candidates_of(prior):
                return VerdictKind.CANDIDATES_SHRANK
            return None
        self._count(stats)
        closure = self.closure
        # classify()'s status, and the size of candidates_of() its
        # solution: the unexonerated ASes, which for a unique verdict
        # are exactly the forced-True ones.
        if closure.conflict:
            status = SolutionStatus.UNSATISFIABLE
            candidates = 0
        else:
            candidates = self.ledger.observed_count - len(
                closure.forced_false
            )
            status = (
                SolutionStatus.MULTIPLE
                if closure.residual or candidates != len(closure.forced_true)
                else SolutionStatus.UNIQUE
            )
        previous = self.status
        shrank = candidates < self.candidates and not observation.detected
        self.status = status
        self.candidates = candidates
        self._solution = None
        if status is not previous:
            return VerdictKind.STATUS_CHANGED
        if shrank:
            return VerdictKind.CANDIDATES_SHRANK
        return None

    def _count(self, stats: StreamStats) -> None:
        stats.snapshots += 1
        if self.closure.residual:
            stats.fallback_solves += 1
        else:
            stats.propagation_decided += 1

    def snapshot(self, stats: StreamStats) -> ProblemSolution:
        """The problem's verdict over everything ingested so far.

        Exactly what the batch pipeline would report for the same
        observation prefix; a residual left by propagation is closed by
        the capped hitting-set count, as in batch.
        """
        self._count(stats)
        solution = classify(
            self.key, self.ledger, self.solution_cap, self.closure
        )
        self.last_solution = solution
        return solution

    def finalize(self, cache: ProblemSolveCache) -> ProblemSolution:
        """The problem's *final* solution, via the shared batch solve.

        Called at window close, when the clause set is complete.  Routing
        the final answer through :func:`solve_ledger` (the batch memo and
        its counters) makes stream/batch equivalence hold by construction:
        identical ledgers, identical code path, identical bytes.
        """
        solution = solve_ledger(
            self.key, self.ledger, self.solution_cap, cache
        )
        self.last_solution = solution
        return solution


__all__ = ["ProblemState", "StreamStats"]
