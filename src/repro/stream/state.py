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
    classify,
    solve_ledger,
)
from repro.core.splitting import ProblemKey


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
    """One open (URL, anomaly, window) problem, updated in place."""

    __slots__ = (
        "key",
        "solution_cap",
        "observations",
        "ledger",
        "closure",
        "last_solution",
    )

    def __init__(self, key: ProblemKey, solution_cap: int) -> None:
        self.key = key
        self.solution_cap = solution_cap
        self.observations: List[Observation] = []
        self.ledger = PathLedger()
        self.closure = Closure()
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
        self.closure.add(path, observation.detected)
        return True

    @property
    def had_anomaly(self) -> bool:
        return self.ledger.had_anomaly

    def snapshot(self, stats: StreamStats) -> ProblemSolution:
        """The problem's verdict over everything ingested so far.

        Exactly what the batch pipeline would report for the same
        observation prefix; a residual left by propagation is closed by
        the capped hitting-set count, as in batch.
        """
        stats.snapshots += 1
        if self.closure.residual:
            stats.fallback_solves += 1
        else:
            stats.propagation_decided += 1
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
