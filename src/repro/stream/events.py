"""Verdict-delta events emitted by the streaming localization engine.

The engine turns per-observation state changes into a small vocabulary of
events, delivered synchronously to subscriber callbacks:

- ``STATUS_CHANGED`` — a problem's tentative 0/1/2+ classification moved
  (clauses only accumulate, so for a fixed AS population it can only move
  down the 2+ → 1 → 0 ladder);
- ``CANDIDATES_SHRANK`` — the problem's candidate censor set narrowed
  (an AS was newly eliminated as a definite non-censor; eliminations are
  permanent within a window);
- ``CENSOR_IDENTIFIED`` — an AS was *confirmed* as a censor.  Emitted only
  when its window closes, because only then is the clause set final —
  which is what makes confirmed identifications immune to retraction (the
  verdict-monotonicity invariant the tests pin);
- ``CENSOR_RETRACTED`` — a previously confirmed censor lost confirmation.
  Only possible when a late (out-of-order) observation reopens a closed
  window; never emitted for in-order sources;
- ``WINDOW_CLOSED`` — a problem's window passed the stream watermark and
  its final solution is fixed.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Callable, Dict, FrozenSet, Optional

from repro.core.pipeline import (
    problem_key_from_dict,
    problem_key_to_dict,
    solution_from_dict,
    solution_to_dict,
)
from repro.core.problem import ProblemSolution, SolutionStatus
from repro.core.splitting import ProblemKey


class VerdictKind(enum.Enum):
    """The kinds of verdict deltas a subscriber can receive."""

    STATUS_CHANGED = "status_changed"
    CANDIDATES_SHRANK = "candidates_shrank"
    CENSOR_IDENTIFIED = "censor_identified"
    CENSOR_RETRACTED = "censor_retracted"
    WINDOW_CLOSED = "window_closed"


@dataclass(frozen=True)
class VerdictEvent:
    """One verdict delta on one tomography problem.

    ``sequence`` is the engine's monotone event counter; ``timestamp`` is
    the simulated time of the observation that triggered the event (the
    stream watermark for close events).  ``observations_ingested`` /
    ``measurements_ingested`` are the engine's totals at emission time —
    the x-axis of the time-to-localization analysis.  ``solution`` is the
    problem's verdict snapshot after the update (final when ``kind`` is
    ``WINDOW_CLOSED``); ``asn`` is set for per-censor events.
    """

    kind: VerdictKind
    key: ProblemKey
    sequence: int
    timestamp: int
    observations_ingested: int
    measurements_ingested: int
    solution: Optional[ProblemSolution] = None
    asn: Optional[int] = None
    previous_status: Optional[str] = None
    candidates: Optional[FrozenSet[int]] = None

    def describe(self) -> str:
        """One human-readable line (the streaming CLI's event log)."""
        if self.kind is VerdictKind.CENSOR_IDENTIFIED:
            detail = f"AS{self.asn} confirmed censoring"
        elif self.kind is VerdictKind.CENSOR_RETRACTED:
            detail = f"AS{self.asn} retracted (late observation)"
        elif self.kind is VerdictKind.CANDIDATES_SHRANK:
            count = len(self.candidates) if self.candidates is not None else 0
            detail = f"candidates down to {count}"
        elif self.kind is VerdictKind.STATUS_CHANGED:
            status = self.solution.status.value if self.solution else "?"
            detail = f"{self.previous_status or 'new'} -> {status}"
        else:
            status = self.solution.status.value if self.solution else "?"
            detail = f"closed as {status}"
        return (
            f"[{self.sequence:>6}] t={self.timestamp:>9} "
            f"{self.kind.value:<17} {self.key}  {detail}"
        )

    # -- wire form (sharded backend workers ship events to the parent) ----

    def to_dict(self) -> Dict[str, Any]:
        """JSON-compatible form, round-tripping through :meth:`from_dict`."""
        return {
            "kind": self.kind.value,
            "key": problem_key_to_dict(self.key),
            "sequence": self.sequence,
            "timestamp": self.timestamp,
            "observations_ingested": self.observations_ingested,
            "measurements_ingested": self.measurements_ingested,
            "solution": (
                solution_to_dict(self.solution)
                if self.solution is not None
                else None
            ),
            "asn": self.asn,
            "previous_status": self.previous_status,
            "candidates": (
                sorted(self.candidates)
                if self.candidates is not None
                else None
            ),
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "VerdictEvent":
        return cls(
            kind=VerdictKind(payload["kind"]),
            key=problem_key_from_dict(payload["key"]),
            sequence=payload["sequence"],
            timestamp=payload["timestamp"],
            observations_ingested=payload["observations_ingested"],
            measurements_ingested=payload["measurements_ingested"],
            solution=(
                solution_from_dict(payload["solution"])
                if payload.get("solution") is not None
                else None
            ),
            asn=payload.get("asn"),
            previous_status=payload.get("previous_status"),
            candidates=(
                frozenset(payload["candidates"])
                if payload.get("candidates") is not None
                else None
            ),
        )


Subscriber = Callable[[VerdictEvent], None]


def candidates_of(solution: ProblemSolution) -> FrozenSet[int]:
    """The candidate censor set a verdict narrows: potential censors for
    2+-solution problems, the pinned censors for unique ones, empty for
    unsatisfiable ones.  ``STATUS_CHANGED`` and ``CANDIDATES_SHRANK``
    events carry exactly this set of their solution."""
    if solution.status is SolutionStatus.MULTIPLE:
        return solution.potential_censors
    if solution.status is SolutionStatus.UNIQUE:
        return solution.censors
    return frozenset()


__all__ = ["VerdictKind", "VerdictEvent", "Subscriber", "candidates_of"]
