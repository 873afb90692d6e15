"""Candidate-set reduction for multi-solution problems (§3.2, Figure 2).

When a CNF has 2+ solutions the censor cannot be pinned down, but every AS
whose literal is False in *all* solutions is a definite non-censor.  The
reduction fraction — eliminated ASes over observed ASes — is the paper's
Figure 2 quantity; its average is the headline "95.2% of all ASes in a CNF
are identified as definite non-censors".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Sequence

from repro.core.problem import ProblemSolution, SolutionStatus


@dataclass(frozen=True)
class ReductionStats:
    """Summary of candidate-set reduction across MULTIPLE problems."""

    fractions: Sequence[float]          # one per multi-solution problem
    no_elimination_fraction: float      # problems where nothing was eliminated

    @property
    def count(self) -> int:
        """Number of multi-solution problems measured."""
        return len(self.fractions)

    @property
    def mean(self) -> float:
        """Mean reduction (the paper's 95.2% analog)."""
        return sum(self.fractions) / len(self.fractions) if self.fractions else 0.0

    @property
    def median(self) -> float:
        """Median reduction (Figure 2's 50th percentile, ≈90% in the paper)."""
        return self.percentile(50.0)

    def percentile(self, percent: float) -> float:
        """Linear-interpolated percentile of the reduction fractions."""
        if not self.fractions:
            return 0.0
        if not (0.0 <= percent <= 100.0):
            raise ValueError("percent must be in [0, 100]")
        ordered = sorted(self.fractions)
        if len(ordered) == 1:
            return ordered[0]
        rank = (percent / 100.0) * (len(ordered) - 1)
        low = int(rank)
        high = min(low + 1, len(ordered) - 1)
        weight = rank - low
        return ordered[low] * (1.0 - weight) + ordered[high] * weight

    def cdf_points(self, bins: int = 20) -> List[tuple]:
        """(reduction %, cumulative fraction) pairs for plotting Figure 2."""
        if not self.fractions:
            return []
        points = []
        ordered = sorted(self.fractions)
        for i in range(bins + 1):
            threshold = i / bins
            covered = sum(1 for f in ordered if f <= threshold) / len(ordered)
            points.append((threshold * 100.0, covered))
        return points


def reduction_of(solutions: Iterable[ProblemSolution]) -> ReductionStats:
    """Compute reduction statistics over the MULTIPLE-status problems."""
    fractions: List[float] = []
    none_eliminated = 0
    for solution in solutions:
        if solution.status is not SolutionStatus.MULTIPLE:
            continue
        fraction = solution.reduction_fraction
        if fraction is None:
            continue
        fractions.append(fraction)
        if not solution.eliminated:
            none_eliminated += 1
    no_elimination = none_eliminated / len(fractions) if fractions else 0.0
    return ReductionStats(
        fractions=tuple(fractions), no_elimination_fraction=no_elimination
    )


__all__ = ["ReductionStats", "reduction_of"]
