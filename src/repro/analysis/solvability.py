"""Number-of-solutions distributions (Figures 1a, 1b, and 4).

Figure 1 buckets CNFs into {0, 1, 2+} solutions, split by granularity (1a)
and anomaly type (1b).  Figure 4 uses finer buckets {0..4, 5+} for the
no-churn ablation.  The histograms here support both bucketings.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Sequence

from repro.anomaly import Anomaly
from repro.core.problem import ProblemSolution
from repro.util.timeutil import Granularity


@dataclass
class SolvabilityHistogram:
    """Histogram over solution counts for a set of problems."""

    label: str
    counts: List[int] = field(default_factory=list)

    def add(self, solution: ProblemSolution) -> None:
        """Record one solved problem."""
        self.counts.append(solution.num_solutions)

    @property
    def total(self) -> int:
        """Number of problems recorded."""
        return len(self.counts)

    def fraction(self, bucket: str) -> float:
        """Fraction in a bucket named '0', '1', ..., or 'k+'."""
        if not self.counts:
            return 0.0
        if bucket.endswith("+"):
            threshold = int(bucket[:-1])
            matching = sum(1 for c in self.counts if c >= threshold)
        else:
            value = int(bucket)
            matching = sum(1 for c in self.counts if c == value)
        return matching / len(self.counts)

    def coarse(self) -> Dict[str, float]:
        """Figure-1 bucketing: {0, 1, 2+}."""
        return {
            "0": self.fraction("0"),
            "1": self.fraction("1"),
            "2+": self.fraction("2+"),
        }

    def fine(self) -> Dict[str, float]:
        """Figure-4 bucketing: {0, 1, 2, 3, 4, 5+}."""
        out = {str(v): self.fraction(str(v)) for v in range(5)}
        out["5+"] = self.fraction("5+")
        return out

    @property
    def unique_fraction(self) -> float:
        """Fraction of problems with exactly one solution."""
        return self.fraction("1")

    @property
    def unsat_fraction(self) -> float:
        """Fraction of problems with no solution."""
        return self.fraction("0")


def _collect(
    solutions: Iterable[ProblemSolution],
    label: str,
    censored_only: bool,
) -> SolvabilityHistogram:
    histogram = SolvabilityHistogram(label=label)
    for solution in solutions:
        if censored_only and not solution.had_anomaly:
            continue
        histogram.add(solution)
    return histogram


def solvability_by_granularity(
    solutions: Sequence[ProblemSolution],
    granularities: Sequence[Granularity] = (
        Granularity.DAY,
        Granularity.WEEK,
        Granularity.MONTH,
    ),
    censored_only: bool = True,
) -> Dict[Granularity, SolvabilityHistogram]:
    """Figure 1a: one histogram per granularity.

    ``censored_only`` restricts to problems containing at least one
    detected anomaly — the interesting CNFs whose solvability the paper
    plots (anomaly-free CNFs are trivially unique).
    """
    return {
        granularity: _collect(
            (s for s in solutions if s.key.granularity == granularity),
            label=granularity.value,
            censored_only=censored_only,
        )
        for granularity in granularities
    }


def solvability_by_anomaly(
    solutions: Sequence[ProblemSolution],
    anomalies: Sequence[Anomaly] = Anomaly.all(),
    censored_only: bool = True,
) -> Dict[Anomaly, SolvabilityHistogram]:
    """Figure 1b: one histogram per anomaly type."""
    return {
        anomaly: _collect(
            (s for s in solutions if s.key.anomaly == anomaly),
            label=anomaly.value,
            censored_only=censored_only,
        )
        for anomaly in anomalies
    }


def overall_unique_fraction(
    solutions: Sequence[ProblemSolution], censored_only: bool = True
) -> float:
    """The paper's "nearly 92% of our CNFs return exactly one solution"."""
    histogram = _collect(solutions, label="overall", censored_only=censored_only)
    return histogram.unique_fraction


def overall_unsat_fraction(
    solutions: Sequence[ProblemSolution], censored_only: bool = True
) -> float:
    """The paper's "less than 6% of our CNFs return no solution"."""
    histogram = _collect(solutions, label="overall", censored_only=censored_only)
    return histogram.unsat_fraction


__all__ = [
    "SolvabilityHistogram",
    "solvability_by_granularity",
    "solvability_by_anomaly",
    "overall_unique_fraction",
    "overall_unsat_fraction",
]
