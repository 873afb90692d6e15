"""Aggregating exact censor identifications across problems (§3.2, §4).

An AS is *identified as a censor* when some UNIQUE-solution problem assigns
it True.  Findings are aggregated per (AS, anomaly) with the URLs and
windows involved, then rolled up into the per-country view of the paper's
Table 2.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.anomaly import Anomaly
from repro.core.problem import ProblemSolution, SolutionStatus
from repro.util.timeutil import Granularity


@dataclass
class CensorFinding:
    """Evidence that one AS censors one anomaly type."""

    asn: int
    anomaly: Anomaly
    urls: Set[str] = field(default_factory=set)
    granularities: Set[Granularity] = field(default_factory=set)
    problem_count: int = 0

    def record(self, url: str, granularity: Granularity) -> None:
        """Add one supporting problem."""
        self.urls.add(url)
        self.granularities.add(granularity)
        self.problem_count += 1


@dataclass
class CensorReport:
    """All exact identifications, with per-AS and per-country rollups."""

    findings: Dict[Tuple[int, Anomaly], CensorFinding] = field(
        default_factory=dict
    )
    country_by_asn: Dict[int, str] = field(default_factory=dict)

    @property
    def censor_asns(self) -> List[int]:
        """Distinct censoring ASNs, sorted."""
        return sorted({asn for asn, _ in self.findings})

    def support_of(self, asn: int) -> int:
        """Total number of problems that identified ``asn`` as a censor."""
        return sum(
            finding.problem_count
            for (censor, _), finding in self.findings.items()
            if censor == asn
        )

    def well_supported_asns(self, min_problems: int = 2) -> List[int]:
        """Censors identified by at least ``min_problems`` problems.

        Noise-driven false identifications (an organic RST on an otherwise
        clean path whose other ASes all happen to be exonerated) are
        typically one-off: they appear in a single window's problem and
        vanish.  Real censors recur across windows, granularities, and
        URLs.  This filter is a reproduction-side extension — the paper
        reports raw identifications because it has no ground truth to
        measure the noise floor against.
        """
        return [
            asn for asn in self.censor_asns if self.support_of(asn) >= min_problems
        ]

    def anomalies_of(self, asn: int) -> FrozenSet[Anomaly]:
        """Anomaly types attributed to ``asn``."""
        return frozenset(a for censor, a in self.findings if censor == asn)

    def countries(self) -> FrozenSet[str]:
        """Countries containing at least one identified censor."""
        return frozenset(
            self.country_by_asn[asn]
            for asn in self.censor_asns
            if asn in self.country_by_asn
        )

    def by_country(self) -> Dict[str, List[int]]:
        """Censoring ASNs grouped by country, most censors first."""
        grouped: Dict[str, List[int]] = {}
        for asn in self.censor_asns:
            country = self.country_by_asn.get(asn, "??")
            grouped.setdefault(country, []).append(asn)
        return dict(
            sorted(grouped.items(), key=lambda item: (-len(item[1]), item[0]))
        )

    def country_anomalies(self, country: str) -> FrozenSet[Anomaly]:
        """Union of anomaly types across a country's censors (Table 2)."""
        out: Set[Anomaly] = set()
        for asn in self.by_country().get(country, []):
            out |= self.anomalies_of(asn)
        return frozenset(out)


def identify_censors(
    solutions: Iterable[ProblemSolution],
    country_by_asn: Optional[Dict[int, str]] = None,
) -> CensorReport:
    """Aggregate UNIQUE-solution censors into a :class:`CensorReport`.

    Backbone-certain censors of MULTIPLE problems (True in every solution)
    are included as well: the paper's exactness criterion is "the truth
    assignment is forced", which those satisfy.
    """
    report = CensorReport(country_by_asn=dict(country_by_asn or {}))
    for solution in solutions:
        if solution.status is SolutionStatus.UNSATISFIABLE:
            continue
        for asn in solution.censors:
            key = (asn, solution.key.anomaly)
            finding = report.findings.get(key)
            if finding is None:
                finding = CensorFinding(asn=asn, anomaly=solution.key.anomaly)
                report.findings[key] = finding
            finding.record(solution.key.url, solution.key.granularity)
    return report


__all__ = ["CensorFinding", "CensorReport", "identify_censors"]
