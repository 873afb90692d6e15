"""Censorship-leakage identification (paper §3.3).

Leakage victims are found only in problems that returned exactly one
solution.  For each identified censor ``c`` and each censored path through
``c`` used by such a problem, every AS that

1. is assigned False in the returned solution (a confirmed non-censor),
2. sits *upstream* of ``c`` — between the vantage point and the censor, so
   its traffic transits the censor to reach the destination, and
3. operates in a different country than ``c``,

is a victim of cross-border censorship leakage.  Same-country upstream
non-censors are counted as AS-level (intra-country) leakage, matching the
paper's separate "leaks (AS)" and "leaks (Country)" columns in Table 3.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Sequence, Set, Tuple

from repro.core.observations import Observation
from repro.core.problem import ProblemSolution, SolutionStatus
from repro.core.splitting import ProblemKey


@dataclass
class LeakageRecord:
    """Leakage attributed to one censoring AS."""

    censor_asn: int
    censor_country: str
    victim_asns: Set[int] = field(default_factory=set)
    victim_countries: Set[str] = field(default_factory=set)

    @property
    def leaks_as(self) -> int:
        """Number of distinct victim ASes (Table 3, "Leaks (AS)")."""
        return len(self.victim_asns)

    @property
    def leaks_country(self) -> int:
        """Number of distinct foreign victim countries (Table 3)."""
        return len(self.victim_countries)


@dataclass
class LeakageReport:
    """All leakage findings plus country-to-country flow (Figure 5)."""

    records: Dict[int, LeakageRecord] = field(default_factory=dict)

    @property
    def leaking_censors(self) -> List[int]:
        """Censors leaking to at least one other AS."""
        return sorted(
            asn for asn, record in self.records.items() if record.leaks_as > 0
        )

    @property
    def cross_border_censors(self) -> List[int]:
        """Censors leaking into at least one other country."""
        return sorted(
            asn
            for asn, record in self.records.items()
            if record.leaks_country > 0
        )

    def top_leakers(self, count: int = 5) -> List[LeakageRecord]:
        """Table 3: censors with the most AS-level leaks."""
        ordered = sorted(
            self.records.values(),
            key=lambda record: (-record.leaks_as, -record.leaks_country, record.censor_asn),
        )
        return ordered[:count]

    def country_flow(self) -> Dict[Tuple[str, str], int]:
        """Figure 5: (censor country, victim country) -> victim-AS count."""
        flow: Dict[Tuple[str, str], int] = {}
        for record in self.records.values():
            for victim_country in record.victim_countries:
                key = (record.censor_country, victim_country)
                flow[key] = flow.get(key, 0) + 1
        return flow


def identify_leakage(
    solutions: Iterable[ProblemSolution],
    observations_by_key: Dict[ProblemKey, Sequence[Observation]],
    country_by_asn: Dict[int, str],
) -> LeakageReport:
    """Run the §3.3 procedure over all UNIQUE-solution problems."""
    return leakage_from_paths(
        solutions,
        lambda key: [
            observation.as_path
            for observation in observations_by_key.get(key, ())
            if observation.detected
        ],
        country_by_asn,
    )


def leakage_from_paths(
    solutions: Iterable[ProblemSolution],
    censored_paths: Callable[[ProblemKey], Iterable[Tuple[int, ...]]],
    country_by_asn: Dict[int, str],
) -> LeakageReport:
    """:func:`identify_leakage` over each UNIQUE problem's censored paths,
    one per censored observation in arrival order, as
    ``censored_paths(key)`` gives them — all the procedure reads of a
    problem's observations."""
    report = LeakageReport()
    for solution in solutions:
        if solution.status is not SolutionStatus.UNIQUE:
            continue
        if not solution.censors:
            continue  # all-clean problem: nothing to leak
        for path in censored_paths(solution.key):
            for censor in solution.censors:
                if censor not in path:
                    continue
                censor_country = country_by_asn.get(censor, "??")
                record = report.records.get(censor)
                if record is None:
                    record = LeakageRecord(
                        censor_asn=censor, censor_country=censor_country
                    )
                    report.records[censor] = record
                censor_index = path.index(censor)
                for upstream in path[:censor_index]:
                    if upstream not in solution.eliminated:
                        continue  # only confirmed non-censors are victims
                    record.victim_asns.add(upstream)
                    upstream_country = country_by_asn.get(upstream)
                    if (
                        upstream_country is not None
                        and upstream_country != censor_country
                    ):
                        record.victim_countries.add(upstream_country)
    return report


__all__ = [
    "LeakageRecord",
    "LeakageReport",
    "identify_leakage",
    "leakage_from_paths",
]
