"""Row generators for Tables 1-3 and the Figure-5 flow matrix."""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.anomaly import Anomaly
from repro.core.censors import CensorReport
from repro.core.leakage import LeakageReport
from repro.iclab.dataset import DatasetStats
from repro.topology.countries import country_by_code


def _country_name(code: str) -> str:
    try:
        return country_by_code(code).name
    except KeyError:
        return code


def table1_rows(stats: DatasetStats) -> List[Tuple[str, str]]:
    """Table 1: dataset characteristics as (label, value) rows."""
    rows: List[Tuple[str, str]] = [
        ("Period", f"{stats.period[0]} .. {stats.period[1]} (sim s)"),
        ("Unique URLs", str(stats.unique_urls)),
        ("AS Vantage Points", str(stats.vantage_ases)),
        ("Destination ASes", str(stats.dest_ases)),
        ("Countries", str(stats.countries)),
        ("Measurements", f"{stats.measurements:,}"),
    ]
    label_by_anomaly = {
        Anomaly.DNS: "w/DNS anomalies",
        Anomaly.SEQ: "w/SEQNO anomalies",
        Anomaly.TTL: "w/TTL anomalies",
        Anomaly.RST: "w/RESET anomalies",
        Anomaly.BLOCK: "w/Blockpages",
    }
    for anomaly in (Anomaly.DNS, Anomaly.SEQ, Anomaly.TTL, Anomaly.RST, Anomaly.BLOCK):
        count = stats.anomaly_counts[anomaly]
        fraction = stats.anomaly_fraction(anomaly)
        rows.append((f"- {label_by_anomaly[anomaly]}", f"{count:,} ({fraction:.2%})"))
    return rows


def _anomaly_label(anomalies: frozenset) -> str:
    if set(anomalies) >= set(Anomaly.all()):
        return "All"
    order = {a: i for i, a in enumerate(Anomaly.all())}
    names = sorted((a.value.upper() for a in anomalies), key=str)
    _ = order  # ordering by name is fine for display
    return ", ".join(names) if names else "-"


def table2_rows(
    report: CensorReport, limit: int = 5
) -> List[Tuple[str, str, str]]:
    """Table 2: regions with the most censoring ASes.

    Rows are (country, censoring ASes, anomaly types).
    """
    rows: List[Tuple[str, str, str]] = []
    for country, asns in list(report.by_country().items())[:limit]:
        rows.append(
            (
                _country_name(country),
                ", ".join(f"AS{asn}" for asn in asns),
                _anomaly_label(report.country_anomalies(country)),
            )
        )
    return rows


def table3_rows(
    report: LeakageReport, limit: int = 5
) -> List[Tuple[str, str, int, int]]:
    """Table 3: censoring ASes with the most leaks.

    Rows are (AS, country, leaks-by-AS, leaks-by-country).
    """
    return [
        (
            f"AS{record.censor_asn}",
            _country_name(record.censor_country),
            record.leaks_as,
            record.leaks_country,
        )
        for record in report.top_leakers(limit)
    ]


def flow_matrix_rows(
    report: LeakageReport, limit: int = 15
) -> List[Tuple[str, str, int]]:
    """Figure 5 as rows: (censor country, victim country, leaked-AS count).

    Sorted by flow weight; the paper's map reads the same data as edge
    thickness.
    """
    flow = report.country_flow()
    ordered = sorted(flow.items(), key=lambda item: (-item[1], item[0]))
    return [
        (_country_name(source), _country_name(victim), weight)
        for (source, victim), weight in ordered[:limit]
    ]


def regional_leakage_fraction(
    report: LeakageReport,
    exclude_countries: Sequence[str] = (),
) -> Optional[float]:
    """Fraction of cross-border leak edges staying within one region.

    The paper observes that "with the exception of China, most other
    leakage is regional"; passing ``exclude_countries=("CN",)`` reproduces
    that reading.  None when there are no cross-border leaks to measure.
    """
    from repro.topology.countries import region_of

    total = 0
    regional = 0
    for (source, victim), _weight in report.country_flow().items():
        if source in exclude_countries:
            continue
        try:
            same = region_of(source) is region_of(victim)
        except KeyError:
            continue
        total += 1
        if same:
            regional += 1
    if total == 0:
        return None
    return regional / total


__all__ = [
    "table1_rows",
    "table2_rows",
    "table3_rows",
    "flow_matrix_rows",
    "regional_leakage_fraction",
]
