"""Time-to-localization: how fast the stream pins each censor.

A beyond-the-paper figure the batch pipeline cannot produce: for every
censor the campaign eventually identifies, how many measurements (and how
much simulated time) the stream had to ingest before the censor was
*confirmed* — i.e. before some window closed with the censor forced True.
Run a campaign through :class:`~repro.stream.engine.StreamingLocalizer`
and hand its ``identifications`` log to :class:`TimeToLocalization`.

Read against the ground-truth deployment, the report also surfaces which
true censors were never pinned at all (the recall gap, localized in time).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.stream.engine import CensorIdentification
from repro.util.timeutil import DAY

TTL_HEADERS = [
    "censor",
    "country",
    "true?",
    "measurements",
    "observations",
    "sim-day",
    "first window",
]


@dataclass(frozen=True)
class TimeToLocalization:
    """First-confirmation statistics per identified censor ASN."""

    first_by_asn: Dict[int, CensorIdentification]
    total_measurements: int

    @classmethod
    def from_identifications(
        cls,
        identifications: Iterable[CensorIdentification],
        total_measurements: int = 0,
    ) -> "TimeToLocalization":
        """Collect the engine's identification log (first event per ASN).

        The engine only logs first confirmations, so later entries for an
        ASN (possible after a late-observation retraction re-confirms)
        never overwrite the earliest one.
        """
        first: Dict[int, CensorIdentification] = {}
        for identification in identifications:
            if identification.asn not in first:
                first[identification.asn] = identification
        return cls(first_by_asn=first, total_measurements=total_measurements)

    @classmethod
    def from_engine(cls, engine) -> "TimeToLocalization":
        """Collect directly from a drained (or running) engine."""
        return cls.from_identifications(
            engine.identifications, engine.stats.measurements
        )

    def median_measurements(self) -> Optional[float]:
        """Median measurements-to-confirmation over identified censors."""
        counts = sorted(
            identification.measurements_ingested
            for identification in self.first_by_asn.values()
        )
        if not counts:
            return None
        middle = len(counts) // 2
        if len(counts) % 2:
            return float(counts[middle])
        return (counts[middle - 1] + counts[middle]) / 2.0

    def rows(
        self,
        true_censors: Sequence[int] = (),
        country_by_asn: Optional[Dict[int, str]] = None,
    ) -> List[Tuple]:
        """Table rows (see ``TTL_HEADERS``), earliest confirmation first.

        True censors never confirmed appear at the end with dashes — the
        stream's recall gap at a glance.
        """
        countries = country_by_asn or {}
        truth = set(true_censors)
        ordered = sorted(
            self.first_by_asn.values(),
            key=lambda identification: (
                identification.measurements_ingested,
                identification.asn,
            ),
        )
        rows: List[Tuple] = []
        for identification in ordered:
            rows.append(
                (
                    f"AS{identification.asn}",
                    countries.get(identification.asn, "??"),
                    "yes" if identification.asn in truth else "NO",
                    identification.measurements_ingested,
                    identification.observations_ingested,
                    f"{identification.timestamp / DAY:.1f}",
                    str(identification.key),
                )
            )
        for asn in sorted(truth - set(self.first_by_asn)):
            rows.append(
                (f"AS{asn}", countries.get(asn, "??"), "yes",
                 "-", "-", "-", "never confirmed")
            )
        return rows

    def as_dict(
        self, true_censors: Sequence[int] = ()
    ) -> Dict[str, object]:
        """JSON-compatible summary (the streaming CLI's ``--json`` body)."""
        truth = set(true_censors)
        return {
            "total_measurements": self.total_measurements,
            "identified": [
                {
                    "asn": identification.asn,
                    "true_censor": identification.asn in truth,
                    "measurements": identification.measurements_ingested,
                    "observations": identification.observations_ingested,
                    "timestamp": identification.timestamp,
                    "window": str(identification.key),
                }
                for identification in sorted(
                    self.first_by_asn.values(),
                    key=lambda i: (i.measurements_ingested, i.asn),
                )
            ],
            "never_confirmed_true_censors": sorted(
                truth - set(self.first_by_asn)
            ),
            "median_measurements": self.median_measurements(),
        }


__all__ = ["TimeToLocalization", "TTL_HEADERS"]
