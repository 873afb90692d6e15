"""Dataset container and Table-1-style statistics."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.anomaly import Anomaly
from repro.iclab.measurement import Measurement


@dataclass(frozen=True)
class DatasetStats:
    """The quantities of the paper's Table 1."""

    period: Tuple[int, int]
    unique_urls: int
    vantage_ases: int
    dest_ases: int
    countries: int
    measurements: int
    anomaly_counts: Dict[Anomaly, int]

    def anomaly_fraction(self, anomaly: Anomaly) -> float:
        """Fraction of measurements exhibiting ``anomaly``."""
        if self.measurements == 0:
            return 0.0
        return self.anomaly_counts[anomaly] / self.measurements

    @property
    def total_anomalies(self) -> int:
        """Total anomaly detections across all types."""
        return sum(self.anomaly_counts.values())


class Dataset:
    """An append-only collection of measurements with indexed access."""

    def __init__(self, measurements: Iterable[Measurement] = ()) -> None:
        self._measurements: List[Measurement] = []
        for measurement in measurements:
            self.add(measurement)

    def add(self, measurement: Measurement) -> None:
        """Append one measurement."""
        self._measurements.append(measurement)

    def __len__(self) -> int:
        return len(self._measurements)

    def __iter__(self) -> Iterator[Measurement]:
        return iter(self._measurements)

    def __getitem__(self, index: int) -> Measurement:
        return self._measurements[index]

    # -- views ---------------------------------------------------------------

    def urls(self) -> List[str]:
        """Distinct URLs in first-appearance order."""
        seen: Dict[str, None] = {}
        for measurement in self._measurements:
            seen.setdefault(measurement.url, None)
        return list(seen)

    def pairs(self) -> List[Tuple[int, str]]:
        """Distinct (vantage ASN, url) pairs."""
        seen: Dict[Tuple[int, str], None] = {}
        for measurement in self._measurements:
            seen.setdefault((measurement.vantage_asn, measurement.url), None)
        return list(seen)

    # -- statistics ------------------------------------------------------------

    def stats(self) -> DatasetStats:
        """Compute Table-1 statistics over the whole dataset."""
        urls = set()
        vantage_ases = set()
        dest_ases = set()
        countries = set()
        counts: Dict[Anomaly, int] = {a: 0 for a in Anomaly.all()}
        t_min: Optional[int] = None
        t_max: Optional[int] = None
        for measurement in self._measurements:
            urls.add(measurement.url)
            vantage_ases.add(measurement.vantage_asn)
            dest_ases.add(measurement.dest_asn)
            countries.add(measurement.vantage_country)
            for anomaly, detected in measurement.anomalies.items():
                if detected:
                    counts[anomaly] += 1
            if t_min is None or measurement.timestamp < t_min:
                t_min = measurement.timestamp
            if t_max is None or measurement.timestamp > t_max:
                t_max = measurement.timestamp
        return DatasetStats(
            period=(t_min or 0, t_max or 0),
            unique_urls=len(urls),
            vantage_ases=len(vantage_ases),
            dest_ases=len(dest_ases),
            countries=len(countries),
            measurements=len(self._measurements),
            anomaly_counts=counts,
        )


__all__ = ["Dataset", "DatasetStats"]
