"""Measurement records — the paper's five-field record (§3.1).

Each record carries (1) the vantage AS, (2) the URL, (3) the anomaly
results, (4) three traceroutes, and (5) the timestamp.  Ground-truth
annotations (``true_as_path``, ``injector_asns``) are carried alongside for
validation only; they are never read by the inference pipeline, and
serialization segregates them under a ``_truth`` key to make accidental use
conspicuous.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from operator import attrgetter
from typing import Dict, FrozenSet, Tuple

from repro.anomaly import Anomaly
from repro.traceroute.simulate import Traceroute

_REQUIRED_ANOMALIES = Anomaly.all()


@dataclass(frozen=True, slots=True)
class Measurement:
    """One censorship test from one vantage point to one URL.

    ``anomalies`` is read-only: the platform hands every test with the
    same detector outcome one shared dict.  Slotted: a paper-shaped
    campaign holds ~14k records, and none carries an instance dict.
    """

    measurement_id: int
    timestamp: int
    vantage_asn: int
    vantage_country: str
    url: str
    domain: str
    category: str
    dest_asn: int
    anomalies: Dict[Anomaly, bool]
    traceroutes: Tuple[Traceroute, ...]
    # -- ground truth, for validation only --------------------------------
    true_as_path: Tuple[int, ...] = ()
    injector_asns: FrozenSet[int] = frozenset()

    def __post_init__(self) -> None:
        if self.timestamp < 0:
            raise ValueError("negative timestamp")
        anomalies = self.anomalies
        for anomaly in _REQUIRED_ANOMALIES:
            if anomaly not in anomalies:
                missing = [
                    a for a in _REQUIRED_ANOMALIES if a not in anomalies
                ]
                raise ValueError(f"anomaly results missing for: {missing}")

    def __reduce__(self):
        # Rebuilt through the constructor, an unpickled record passes the
        # constructor's checks, and loads without the per-instance
        # fields() walk of the state pair dataclasses add to frozen
        # slotted classes: forked campaign shares come back pickled.
        return (Measurement, _field_values(self))

    def detected(self, anomaly: Anomaly) -> bool:
        """Whether the given anomaly was detected in this test."""
        return self.anomalies[anomaly]

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> dict:
        """Plain-dict form (JSON-safe)."""
        return {
            "id": self.measurement_id,
            "timestamp": self.timestamp,
            "vantage_asn": self.vantage_asn,
            "vantage_country": self.vantage_country,
            "url": self.url,
            "domain": self.domain,
            "category": self.category,
            "dest_asn": self.dest_asn,
            "anomalies": {a.value: v for a, v in self.anomalies.items()},
            "traceroutes": [
                {
                    "error": tr.error,
                    "destination_reached": tr.destination_reached,
                    "hops": [
                        {"index": index, "address": address, "rtt": rtt}
                        for index, address, rtt in tr.hops
                    ],
                }
                for tr in self.traceroutes
            ],
            "_truth": {
                "as_path": list(self.true_as_path),
                "injectors": sorted(self.injector_asns),
            },
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Measurement":
        """Inverse of :meth:`to_dict`."""
        traceroutes = tuple(
            Traceroute(
                hops=tuple(
                    (hop["index"], hop["address"], hop["rtt"])
                    for hop in tr["hops"]
                ),
                destination_reached=tr["destination_reached"],
                error=tr["error"],
            )
            for tr in data["traceroutes"]
        )
        truth = data.get("_truth", {})
        return cls(
            measurement_id=data["id"],
            timestamp=data["timestamp"],
            vantage_asn=data["vantage_asn"],
            vantage_country=data["vantage_country"],
            url=data["url"],
            domain=data["domain"],
            category=data["category"],
            dest_asn=data["dest_asn"],
            anomalies={Anomaly(k): v for k, v in data["anomalies"].items()},
            traceroutes=traceroutes,
            true_as_path=tuple(truth.get("as_path", ())),
            injector_asns=frozenset(truth.get("injectors", ())),
        )


_field_values = attrgetter(*(spec.name for spec in fields(Measurement)))


__all__ = ["Measurement"]
