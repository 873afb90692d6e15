"""Measurements → boolean path observations.

An :class:`Observation` is the tomography's atom: "at time t, the AS path
``p`` was tested for anomaly ``a`` on URL ``u``, and the anomaly was (not)
observed".  One measurement yields one observation per anomaly type, all
sharing the measurement's converted AS path; measurements whose traceroutes
were inconclusive are discarded and tallied in :class:`DiscardStats`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.anomaly import Anomaly
from repro.core.aspath import InconclusiveReason, _convert
from repro.iclab.dataset import Dataset
from repro.iclab.measurement import Measurement
from repro.topology.ip2as import IpToAsDatabase


@dataclass(frozen=True, slots=True)
class Observation:
    """One boolean end-to-end measurement over one AS path.

    Slotted: a paper-shaped campaign converts to ~68k observations, and
    without a per-instance ``__dict__`` each costs one object, not two.
    """

    url: str
    anomaly: Anomaly
    detected: bool
    as_path: Tuple[int, ...]
    timestamp: int
    measurement_id: int

    def __post_init__(self) -> None:
        if not self.as_path:
            raise ValueError("observation requires a non-empty AS path")

    def __reduce__(self):
        # Pickle as a call to the slot-filling constructor below, not
        # through the per-instance fields() walk of the state pair
        # dataclasses add to frozen slotted classes, nor the keyword
        # __init__: a served drain result carries every observation of
        # the campaign.
        return (
            _observation,
            (
                self.url,
                self.anomaly,
                self.detected,
                self.as_path,
                self.timestamp,
                self.measurement_id,
            ),
        )

    @property
    def vantage_asn(self) -> int:
        """The path's first AS (the vantage point's)."""
        return self.as_path[0]

    @property
    def dest_asn(self) -> int:
        """The path's last AS."""
        return self.as_path[-1]


_new_observation = object.__new__
_set_url = Observation.url.__set__
_set_anomaly = Observation.anomaly.__set__
_set_detected = Observation.detected.__set__
_set_as_path = Observation.as_path.__set__
_set_timestamp = Observation.timestamp.__set__
_set_measurement_id = Observation.measurement_id.__set__


def _observation(
    url: str,
    anomaly: Anomaly,
    detected: bool,
    as_path: Tuple[int, ...],
    timestamp: int,
    measurement_id: int,
) -> Observation:
    """An :class:`Observation` built by filling its slots directly.

    The one bulk construction path: conversion, the wire decoder and
    unpickling all build through it.  The frozen dataclass ``__init__``
    stores each field through ``object.__setattr__``, about twice as
    slow per observation.  The non-empty path check of ``__post_init__``
    is kept.
    """
    if not as_path:
        raise ValueError("observation requires a non-empty AS path")
    observation = _new_observation(Observation)
    _set_url(observation, url)
    _set_anomaly(observation, anomaly)
    _set_detected(observation, detected)
    _set_as_path(observation, as_path)
    _set_timestamp(observation, timestamp)
    _set_measurement_id(observation, measurement_id)
    return observation


@dataclass
class DiscardStats:
    """How many measurements survived conversion, and why others did not."""

    total: int = 0
    converted: int = 0
    discarded_by_reason: Dict[InconclusiveReason, int] = field(
        default_factory=dict
    )

    @property
    def discarded(self) -> int:
        """Total number of discarded measurements."""
        return sum(self.discarded_by_reason.values())

    @property
    def conversion_rate(self) -> float:
        """Fraction of measurements yielding a conclusive AS path."""
        return self.converted / self.total if self.total else 0.0

    def record_discard(self, reason: InconclusiveReason) -> None:
        """Tally one discarded measurement."""
        self.discarded_by_reason[reason] = (
            self.discarded_by_reason.get(reason, 0) + 1
        )

    def merge(self, other: "DiscardStats") -> None:
        """Fold another tally into this one (in place)."""
        self.total += other.total
        self.converted += other.converted
        for reason, count in other.discarded_by_reason.items():
            self.discarded_by_reason[reason] = (
                self.discarded_by_reason.get(reason, 0) + count
            )


def observations_of(
    measurement: Measurement,
    ip2as: IpToAsDatabase,
    anomalies: Sequence[Anomaly] = Anomaly.all(),
    stats: Optional[DiscardStats] = None,
    conversion_cache: Optional[Dict] = None,
    record: Callable[..., Any] = _observation,
) -> List[Any]:
    """Convert one measurement into its per-anomaly observations.

    The single measurement→observation code path: :func:`build_observations`
    maps it over a whole dataset, and the streaming engine
    (:mod:`repro.stream`) applies it to measurements as they arrive, so the
    two layers cannot disagree on conversion or discard semantics.  Returns
    ``[]`` (after tallying into ``stats``) when the measurement's
    traceroutes were inconclusive.

    ``record`` builds each anomaly's record from ``(url, anomaly,
    detected, as_path, timestamp, measurement_id)``: an
    :class:`Observation` by default, or, for a front end that only ships
    them, :func:`repro.api.wire.observation_record`'s wire tuples.
    """
    as_path, reason = _convert(
        measurement,
        ip2as,
        {} if conversion_cache is None else conversion_cache,
    )
    if stats is not None:
        stats.total += 1
        if as_path is None:
            assert reason is not None
            stats.record_discard(reason)
        else:
            stats.converted += 1
    if as_path is None:
        return []
    detected_by_anomaly = measurement.anomalies
    url = measurement.url
    timestamp = measurement.timestamp
    measurement_id = measurement.measurement_id
    return [
        record(
            url,
            anomaly,
            detected_by_anomaly[anomaly],
            as_path,
            timestamp,
            measurement_id,
        )
        for anomaly in anomalies
    ]


def build_observations(
    dataset: Dataset,
    ip2as: IpToAsDatabase,
    anomalies: Sequence[Anomaly] = Anomaly.all(),
) -> Tuple[List[Observation], DiscardStats]:
    """Convert an entire dataset into observations.

    Returns the observations plus discard statistics.  Each surviving
    measurement contributes ``len(anomalies)`` observations sharing its
    AS path.
    """
    observations: List[Observation] = []
    stats = DiscardStats()
    conversion_cache: Dict = {}
    for measurement in dataset:
        observations.extend(
            observations_of(
                measurement,
                ip2as,
                anomalies=anomalies,
                stats=stats,
                conversion_cache=conversion_cache,
            )
        )
    return observations, stats


def first_path_only(observations: Iterable[Observation]) -> List[Observation]:
    """The paper's no-churn ablation filter (Figure 4).

    Keeps, per (vantage, URL), only observations whose AS path equals the
    *first observed distinct path* for that pair — i.e., discards every
    measurement that only exists thanks to path churn.
    """
    ordered = sorted(observations, key=lambda o: (o.timestamp, o.measurement_id))
    first_path: Dict[Tuple[int, str], Tuple[int, ...]] = {}
    kept: List[Observation] = []
    for observation in ordered:
        key = (observation.vantage_asn, observation.url)
        anchor = first_path.setdefault(key, observation.as_path)
        if observation.as_path == anchor:
            kept.append(observation)
    return kept


__all__ = [
    "Observation",
    "DiscardStats",
    "observations_of",
    "build_observations",
    "first_path_only",
]
