"""Time- and URL-based splitting of observations into problems (§3.1).

One tomography problem is built per (URL, anomaly, time window); windows
come in the paper's four granularities.  Splitting by URL keeps unrelated
censorship policies out of each other's CNFs, and splitting by time bounds
the damage a mid-window policy change can do.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Tuple

from repro.anomaly import Anomaly
from repro.core.observations import Observation
from repro.util.timeutil import Granularity, TimeWindow


@dataclass(frozen=True, slots=True)
class ProblemKey:
    """Identity of one tomography problem.

    Slotted: a batch holds one key per problem, tens of thousands on a
    paper-shaped run.
    """

    url: str
    anomaly: Anomaly
    granularity: Granularity
    window: TimeWindow

    def __reduce__(self):
        # Through the constructor, not the per-instance fields() walk of
        # the state pair dataclasses add to frozen slotted classes: a
        # served drain result carries a key per problem.
        return (
            ProblemKey,
            (self.url, self.anomaly, self.granularity, self.window),
        )

    def __str__(self) -> str:
        return (
            f"{self.url} [{self.anomaly.value}] "
            f"{self.granularity.value}@{self.window.index}"
        )


def window_start(timestamp: int, size: int) -> int:
    """The aligned start of the ``size``-second window holding ``timestamp``.

    The single bucketing rule shared by batch splitting (below) and the
    streaming engine (:mod:`repro.stream`): windows are half-open
    ``[start, start + size)`` intervals aligned to multiples of ``size``,
    so a timestamp exactly on a window edge deterministically opens the
    *next* window under every granularity.
    """
    return timestamp - timestamp % size


def split_observations(
    observations: Iterable[Observation],
    granularities: Sequence[Granularity] = Granularity.all(),
) -> Dict[ProblemKey, List[Observation]]:
    """Group observations into per-problem lists.

    Every observation lands in one group per granularity (a day observation
    also belongs to its week, month, and year problems).

    Grouping runs once per observation per granularity — hundreds of
    thousands of bucket operations on a paper-shaped run — so the inner
    loop works on plain tuples and one window object per distinct bucket;
    the (hash-heavier) :class:`ProblemKey` is built once per group.
    """
    sizes = list(enumerate(granularity.seconds for granularity in granularities))
    windows: Dict[Tuple[int, int], TimeWindow] = {}
    # Buckets nest by anomaly so the (Python-level) enum hash is paid once
    # per observation instead of once per bucket operation; inner keys are
    # C-hashed primitives.
    by_anomaly: Dict[Anomaly, Dict[Tuple[str, int, int], List[Observation]]] = {}
    # Bucket creation order is part of the contract: downstream consumers
    # (e.g. reduction fractions) follow the groups' insertion order, which
    # must match first-observation order exactly.
    created: List[Tuple[Anomaly, str, int, int]] = []
    for observation in observations:
        url = observation.url
        timestamp = observation.timestamp
        if timestamp < 0:
            raise ValueError(f"negative timestamp: {timestamp}")
        anomaly = observation.anomaly
        raw = by_anomaly.get(anomaly)
        if raw is None:
            raw = by_anomaly[anomaly] = {}
        for index, size in sizes:
            start = window_start(timestamp, size)
            bucket = (url, index, start)
            group = raw.get(bucket)
            if group is None:
                group = raw[bucket] = []
                created.append((anomaly, url, index, start))
                key = (index, start)
                if key not in windows:
                    windows[key] = TimeWindow(start, start + size)
            group.append(observation)
    granularity_list = list(granularities)
    return {
        ProblemKey(
            url=url,
            anomaly=anomaly,
            granularity=granularity_list[index],
            window=windows[(index, start)],
        ): by_anomaly[anomaly][(url, index, start)]
        for anomaly, url, index, start in created
    }


__all__ = [
    "ProblemKey",
    "window_start",
    "split_observations",
]
