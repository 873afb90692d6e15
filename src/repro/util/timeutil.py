"""Simulated-time utilities.

The measurement campaign runs on a simple integer clock measured in seconds
from time zero (the start of the campaign).  The paper constructs one CNF per
URL per anomaly per *time window*, at four granularities: day, week, month,
and year.  This module is the single source of truth for how timestamps are
bucketed into those windows.

A "month" is modelled as 30 days and a "year" as 365 days.  The tomography
results only depend on *consistent* bucketing, not on calendar arithmetic, so
fixed-size windows are both simpler and easier to reason about in tests.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterator

MINUTE = 60
HOUR = 60 * MINUTE
DAY = 24 * HOUR
WEEK = 7 * DAY
MONTH = 30 * DAY
YEAR = 365 * DAY


class Granularity(enum.Enum):
    """Time-window granularities used for CNF splitting (paper §3.1)."""

    DAY = "day"
    WEEK = "week"
    MONTH = "month"
    YEAR = "year"

    # Identity hash, as on repro.anomaly.Anomaly: members are singletons
    # and ProblemKey hashes one on every dict lookup.
    __hash__ = object.__hash__

    @property
    def seconds(self) -> int:
        """Window length in seconds."""
        return _GRANULARITY_SECONDS[self]

    @classmethod
    def all(cls) -> tuple["Granularity", ...]:
        """All granularities, finest first."""
        return (cls.DAY, cls.WEEK, cls.MONTH, cls.YEAR)


_GRANULARITY_SECONDS = {
    Granularity.DAY: DAY,
    Granularity.WEEK: WEEK,
    Granularity.MONTH: MONTH,
    Granularity.YEAR: YEAR,
}


@dataclass(frozen=True, order=True)
class TimeWindow:
    """A half-open interval ``[start, end)`` of simulated seconds.

    Windows are aligned: ``start`` is always an integer multiple of the
    window length, so the window containing a timestamp is unique.
    """

    start: int
    end: int

    def __post_init__(self) -> None:
        if self.end <= self.start:
            raise ValueError(f"empty window: [{self.start}, {self.end})")

    @property
    def length(self) -> int:
        """Window length in seconds."""
        return self.end - self.start

    def contains(self, timestamp: int) -> bool:
        """Whether ``timestamp`` falls inside this window."""
        return self.start <= timestamp < self.end

    @property
    def index(self) -> int:
        """Ordinal of this window among same-length aligned windows."""
        return self.start // self.length

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"TimeWindow({self.start}, {self.end})"


def window_of(timestamp: int, granularity: Granularity) -> TimeWindow:
    """Return the aligned window of ``granularity`` containing ``timestamp``.

    >>> window_of(0, Granularity.DAY)
    TimeWindow(0, 86400)
    >>> window_of(90000, Granularity.DAY)
    TimeWindow(86400, 172800)
    """
    if timestamp < 0:
        raise ValueError(f"negative timestamp: {timestamp}")
    size = granularity.seconds
    start = (timestamp // size) * size
    return TimeWindow(start, start + size)


def iter_windows(
    start: int, end: int, granularity: Granularity
) -> Iterator[TimeWindow]:
    """Yield every aligned window of ``granularity`` overlapping [start, end).

    >>> [w.start for w in iter_windows(0, 3 * DAY, Granularity.DAY)]
    [0, 86400, 172800]
    """
    if end <= start:
        return
    window = window_of(start, granularity)
    while window.start < end:
        yield window
        window = TimeWindow(window.end, window.end + granularity.seconds)
