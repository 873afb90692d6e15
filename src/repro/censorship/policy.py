"""Censorship policies: what a censor blocks, and how that changes over time.

A policy is a sequence of :class:`PolicyEpoch` objects partitioning the
simulation horizon; each epoch carries the set of blocked categories.
Policy changes inside a tomography time window make the window's CNF
unsatisfiable (the same path yields both True and False clauses), which is
one of the two no-solution causes the paper names — so epochs are a first-
class modelling concept here, not an afterthought.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import FrozenSet, List, Optional, Sequence

from repro.urls.categories import Category
from repro.util.rng import DeterministicRNG
from repro.util.timeutil import DAY


@dataclass(frozen=True)
class PolicyEpoch:
    """Blocked categories over the half-open interval [start, end)."""

    start: int
    end: int
    blocked: FrozenSet[Category]

    def __post_init__(self) -> None:
        if self.end <= self.start:
            raise ValueError("empty policy epoch")


class CensorshipPolicy:
    """A censor's time-varying category blocklist."""

    def __init__(self, epochs: Sequence[PolicyEpoch]) -> None:
        if not epochs:
            raise ValueError("policy needs at least one epoch")
        ordered = sorted(epochs, key=lambda e: e.start)
        for previous, current in zip(ordered, ordered[1:]):
            if current.start != previous.end:
                raise ValueError("policy epochs must tile the horizon")
        self._epochs = list(ordered)
        self._starts = [epoch.start for epoch in self._epochs]

    @classmethod
    def constant(
        cls, blocked: Sequence[Category], start: int, end: int
    ) -> "CensorshipPolicy":
        """A policy that never changes."""
        return cls([PolicyEpoch(start, end, frozenset(blocked))])

    def epoch_at(self, timestamp: int) -> PolicyEpoch:
        """The epoch containing ``timestamp`` (clamped to the horizon)."""
        index = bisect.bisect_right(self._starts, timestamp) - 1
        index = max(0, min(index, len(self._epochs) - 1))
        return self._epochs[index]

    def blocks(self, category: Optional[Category], timestamp: int) -> bool:
        """Whether ``category`` is blocked at ``timestamp``."""
        if category is None:
            return False
        return category in self.epoch_at(timestamp).blocked

    @property
    def epochs(self) -> List[PolicyEpoch]:
        """All epochs in time order."""
        return list(self._epochs)

    @property
    def changes(self) -> int:
        """Number of times the blocklist actually changed."""
        return sum(
            1
            for previous, current in zip(self._epochs, self._epochs[1:])
            if previous.blocked != current.blocked
        )


def random_policy(
    base_categories: Sequence[Category],
    start: int,
    end: int,
    rng: DeterministicRNG,
    change_rate_per_year: float = 2.0,
    all_categories: Sequence[Category] = Category.all(),
) -> CensorshipPolicy:
    """A policy starting from ``base_categories`` with occasional changes.

    Change points follow exponential gaps with the given yearly rate; at
    each change one category is toggled (added if absent, dropped if
    present) — the "Iran increases censorship around elections" pattern.
    """
    if end <= start:
        raise ValueError("empty policy horizon")
    blocked = set(base_categories)
    epochs: List[PolicyEpoch] = []
    cursor = start
    year = 365 * DAY
    if change_rate_per_year <= 0:
        return CensorshipPolicy.constant(list(blocked), start, end)
    mean_gap = year / change_rate_per_year
    change_at = cursor + rng.expovariate(1.0 / mean_gap)
    while change_at < end:
        point = int(change_at)
        if point > cursor:
            epochs.append(PolicyEpoch(cursor, point, frozenset(blocked)))
            cursor = point
        toggle = rng.pick(list(all_categories))
        if toggle in blocked and len(blocked) > 1:
            blocked.discard(toggle)
        else:
            blocked.add(toggle)
        change_at += rng.expovariate(1.0 / mean_gap)
    epochs.append(PolicyEpoch(cursor, end, frozenset(blocked)))
    return CensorshipPolicy(epochs)


__all__ = ["PolicyEpoch", "CensorshipPolicy", "random_policy"]
