"""Network-level path churn: per-pair schedules and the path oracle.

The paper's key enabler is that AS paths between a fixed (source,
destination) pair change over time — 25% of pairs within a day, rising to
67% within a year (Figure 3).  This module reproduces that phenomenon:

- **Alternative discovery.**  For a pair, genuinely distinct valley-free
  paths are discovered by recomputing routes under perturbed tie-break
  salts and under single-link failures along the canonical path.  Every
  alternative is a real policy path in the topology; churn never invents
  hops.
- **Pair schedules.**  Each pair draws a churn intensity from a mixture:
  a fraction of pairs is *stable* (never changes within the horizon), the
  rest switch between alternatives at exponential intervals with a
  per-pair rate drawn log-uniformly.  This mixture is what produces the
  day/week/month/year churn gradient.
- **The oracle.**  :class:`PathOracle` answers ``aspath_at(src, dst, t)``
  and is the only routing interface the measurement platform consumes.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.routing.bgp import ASPath, RouteComputer, RoutingTable
from repro.topology.graph import ASGraph
from repro.util.profiling import StageTimer, maybe_stage
from repro.util.rng import DeterministicRNG
from repro.util.timeutil import DAY


# Default per-pair switch-rate mixture: (probability, min, max switches/day),
# rates drawn log-uniformly within a bucket.  Calibrated so that the
# fraction of pairs whose path visibly changes within a day / week / month /
# year lands near the paper's 25% / 30% / 38% / 67% (Figure 3).
DEFAULT_RATE_MIXTURE: Tuple[Tuple[float, float, float], ...] = (
    (0.28, 2.5, 10.0),    # flappy: several switches a day
    (0.03, 0.3, 1.5),     # weekly-scale instability
    (0.07, 0.05, 0.25),   # monthly-scale
    (0.29, 0.002, 0.02),  # yearly-scale: one or two moves a year
)


@dataclass(frozen=True)
class ChurnConfig:
    """Parameters of the churn process.

    ``stable_fraction`` is the probability that a pair never churns within
    the horizon; the remaining probability mass is split across the
    ``rate_mixture`` buckets (probability, min rate, max rate in switches
    per day).  The bimodal shape — many flappy pairs plus a long slow tail —
    is what yields the paper's gentle day→week→month gradient with a large
    jump at the year scale.
    """

    seed: int = 0
    stable_fraction: float = 0.33
    rate_mixture: Tuple[Tuple[float, float, float], ...] = DEFAULT_RATE_MIXTURE
    num_salts: int = 4
    max_link_failure_alternatives: int = 2
    horizon: int = 365 * DAY

    def __post_init__(self) -> None:
        if not (0.0 <= self.stable_fraction <= 1.0):
            raise ValueError("stable_fraction must be in [0, 1]")
        if not self.rate_mixture:
            raise ValueError("rate_mixture must have at least one bucket")
        for probability, low, high in self.rate_mixture:
            if probability < 0:
                raise ValueError("bucket probability must be non-negative")
            if low <= 0 or high < low:
                raise ValueError("need 0 < min_rate <= max_rate per bucket")
        total = self.stable_fraction + sum(p for p, _, _ in self.rate_mixture)
        if total > 1.0 + 1e-9:
            raise ValueError(
                f"stable_fraction + mixture probabilities exceed 1: {total}"
            )
        if self.num_salts < 1:
            raise ValueError("num_salts must be >= 1")
        if self.horizon <= 0:
            raise ValueError("horizon must be positive")


@dataclass
class PairSchedule:
    """The resolved churn behaviour of one (src, dst) pair.

    ``alternatives`` are the distinct AS paths the pair toggles among
    (index 0 is the canonical path); ``switch_times`` are the instants a
    switch happens; ``choices[i]`` is the alternative index active after
    ``switch_times[i]``.
    """

    src: int
    dst: int
    alternatives: List[ASPath]
    switch_times: List[int]
    choices: List[int]

    def index_at(self, timestamp: int) -> int:
        """Alternative index active at ``timestamp``."""
        position = bisect.bisect_right(self.switch_times, timestamp)
        if position == 0:
            return 0
        return self.choices[position - 1]

    def path_at(self, timestamp: int) -> ASPath:
        """The AS path active at ``timestamp``."""
        return self.alternatives[self.index_at(timestamp)]

    def distinct_paths_in(self, start: int, end: int) -> List[ASPath]:
        """Distinct paths active at any point of ``[start, end)``."""
        seen: Dict[ASPath, None] = {self.path_at(start): None}
        left = bisect.bisect_right(self.switch_times, start)
        right = bisect.bisect_left(self.switch_times, end)
        for position in range(left, right):
            seen.setdefault(self.alternatives[self.choices[position]], None)
        return list(seen)


class PathOracle:
    """Answers "what was the AS path from src to dst at time t?".

    Schedules are built lazily per pair and cached; everything is
    deterministic in the configured seed, so any component (platform,
    analysis, tests) sees the same history.
    """

    def __init__(self, graph: ASGraph, config: ChurnConfig) -> None:
        self.graph = graph
        self.config = config
        self.routes = RouteComputer(graph)
        self.timer: Optional[StageTimer] = None
        self._schedules: Dict[Tuple[int, int], PairSchedule] = {}
        # Per-destination table families.  One destination serves every
        # source probing toward it, so the salted tables and the
        # failed-link tables are pinned here for the oracle's lifetime —
        # (src, dst) pairs sharing a destination never recompute them,
        # independent of the RouteComputer's LRU capacity.
        self._salted_tables: Dict[int, Tuple[RoutingTable, ...]] = {}
        self._failed_tables: Dict[Tuple[int, Tuple[int, int]], RoutingTable] = {}

    # -- alternatives ---------------------------------------------------

    def _salted_for(self, dst: int) -> Tuple[RoutingTable, ...]:
        """The per-salt routing tables toward ``dst`` (cached per dest)."""
        tables = self._salted_tables.get(dst)
        if tables is None:
            tables = tuple(
                self.routes.routing_table(dst, salt=salt)
                for salt in range(self.config.num_salts)
            )
            self._salted_tables[dst] = tables
        return tables

    def _failed_for(self, dst: int, hop: Tuple[int, int]) -> RoutingTable:
        """The table toward ``dst`` with one link failed (cached per dest)."""
        key = (dst, hop if hop[0] < hop[1] else (hop[1], hop[0]))
        table = self._failed_tables.get(key)
        if table is None:
            table = self.routes.routing_table(dst, salt=0, down_links=[hop])
            self._failed_tables[key] = table
        return table

    def alternatives_for(self, src: int, dst: int) -> List[ASPath]:
        """Distinct valley-free paths for the pair, canonical first."""
        paths: List[ASPath] = []
        seen: set = set()
        for table in self._salted_for(dst):
            path = table.path_from(src)
            if path is not None and path not in seen:
                seen.add(path)
                paths.append(path)
        if paths:
            canonical = paths[0]
            # Failing one canonical-path link at a time surfaces detour
            # paths that salts alone cannot reach.
            budget = self.config.max_link_failure_alternatives
            for hop in zip(canonical, canonical[1:]):
                if budget <= 0:
                    break
                path = self._failed_for(dst, hop).path_from(src)
                if path is not None and path not in seen:
                    seen.add(path)
                    paths.append(path)
                    budget -= 1
        return paths

    # -- schedules --------------------------------------------------------

    def schedule_for(self, src: int, dst: int) -> PairSchedule:
        """The (cached) churn schedule of a pair."""
        key = (src, dst)
        schedule = self._schedules.get(key)
        if schedule is None:
            with maybe_stage(self.timer, "routing.schedules"):
                schedule = self._build_schedule(src, dst)
            self._schedules[key] = schedule
        return schedule

    def _build_schedule(self, src: int, dst: int) -> PairSchedule:
        config = self.config
        alternatives = self.alternatives_for(src, dst)
        rng = DeterministicRNG(config.seed, "churn", src, dst)
        rate_per_day = self._draw_rate(rng)
        if len(alternatives) <= 1 or rate_per_day is None:
            return PairSchedule(src, dst, alternatives or [()], [], [])
        mean_gap = DAY / rate_per_day
        switch_times: List[int] = []
        choices: List[int] = []
        current = 0
        # Flappy pairs draw hundreds of switches per horizon; inline the
        # expovariate arithmetic (bit-identical to rng.expovariate) and use
        # the core randrange primitive directly.
        lambd = 1.0 / mean_gap
        uniform = rng.random
        randbelow = rng._randbelow
        num_others = len(alternatives) - 1
        horizon = config.horizon
        clock = -math.log(1.0 - uniform()) / lambd
        while clock < horizon:
            nxt = randbelow(num_others)
            if nxt >= current:
                nxt += 1  # uniform over alternatives other than current
            switch_times.append(int(clock))
            choices.append(nxt)
            current = nxt
            clock += -math.log(1.0 - uniform()) / lambd
        return PairSchedule(src, dst, alternatives, switch_times, choices)

    def _draw_rate(self, rng: DeterministicRNG) -> Optional[float]:
        """Draw a per-pair switch rate from the mixture; None = stable."""
        roll = rng.random()
        if roll < self.config.stable_fraction:
            return None
        cumulative = self.config.stable_fraction
        for probability, low, high in self.config.rate_mixture:
            cumulative += probability
            if roll < cumulative:
                return math.exp(rng.uniform(math.log(low), math.log(high)))
        return None  # residual probability mass counts as stable

    # -- the oracle interface ---------------------------------------------

    def aspath_at(self, src: int, dst: int, timestamp: int) -> Optional[ASPath]:
        """The AS path from ``src`` to ``dst`` at ``timestamp``.

        Returns None when the pair is unreachable (no policy path).
        """
        if src == dst:
            return (src,)
        schedule = self.schedule_for(src, dst)
        path = schedule.path_at(timestamp)
        return path if path else None

    def previous_path(
        self, src: int, dst: int, timestamp: int
    ) -> Optional[ASPath]:
        """The path active just before the last switch preceding ``timestamp``.

        Used to model traceroutes racing a route change (one of the three
        traceroutes still seeing the old path).  None when no switch
        happened yet.
        """
        schedule = self.schedule_for(src, dst)
        position = bisect.bisect_right(schedule.switch_times, timestamp)
        if position == 0:
            return None
        if position == 1:
            previous_index = 0
        else:
            previous_index = schedule.choices[position - 2]
        path = schedule.alternatives[previous_index]
        return path if path else None


__all__ = ["ChurnConfig", "PairSchedule", "PathOracle"]
