"""The single configuration object describing a synthetic world."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.iclab.platform import PlatformConfig
from repro.routing.churn import ChurnConfig
from repro.topology.generator import TopologyConfig
from repro.util.timeutil import DAY, WEEK


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything needed to build a :class:`~repro.scenario.world.World`.

    Sub-configs inherit ``seed`` and the campaign window unless explicitly
    provided, so a scenario is reproducible from this one object.
    """

    seed: int = 0
    duration: int = 30 * DAY
    num_urls: int = 20
    num_vantage_points: int = 25
    censoring_countries: Tuple[str, ...] = ("CN", "IR", "PK", "TR", "RU")
    all_technique_countries: Tuple[str, ...] = ("CN",)
    tests_per_url_per_day: float = 4.0
    topology: Optional[TopologyConfig] = None
    churn: Optional[ChurnConfig] = None
    platform: Optional[PlatformConfig] = None
    ip2as_epoch_length: int = 4 * WEEK
    ip2as_missing_fraction: float = 0.01
    ip2as_misattributed_fraction: float = 0.005
    censor_fire_probability: float = 0.995

    def __post_init__(self) -> None:
        if self.duration <= 0:
            raise ValueError("duration must be positive")
        if self.num_urls < 1 or self.num_vantage_points < 1:
            raise ValueError("need at least one URL and one vantage point")

    # -- resolved sub-configs -----------------------------------------------

    def topology_config(self) -> TopologyConfig:
        """The topology config, defaulted from the scenario seed."""
        if self.topology is not None:
            return self.topology
        return TopologyConfig(seed=self.seed)

    def churn_config(self) -> ChurnConfig:
        """The churn config, defaulted from seed and duration."""
        if self.churn is not None:
            return self.churn
        return ChurnConfig(seed=self.seed, horizon=self.duration)

    def platform_config(self) -> PlatformConfig:
        """The platform config, defaulted from seed/duration/test rate."""
        if self.platform is not None:
            return self.platform
        return PlatformConfig(
            seed=self.seed,
            start=0,
            end=self.duration,
            tests_per_url_per_day=self.tests_per_url_per_day,
        )


__all__ = ["ScenarioConfig"]
