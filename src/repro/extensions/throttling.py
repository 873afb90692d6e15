"""Throttling localization from M-Lab-style throughput measurements.

The M-Lab analog: vantage points run NDT-like throughput tests against
measurement servers hosted in content ASes.  Each (vantage, server) pair
has a stable baseline throughput (bottleneck capacity plus mild noise);
on-path censors deploying :attr:`Technique.THROTTLE` against circumvention
protocols multiply achievable throughput by their throttle factor.

Detection is *relative*: a test is anomalous when measured throughput
falls below ``throttle_detection_ratio`` times the pair's historical
maximum — mirroring how throttling is inferred from longitudinal M-Lab
data rather than absolute numbers.

Localization then reuses the paper's machinery unchanged: anomalous tests
become positive clauses over the AS path, clean tests negative units, one
problem per (server, window), solved by the same SAT pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from repro.anomaly import Anomaly
from repro.censorship.censor import Technique
from repro.core.observations import Observation
from repro.core.problem import SolutionStatus, TomographyProblem
from repro.core.splitting import split_observations
from repro.scenario.world import World
from repro.util.rng import DeterministicRNG
from repro.util.timeutil import DAY, Granularity

_CIRCUMVENTION_PSEUDO_DOMAIN = "circumvention-protocol.test"


@dataclass(frozen=True)
class ThrottlingCampaignConfig:
    """Parameters of the throughput measurement campaign."""

    seed: int = 0
    start: int = 0
    end: int = 14 * DAY
    tests_per_pair_per_day: int = 2
    num_servers: int = 4
    baseline_mbps_range: Tuple[float, float] = (40.0, 200.0)
    noise_stddev_fraction: float = 0.05
    throttle_detection_ratio: float = 0.5

    def __post_init__(self) -> None:
        if self.end <= self.start:
            raise ValueError("empty campaign window")
        if self.tests_per_pair_per_day < 1:
            raise ValueError("tests_per_pair_per_day must be >= 1")
        if not (0.0 < self.throttle_detection_ratio < 1.0):
            raise ValueError("throttle_detection_ratio must be in (0, 1)")


@dataclass(frozen=True)
class ThroughputMeasurement:
    """One NDT-style throughput test."""

    timestamp: int
    vantage_asn: int
    server_asn: int
    as_path: Tuple[int, ...]
    throughput_mbps: float
    baseline_mbps: float
    throttled_by: Tuple[int, ...] = ()  # ground truth, never read by inference

    @property
    def ratio(self) -> float:
        """Measured throughput relative to the pair baseline."""
        return self.throughput_mbps / self.baseline_mbps if self.baseline_mbps else 0.0


def deploy_throttlers(
    world: World, fraction: float = 0.5, seed: int = 0
) -> List[int]:
    """Grant the THROTTLE technique to a subset of unscoped censors.

    The base deployment reproduces the paper's five measured techniques;
    throttling is the future-work addition, so it is layered on here:
    each unscoped (transit) censor becomes a throttler with ``fraction``
    probability, deterministically in ``seed``.  Returns the throttler
    ASNs — the ground truth for validating the localization.
    """
    throttlers: List[int] = []
    for censor in world.deployment.censors_by_asn.values():
        if censor.scoped:
            continue  # edge ACL boxes do not shape transit bandwidth
        rng = DeterministicRNG(seed, "throttler", censor.asn)
        if rng.chance(fraction):
            if Technique.THROTTLE not in censor.techniques:
                censor.techniques = censor.techniques + (Technique.THROTTLE,)
            throttlers.append(censor.asn)
    return sorted(throttlers)


def _throttlers_on_path(
    world: World, as_path: Sequence[int], timestamp: int, client_asn: int
) -> List[Tuple[int, float]]:
    """(ASN, factor) for censors throttling circumvention traffic here.

    Throttling keys on the *protocol*, not on URL categories, so the only
    policy dimension that applies is jurisdiction scope.
    """
    out: List[Tuple[int, float]] = []
    for asn in as_path:
        censor = world.deployment.censor_of(asn)
        if censor is None or Technique.THROTTLE not in censor.techniques:
            continue
        if censor.scoped and world.country_by_asn.get(client_asn) != censor.country_code:
            continue
        out.append((asn, 0.25))
    return out


def run_throttling_campaign(
    world: World, config: ThrottlingCampaignConfig
) -> List[ThroughputMeasurement]:
    """Simulate the M-Lab-analog campaign over ``world``.

    Requires the circumvention pseudo-domain to be registered so censor
    policies can match it; this function registers it idempotently under
    :class:`~repro.urls.categories.Category.CIRCUMVENTION`.
    """
    from repro.urls.categories import Category

    world.test_list.categories.register(
        _CIRCUMVENTION_PSEUDO_DOMAIN, Category.CIRCUMVENTION
    )
    rng = DeterministicRNG(config.seed, "throttling-campaign")
    servers = world.test_list.dest_asns[: config.num_servers]
    measurements: List[ThroughputMeasurement] = []
    for vantage in world.vantage_points:
        for server in servers:
            low, high = config.baseline_mbps_range
            baseline = rng.uniform(low, high)
            for day_start in range(config.start, config.end, DAY):
                for _ in range(config.tests_per_pair_per_day):
                    timestamp = day_start + rng.randrange(DAY)
                    if timestamp >= config.end:
                        continue
                    as_path = world.oracle.aspath_at(vantage.asn, server, timestamp)
                    if as_path is None:
                        continue
                    throttlers = _throttlers_on_path(
                        world, as_path, timestamp, vantage.asn
                    )
                    factor = min((f for _, f in throttlers), default=1.0)
                    noise = rng.gauss(1.0, config.noise_stddev_fraction)
                    throughput = max(0.1, baseline * factor * noise)
                    measurements.append(
                        ThroughputMeasurement(
                            timestamp=timestamp,
                            vantage_asn=vantage.asn,
                            server_asn=server,
                            as_path=tuple(as_path),
                            throughput_mbps=throughput,
                            baseline_mbps=baseline,
                            throttled_by=tuple(asn for asn, _ in throttlers),
                        )
                    )
    return measurements


def throughput_observations(
    measurements: Sequence[ThroughputMeasurement],
    detection_ratio: float = 0.5,
    use_historical_baseline: bool = True,
) -> List[Observation]:
    """Turn throughput tests into boolean tomography observations.

    A test is anomalous when its throughput falls below ``detection_ratio``
    of the pair's reference throughput.  With
    ``use_historical_baseline=True`` (default) the reference is the pair's
    long-term baseline — M-Lab holds years of pre-throttling history, so
    this is the realistic mode and it also detects pairs that were
    throttled for the whole campaign.  With ``False`` the reference is the
    campaign-local maximum, which is blind to always-throttled pairs (they
    then produce misleading *clean* clauses that exonerate the throttler —
    a genuine failure mode of short longitudinal windows, kept for the
    ablation in the tests).
    """
    best: Dict[Tuple[int, int], float] = {}
    for measurement in measurements:
        key = (measurement.vantage_asn, measurement.server_asn)
        best[key] = max(best.get(key, 0.0), measurement.throughput_mbps)
    observations: List[Observation] = []
    for index, measurement in enumerate(measurements):
        key = (measurement.vantage_asn, measurement.server_asn)
        reference = (
            measurement.baseline_mbps
            if use_historical_baseline
            else best[key]
        )
        throttled = measurement.throughput_mbps < detection_ratio * reference
        observations.append(
            Observation(
                url=f"ndt://AS{measurement.server_asn}/",
                anomaly=Anomaly.THROTTLE,
                detected=throttled,
                as_path=measurement.as_path,
                timestamp=measurement.timestamp,
                measurement_id=index,
            )
        )
    return observations


@dataclass
class ThrottlingLocalization:
    """Output of :func:`localize_throttlers`."""

    identified: List[int] = field(default_factory=list)
    potential: List[int] = field(default_factory=list)
    true_throttlers: List[int] = field(default_factory=list)
    problems_solved: int = 0
    unsat_problems: int = 0

    @property
    def precision(self) -> float:
        """Fraction of identified throttlers that truly throttle."""
        if not self.identified:
            return 0.0
        true = [asn for asn in self.identified if asn in self.true_throttlers]
        return len(true) / len(self.identified)


def localize_throttlers(
    world: World,
    config: ThrottlingCampaignConfig = ThrottlingCampaignConfig(),
    granularities: Sequence[Granularity] = (Granularity.DAY, Granularity.WEEK),
) -> ThrottlingLocalization:
    """End-to-end: campaign → observations → SAT problems → throttlers."""
    true_throttlers = deploy_throttlers(world, seed=config.seed)
    measurements = run_throttling_campaign(world, config)
    observations = throughput_observations(
        measurements, detection_ratio=config.throttle_detection_ratio
    )
    groups = split_observations(observations, granularities=granularities)
    result = ThrottlingLocalization(true_throttlers=true_throttlers)
    identified: set = set()
    potential: set = set()
    for key, group in groups.items():
        if not any(o.detected for o in group):
            continue
        solution = TomographyProblem(key, group).solve()
        result.problems_solved += 1
        if solution.status is SolutionStatus.UNSATISFIABLE:
            result.unsat_problems += 1
            continue
        identified |= solution.censors
        potential |= solution.potential_censors
    result.identified = sorted(identified)
    result.potential = sorted(potential - identified)
    return result


__all__ = [
    "ThrottlingCampaignConfig",
    "deploy_throttlers",
    "ThroughputMeasurement",
    "run_throttling_campaign",
    "throughput_observations",
    "localize_throttlers",
    "ThrottlingLocalization",
]
