"""Localizing ASes that block access to Tor bridges (future work #2).

Bridges are unlisted relay endpoints; censors that have learned a bridge's
address drop TCP SYNs toward it for clients in their jurisdiction (or for
everyone, if unscoped).  A reachability probe either completes a handshake
(clean) or times out (anomalous) — a boolean end-to-end measurement over
the AS path, which is precisely the tomography input shape.

Censor knowledge is modelled per (censor, bridge): each bridge-blocking
censor *discovers* each bridge at a deterministic pseudo-random time and
blocks it from then on — reproducing the "censors' delay in blocking
circumvention proxies" dynamic the paper cites (Field & Tsai, FOCI 2016).
Discovery-time variation also creates the time-window policy changes the
splitting machinery exists to absorb.

Bridge-blocking is attached to censors that deploy any TCP-level
technique; the deployment's ground truth remains authoritative for
validation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.anomaly import Anomaly
from repro.censorship.censor import CensorMiddlebox
from repro.core.observations import Observation
from repro.core.problem import SolutionStatus, TomographyProblem
from repro.core.splitting import split_observations
from repro.scenario.world import World
from repro.util.rng import DeterministicRNG, derive_seed
from repro.util.timeutil import DAY, Granularity


@dataclass(frozen=True)
class BridgeCampaignConfig:
    """Parameters of the bridge reachability campaign."""

    seed: int = 0
    start: int = 0
    end: int = 14 * DAY
    num_bridges: int = 6
    probes_per_pair_per_day: int = 1
    blocker_fraction: float = 0.7     # TCP-capable censors that also hunt bridges
    mean_discovery_days: float = 4.0  # censor's delay in learning a bridge

    def __post_init__(self) -> None:
        if self.end <= self.start:
            raise ValueError("empty campaign window")
        if self.num_bridges < 1:
            raise ValueError("need at least one bridge")
        if not (0.0 <= self.blocker_fraction <= 1.0):
            raise ValueError("blocker_fraction must be in [0, 1]")


@dataclass(frozen=True)
class BridgeProbe:
    """One bridge reachability test."""

    timestamp: int
    vantage_asn: int
    bridge_id: int
    bridge_asn: int
    as_path: Tuple[int, ...]
    reachable: bool
    blocked_by: Tuple[int, ...] = ()  # ground truth


class _BridgeBlocking:
    """Per-censor bridge knowledge: discovery times per bridge."""

    def __init__(self, config: BridgeCampaignConfig, world: World) -> None:
        self._discovery: Dict[Tuple[int, int], Optional[int]] = {}
        self._config = config
        self._world = world

    def _censor_blocks_bridges(self, censor: CensorMiddlebox) -> bool:
        rng = DeterministicRNG(
            derive_seed(self._config.seed, "bridge-blocker", censor.asn)
        )
        has_tcp = any(t.is_tcp for t in censor.techniques)
        return has_tcp and rng.chance(self._config.blocker_fraction)

    def discovery_time(self, censor_asn: int, bridge_id: int) -> Optional[int]:
        """When the censor learned this bridge; None = never."""
        key = (censor_asn, bridge_id)
        if key not in self._discovery:
            censor = self._world.deployment.censor_of(censor_asn)
            if censor is None or not self._censor_blocks_bridges(censor):
                self._discovery[key] = None
            else:
                rng = DeterministicRNG(
                    self._config.seed, "bridge-discovery", censor_asn, bridge_id
                )
                delay = rng.expovariate(
                    1.0 / (self._config.mean_discovery_days * DAY)
                )
                self._discovery[key] = self._config.start + int(delay)
        return self._discovery[key]

    def blocks(
        self, censor_asn: int, bridge_id: int, client_asn: int, timestamp: int
    ) -> bool:
        """Whether the censor drops SYNs to this bridge for this client now."""
        censor = self._world.deployment.censor_of(censor_asn)
        if censor is None:
            return False
        if censor.scoped and self._world.country_by_asn.get(
            client_asn
        ) != censor.country_code:
            return False
        discovered = self.discovery_time(censor_asn, bridge_id)
        return discovered is not None and timestamp >= discovered

    def true_blockers(self) -> Set[int]:
        """Ground truth: every censor that hunts bridges at all."""
        return {
            censor.asn
            for censor in self._world.deployment.censors_by_asn.values()
            if self._censor_blocks_bridges(censor)
        }


def run_bridge_campaign(
    world: World, config: BridgeCampaignConfig
) -> Tuple[List[BridgeProbe], Set[int]]:
    """Probe every (vantage, bridge) pair daily; returns (probes, truth).

    Bridges are placed in hosting-hub content ASes (where real bridges
    run); the returned truth set holds every bridge-hunting censor ASN.
    """
    rng = DeterministicRNG(config.seed, "bridge-campaign")
    blocking = _BridgeBlocking(config, world)
    hosts = world.test_list.dest_asns
    bridges = [
        (bridge_id, hosts[bridge_id % len(hosts)])
        for bridge_id in range(config.num_bridges)
    ]
    probes: List[BridgeProbe] = []
    for vantage in world.vantage_points:
        for bridge_id, bridge_asn in bridges:
            for day_start in range(config.start, config.end, DAY):
                for _ in range(config.probes_per_pair_per_day):
                    timestamp = day_start + rng.randrange(DAY)
                    if timestamp >= config.end:
                        continue
                    as_path = world.oracle.aspath_at(
                        vantage.asn, bridge_asn, timestamp
                    )
                    if as_path is None:
                        continue
                    blockers = tuple(
                        asn
                        for asn in as_path
                        if blocking.blocks(asn, bridge_id, vantage.asn, timestamp)
                    )
                    probes.append(
                        BridgeProbe(
                            timestamp=timestamp,
                            vantage_asn=vantage.asn,
                            bridge_id=bridge_id,
                            bridge_asn=bridge_asn,
                            as_path=tuple(as_path),
                            reachable=not blockers,
                            blocked_by=blockers,
                        )
                    )
    return probes, blocking.true_blockers()


def bridge_observations(probes: Sequence[BridgeProbe]) -> List[Observation]:
    """Reachability probes as boolean tomography observations."""
    return [
        Observation(
            url=f"bridge://{probe.bridge_id}/",
            anomaly=Anomaly.BRIDGE,
            detected=not probe.reachable,
            as_path=probe.as_path,
            timestamp=probe.timestamp,
            measurement_id=index,
        )
        for index, probe in enumerate(probes)
    ]


@dataclass
class BridgeLocalization:
    """Output of :func:`localize_bridge_blockers`."""

    identified: List[int] = field(default_factory=list)
    potential: List[int] = field(default_factory=list)
    true_blockers: Set[int] = field(default_factory=set)
    problems_solved: int = 0
    unsat_problems: int = 0

    @property
    def precision(self) -> float:
        """Fraction of identified blockers that truly hunt bridges."""
        if not self.identified:
            return 0.0
        true = [asn for asn in self.identified if asn in self.true_blockers]
        return len(true) / len(self.identified)


def localize_bridge_blockers(
    world: World,
    config: BridgeCampaignConfig = BridgeCampaignConfig(),
    granularities: Sequence[Granularity] = (Granularity.DAY, Granularity.WEEK),
) -> BridgeLocalization:
    """End-to-end: probes → observations → SAT problems → bridge blockers."""
    probes, true_blockers = run_bridge_campaign(world, config)
    observations = bridge_observations(probes)
    groups = split_observations(observations, granularities=granularities)
    result = BridgeLocalization(true_blockers=true_blockers)
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
    "BridgeCampaignConfig",
    "BridgeProbe",
    "run_bridge_campaign",
    "bridge_observations",
    "localize_bridge_blockers",
    "BridgeLocalization",
]
