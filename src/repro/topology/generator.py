"""Synthetic tiered AS topology generation.

The generator builds a three-level hierarchy that mirrors the coarse
structure of the measured Internet:

- a small clique-like core of **tier-1** backbones placed in high-weight
  countries, joined by settlement-free peer links;
- per-country **transit** providers that buy transit from tier-1s (with a
  regional bias) and peer regionally; later transit ASes in a country may
  also buy from earlier ones, creating national hierarchies;
- **edge** ASes — access (eyeball), content (hosting/VPN egress), and
  enterprise stubs — that buy transit from their country's (or region's)
  transit providers; content ASes multihome more aggressively and may buy
  transit abroad, which is one source of cross-country paths that the
  leakage analysis needs.

All randomness is drawn from a :class:`~repro.util.rng.DeterministicRNG`
seeded from the scenario seed, so a config generates one exact topology.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.topology.asn import ASRegistry, ASType, AutonomousSystem
from repro.topology.countries import COUNTRIES, Country, Region, country_by_code
from repro.topology.graph import ASGraph, peer_link, transit_link
from repro.util.rng import DeterministicRNG


@dataclass(frozen=True)
class TopologyConfig:
    """Parameters controlling synthetic topology generation.

    Densities are ASes per unit of country ``weight``; a country with weight
    2.0 and ``edge_density=3.0`` receives about six edge ASes.
    """

    seed: int = 0
    country_codes: Optional[Tuple[str, ...]] = None  # None = all countries
    num_tier1: int = 8
    transit_density: float = 1.0
    edge_density: float = 3.0
    content_fraction: float = 0.25
    enterprise_fraction: float = 0.15
    tier1_peering_probability: float = 0.85
    regional_peering_probability: float = 0.25
    national_hierarchy_probability: float = 0.35
    content_foreign_transit_probability: float = 0.3
    min_transit_providers: int = 1
    max_transit_providers: int = 3
    min_edge_providers: int = 1
    max_edge_providers: int = 2
    first_asn: int = 100

    def countries(self) -> List[Country]:
        """The country set for this configuration."""
        if self.country_codes is None:
            return list(COUNTRIES)
        return [country_by_code(code) for code in self.country_codes]

    def __post_init__(self) -> None:
        if self.num_tier1 < 2:
            raise ValueError("need at least two tier-1 ASes")
        if not (0.0 <= self.content_fraction <= 1.0):
            raise ValueError("content_fraction must be in [0, 1]")
        if not (0.0 <= self.enterprise_fraction <= 1.0):
            raise ValueError("enterprise_fraction must be in [0, 1]")
        if self.content_fraction + self.enterprise_fraction > 1.0:
            raise ValueError("content + enterprise fractions exceed 1")
        if self.max_transit_providers < self.min_transit_providers:
            raise ValueError("max_transit_providers < min_transit_providers")
        if self.max_edge_providers < self.min_edge_providers:
            raise ValueError("max_edge_providers < min_edge_providers")


class _Builder:
    """Stateful helper carrying the partially built topology."""

    def __init__(self, config: TopologyConfig) -> None:
        self.config = config
        self.rng = DeterministicRNG(config.seed, "topology")
        self.registry = ASRegistry()
        self.links: List = []
        self._link_keys: set = set()
        self._next_asn = config.first_asn
        self.tier1: List[AutonomousSystem] = []
        self.transit_by_country: Dict[str, List[AutonomousSystem]] = {}
        self.transit_by_region: Dict[Region, List[AutonomousSystem]] = {}

    def add_link(self, link) -> None:
        key = link.key()
        if key in self._link_keys:
            return
        self._link_keys.add(key)
        self.links.append(link)

    def has_link(self, a: int, b: int) -> bool:
        return ((a, b) if a < b else (b, a)) in self._link_keys

    def new_as(self, name: str, country: Country, as_type: ASType) -> AutonomousSystem:
        as_obj = AutonomousSystem(self._next_asn, name, country, as_type)
        # Leave gaps between ASNs so they look like allocations, and so that
        # tests catch any code assuming contiguous numbering.
        self._next_asn += self.rng.randint(1, 37)
        self.registry.add(as_obj)
        return as_obj

    # -- tier 1 ---------------------------------------------------------

    def build_tier1(self) -> None:
        countries = sorted(
            self.config.countries(), key=lambda c: c.weight, reverse=True
        )
        for i in range(self.config.num_tier1):
            country = countries[i % len(countries)]
            as_obj = self.new_as(f"BACKBONE-{country.code}-{i}", country, ASType.TIER1)
            self.tier1.append(as_obj)
        # Peer mesh; then a ring of any missing links guarantees connectivity.
        for i, a in enumerate(self.tier1):
            for b in self.tier1[i + 1 :]:
                if self.rng.chance(self.config.tier1_peering_probability):
                    self.add_link(peer_link(a.asn, b.asn))
        for i, a in enumerate(self.tier1):
            b = self.tier1[(i + 1) % len(self.tier1)]
            if a.asn != b.asn and not self.has_link(a.asn, b.asn):
                self.add_link(peer_link(a.asn, b.asn))

    # -- transit --------------------------------------------------------

    def build_transit(self) -> None:
        for country in self.config.countries():
            count = max(1, round(country.weight * self.config.transit_density))
            nationals: List[AutonomousSystem] = []
            for i in range(count):
                as_obj = self.new_as(
                    f"TRANSIT-{country.code}-{i}", country, ASType.TRANSIT
                )
                self._attach_transit(as_obj, nationals)
                nationals.append(as_obj)
            self.transit_by_country[country.code] = nationals
            self.transit_by_region.setdefault(country.region, []).extend(nationals)
        self._add_regional_peering()

    def _attach_transit(
        self, as_obj: AutonomousSystem, nationals: List[AutonomousSystem]
    ) -> None:
        config = self.config
        # Later national transit may buy from an earlier one instead of (or
        # in addition to) a tier-1; ordering keeps the hierarchy acyclic.
        providers: List[int] = []
        if nationals and self.rng.chance(config.national_hierarchy_probability):
            providers.append(self.rng.pick(nationals).asn)
        want = self.rng.randint(config.min_transit_providers, config.max_transit_providers)
        same_region = [t for t in self.tier1 if t.country.region == as_obj.country.region]
        pool = same_region * 2 + self.tier1  # regional bias
        distinct = {t.asn for t in self.tier1 if t.asn != as_obj.asn}
        want = min(want, len(providers) + len(distinct))
        attempts = 0
        while len(providers) < want and attempts < 200:
            attempts += 1
            candidate = self.rng.pick(pool).asn
            if candidate not in providers and candidate != as_obj.asn:
                providers.append(candidate)
        for provider in providers:
            self.add_link(transit_link(as_obj.asn, provider))

    def _add_regional_peering(self) -> None:
        for region_transit in self.transit_by_region.values():
            for i, a in enumerate(region_transit):
                for b in region_transit[i + 1 :]:
                    if a.country.code == b.country.code:
                        continue
                    if self.has_link(a.asn, b.asn):
                        continue
                    if self.rng.chance(self.config.regional_peering_probability):
                        self.add_link(peer_link(a.asn, b.asn))

    # -- edge -----------------------------------------------------------

    def build_edge(self) -> None:
        for country in self.config.countries():
            count = max(1, round(country.weight * self.config.edge_density))
            for i in range(count):
                roll = self.rng.random()
                if roll < self.config.content_fraction:
                    as_type, label = ASType.CONTENT, "CDN"
                elif roll < self.config.content_fraction + self.config.enterprise_fraction:
                    as_type, label = ASType.ENTERPRISE, "CORP"
                else:
                    as_type, label = ASType.ACCESS, "ISP"
                as_obj = self.new_as(
                    f"{label}-{country.code}-{i}", country, as_type
                )
                self._attach_edge(as_obj)

    def _attach_edge(self, as_obj: AutonomousSystem) -> None:
        config = self.config
        national = self.transit_by_country.get(as_obj.country.code, [])
        regional = self.transit_by_region.get(as_obj.country.region, [])
        pool = national * 3 + regional  # strong national bias
        if not pool:
            pool = self.tier1
        want = self.rng.randint(config.min_edge_providers, config.max_edge_providers)
        if as_obj.as_type is ASType.CONTENT:
            want = max(want, 2)  # content multihomes
        providers: List[int] = []
        attempts = 0
        while len(providers) < want and attempts < 50:
            attempts += 1
            if (
                as_obj.as_type is ASType.CONTENT
                and self.rng.chance(config.content_foreign_transit_probability)
                and regional
            ):
                candidate = self.rng.pick(regional).asn
            else:
                candidate = self.rng.pick(pool).asn
            if candidate not in providers and candidate != as_obj.asn:
                providers.append(candidate)
        if not providers:  # tiny configs: fall back to any tier-1
            providers = [self.rng.pick(self.tier1).asn]
        for provider in providers:
            self.add_link(transit_link(as_obj.asn, provider))


def generate_topology(config: TopologyConfig) -> ASGraph:
    """Generate the synthetic AS graph described by ``config``.

    The returned graph is connected and its customer-provider hierarchy is
    acyclic (both properties are asserted, since all downstream routing
    correctness depends on them).
    """
    builder = _Builder(config)
    builder.build_tier1()
    builder.build_transit()
    builder.build_edge()
    graph = ASGraph(builder.registry, builder.links)
    issues = graph.validate()
    if issues:
        raise RuntimeError(f"generated topology is invalid: {issues}")
    return graph


__all__ = ["TopologyConfig", "generate_topology"]
