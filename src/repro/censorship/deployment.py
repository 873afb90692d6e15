"""Placing censors in a topology, with queryable ground truth.

The deployment decides *which* ASes censor, *what* they censor, and *how* —
the hidden state the tomography pipeline must recover.  Benchmarks and
tests validate inferred censors against the
:class:`CensorDeployment` returned here.

Placement follows the paper's empirical picture:

- censoring countries host between one and a handful of censoring ASes
  (Table 2 tops out at six per country);
- censors sit mostly in transit ASes (national backbones running DPI) with
  some access-network censors; transit placement is what makes leakage
  possible at all;
- a subset of countries ("all-technique" profiles, the China/Cyprus analogs
  of Table 2) deploy every technique and broad category policies, while
  others are narrow (the paper's ad-vendor-only censors in Ireland/Spain/UK).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.anomaly import Anomaly
from repro.censorship.blockpage import BLOCKPAGE_TEMPLATES
from repro.censorship.censor import CensorMiddlebox, Technique
from repro.censorship.policy import random_policy
from repro.topology.asn import ASType
from repro.topology.graph import ASGraph
from repro.urls.categories import Category, CategoryDatabase
from repro.util.rng import DeterministicRNG

_TCP_TECHNIQUES = (
    Technique.RST_INJECT,
    Technique.SEQ_TAMPER,
    Technique.BLOCKPAGE_INJECT,
    Technique.BLOCKPAGE_PROXY,
)
ALL_TECHNIQUES = (Technique.DNS_INJECT,) + _TCP_TECHNIQUES


@dataclass(frozen=True)
class CountryCensorshipProfile:
    """How a censoring country behaves."""

    country_code: str
    num_censors: int = 2
    techniques: Tuple[Technique, ...] = ALL_TECHNIQUES
    max_techniques_per_censor: int = 2
    blocked_categories: Tuple[Category, ...] = (
        Category.SHOPPING,
        Category.CLASSIFIEDS,
    )
    scoped_fraction: float = 0.5
    policy_change_rate_per_year: float = 2.0
    domain_coverage: float = 0.6  # fraction of a blocked category's domains
    all_technique_censors: bool = False  # China/Cyprus analogs

    def __post_init__(self) -> None:
        if self.num_censors < 1:
            raise ValueError("num_censors must be >= 1")
        if not self.techniques:
            raise ValueError("profile needs at least one technique")
        if not self.blocked_categories:
            raise ValueError("profile needs at least one blocked category")


@dataclass(frozen=True)
class DeploymentConfig:
    """Which countries censor, and the simulation horizon."""

    profiles: Tuple[CountryCensorshipProfile, ...]
    start: int
    end: int
    seed: int = 0
    fire_probability: float = 0.995

    def __post_init__(self) -> None:
        if self.end <= self.start:
            raise ValueError("empty deployment horizon")
        codes = [p.country_code for p in self.profiles]
        if len(codes) != len(set(codes)):
            raise ValueError("duplicate country profiles")


@dataclass
class CensorDeployment:
    """The ground truth: every censor middlebox, indexed by ASN."""

    censors_by_asn: Dict[int, CensorMiddlebox] = field(default_factory=dict)

    def is_censor(self, asn: int) -> bool:
        """Whether ``asn`` hosts a censor."""
        return asn in self.censors_by_asn

    def censor_of(self, asn: int) -> Optional[CensorMiddlebox]:
        """The censor at ``asn``, or None."""
        return self.censors_by_asn.get(asn)

    @property
    def censor_asns(self) -> List[int]:
        """All censoring ASNs."""
        return list(self.censors_by_asn)

    @property
    def censoring_countries(self) -> FrozenSet[str]:
        """Country codes hosting at least one censor."""
        return frozenset(c.country_code for c in self.censors_by_asn.values())

    def unscoped_censors(self) -> List[CensorMiddlebox]:
        """Censors acting on transit traffic (the potential leakers)."""
        return [c for c in self.censors_by_asn.values() if not c.scoped]

    def can_cause(self, asn: int, anomaly: Anomaly, domain: str) -> bool:
        """Ground-truth check: could censor ``asn`` cause ``anomaly`` on
        ``domain``?  Used to validate inferred (AS, anomaly) attributions."""
        censor = self.censors_by_asn.get(asn)
        if censor is None:
            return False
        if not censor.covers_domain(domain):
            return False
        return anomaly in censor.expected_anomalies(domain)


def default_profiles(
    censoring_countries: Sequence[str],
    all_technique_countries: Sequence[str] = (),
    seed: int = 0,
) -> Tuple[CountryCensorshipProfile, ...]:
    """Build per-country profiles with paper-like diversity.

    Countries in ``all_technique_countries`` get every technique, broad
    categories, and more censoring ASes; remaining countries get one to
    three techniques and one to three categories.
    """
    rng = DeterministicRNG(seed, "profiles")
    profiles: List[CountryCensorshipProfile] = []
    for code in censoring_countries:
        if code in all_technique_countries:
            extras = rng.sample_at_most(Category.all(), rng.randint(3, 5))
            blocked = tuple(
                dict.fromkeys(
                    (Category.SHOPPING, Category.CLASSIFIEDS) + tuple(extras)
                )
            )
            profiles.append(
                CountryCensorshipProfile(
                    country_code=code,
                    num_censors=rng.randint(3, 6),
                    techniques=ALL_TECHNIQUES,
                    max_techniques_per_censor=len(ALL_TECHNIQUES),
                    blocked_categories=blocked,
                    scoped_fraction=0.35,
                    all_technique_censors=True,
                )
            )
        else:
            techniques = tuple(
                rng.sample_at_most(list(ALL_TECHNIQUES), rng.randint(1, 3))
            )
            blocked = tuple(
                dict.fromkeys(
                    _weighted_categories(rng, rng.randint(1, 2))
                )
            )
            profiles.append(
                CountryCensorshipProfile(
                    country_code=code,
                    num_censors=rng.randint(1, 3),
                    techniques=techniques,
                    max_techniques_per_censor=2,
                    blocked_categories=blocked,
                    scoped_fraction=0.55,
                )
            )
    return tuple(profiles)


def _weighted_categories(rng: DeterministicRNG, count: int) -> List[Category]:
    """Draw categories skewed like observed censorship (paper §4).

    Online Shopping and Classifieds are the most commonly censored
    categories in the paper, and they are also the heaviest in the test
    list, so weighting them keeps test-list/censor overlap realistic even
    in very small scenarios.
    """
    pool = list(Category.all())
    weights = [1.0] * len(pool)
    weights[pool.index(Category.SHOPPING)] = 4.0
    weights[pool.index(Category.CLASSIFIEDS)] = 3.5
    weights[pool.index(Category.NEWS)] = 2.0
    weights[pool.index(Category.AD_VENDOR)] = 1.5
    return [rng.pick_weighted(pool, weights) for _ in range(count)]


def deploy_censors(
    graph: ASGraph,
    categories: CategoryDatabase,
    config: DeploymentConfig,
) -> CensorDeployment:
    """Instantiate censors per the configuration.

    Censoring ASes are drawn from each country's transit ASes first (two
    thirds of picks) and access ASes second, without replacement; countries
    with fewer eligible ASes than ``num_censors`` get as many as exist.

    Scoping is structural: only *access-network* censors can be scoped
    (client ACLs at the subscriber edge), while transit censors always act
    on everything crossing them (DPI on the forwarding path, GFW-style).
    A scoped transit censor would be self-contradictory for AS-level
    tomography — foreign transit traffic would exonerate an AS that still
    censors domestic clients — and real national-backbone filtering is not
    client-scoped either.
    """
    rng = DeterministicRNG(config.seed, "deployment")
    country_by_asn = {a.asn: a.country.code for a in graph.registry}
    deployment = CensorDeployment()
    template_keys = list(BLOCKPAGE_TEMPLATES)
    for profile in config.profiles:
        # National transit only: global tier-1 backbones do not run
        # country blocklists (and a censoring tier-1 would censor the
        # whole planet's transit, which nothing in the paper's data shows).
        transit = [
            a.asn
            for a in graph.registry.in_country(profile.country_code)
            if a.as_type is ASType.TRANSIT
        ]
        access = [
            a.asn
            for a in graph.registry.in_country(profile.country_code)
            if a.as_type is ASType.ACCESS
        ]
        pool = rng.sample_at_most(transit, max(1, 2 * profile.num_censors // 3))
        pool += rng.sample_at_most(
            access, profile.num_censors - len(pool)
        )
        if len(pool) < profile.num_censors:
            extra = [
                asn
                for asn in transit + access
                if asn not in pool
            ]
            pool += rng.sample_at_most(extra, profile.num_censors - len(pool))
        access_set = set(access)
        for asn in pool[: profile.num_censors]:
            if profile.all_technique_censors:
                techniques: Sequence[Technique] = profile.techniques
            else:
                count = rng.randint(
                    1, min(profile.max_techniques_per_censor, len(profile.techniques))
                )
                techniques = rng.sample_at_most(list(profile.techniques), count)
            policy = random_policy(
                base_categories=profile.blocked_categories,
                start=config.start,
                end=config.end,
                rng=rng.fork("policy", asn),
                change_rate_per_year=profile.policy_change_rate_per_year,
            )
            deployment.censors_by_asn[asn] = CensorMiddlebox(
                asn=asn,
                country_code=profile.country_code,
                policy=policy,
                techniques=techniques,
                scoped=asn in access_set and rng.chance(profile.scoped_fraction),
                categories=categories,
                country_by_asn=country_by_asn,
                seed=config.seed,
                fire_probability=config.fire_probability,
                domain_coverage=profile.domain_coverage,
                blockpage_template=rng.pick(template_keys),
            )
    return deployment


__all__ = [
    "CountryCensorshipProfile",
    "DeploymentConfig",
    "CensorDeployment",
    "default_profiles",
    "deploy_censors",
    "ALL_TECHNIQUES",
]
