"""Building the fully wired synthetic world."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.censorship.deployment import (
    CensorDeployment,
    DeploymentConfig,
    default_profiles,
    deploy_censors,
)
from repro.core.pipeline import LocalizationPipeline, PipelineConfig
from repro.iclab.dataset import Dataset
from repro.iclab.platform import ICLabPlatform
from repro.iclab.vantage import VantagePoint, select_vantage_points
from repro.routing.churn import PathOracle
from repro.scenario.config import ScenarioConfig
from repro.topology.generator import generate_topology
from repro.topology.graph import ASGraph
from repro.topology.ip2as import IpToAsDatabase, build_ip2as_database
from repro.topology.prefixes import PrefixAllocation, allocate_prefixes
from repro.urls.testlist import UrlTestList, generate_test_list


@dataclass
class World:
    """A complete synthetic world plus convenience entry points."""

    config: ScenarioConfig
    graph: ASGraph
    allocation: PrefixAllocation
    ip2as: IpToAsDatabase
    oracle: PathOracle
    test_list: UrlTestList
    deployment: CensorDeployment
    vantage_points: List[VantagePoint]
    platform: ICLabPlatform

    @property
    def country_by_asn(self) -> Dict[int, str]:
        """Country code of every AS."""
        return {a.asn: a.country.code for a in self.graph.registry}

    def run_campaign(self, progress_every: int = 0) -> Dataset:
        """Run the full measurement campaign.

        A campaign large enough, in a process free to fork, splits its
        tests by destination AS over one forked process per usable CPU
        and merges them into the serial run's bytes; small campaigns stay
        serial.  See :meth:`ICLabPlatform.run_campaign`.
        """
        return self.platform.run_campaign(progress_every=progress_every)

    def pipeline(
        self, config: PipelineConfig = PipelineConfig()
    ) -> LocalizationPipeline:
        """A localization pipeline bound to this world's IP-to-AS data."""
        return LocalizationPipeline(
            ip2as=self.ip2as,
            country_by_asn=self.country_by_asn,
            config=config,
        )

    def session(self, config=None):
        """A :class:`repro.api.LocalizationSession` bound to this world.

        The recommended entry point for running workloads against an
        already-built world: one config object, any workload, pluggable
        execution backend (see :mod:`repro.api`).
        """
        # Deferred import: repro.api builds worlds through this module.
        from repro.api.session import LocalizationSession

        return LocalizationSession.for_world(self, config)


def build_world(config: ScenarioConfig) -> World:
    """Deterministically construct every subsystem from one config."""
    graph = generate_topology(config.topology_config())
    allocation = allocate_prefixes(graph, seed=config.seed)
    ip2as = build_ip2as_database(
        allocation,
        start=0,
        end=config.duration,
        epoch_length=config.ip2as_epoch_length,
        missing_fraction=config.ip2as_missing_fraction,
        misattributed_fraction=config.ip2as_misattributed_fraction,
        seed=config.seed,
    )
    oracle = PathOracle(graph, config.churn_config())
    test_list = generate_test_list(
        graph, allocation, num_urls=config.num_urls, seed=config.seed
    )
    profiles = default_profiles(
        censoring_countries=config.censoring_countries,
        all_technique_countries=config.all_technique_countries,
        seed=config.seed,
    )
    deployment = deploy_censors(
        graph,
        test_list.categories,
        DeploymentConfig(
            profiles=profiles,
            start=0,
            end=config.duration,
            seed=config.seed,
            fire_probability=config.censor_fire_probability,
        ),
    )
    vantage_points = select_vantage_points(
        graph, count=config.num_vantage_points, seed=config.seed
    )
    platform = ICLabPlatform(
        oracle=oracle,
        allocation=allocation,
        test_list=test_list,
        deployment=deployment,
        vantage_points=vantage_points,
        config=config.platform_config(),
    )
    return World(
        config=config,
        graph=graph,
        allocation=allocation,
        ip2as=ip2as,
        oracle=oracle,
        test_list=test_list,
        deployment=deployment,
        vantage_points=vantage_points,
        platform=platform,
    )


__all__ = ["World", "build_world"]
