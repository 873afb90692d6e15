"""Tests for the URL test list and scenario construction."""

import dataclasses

import pytest

from repro.scenario.config import ScenarioConfig
from repro.scenario.presets import paper_shaped, small, tiny
from repro.scenario.world import build_world
from repro.topology.asn import ASType
from repro.urls.categories import Category, CategoryDatabase
from repro.urls.testlist import HOSTING_HUBS, generate_test_list


class TestCategoryDatabase:
    def test_register_and_lookup(self):
        db = CategoryDatabase()
        db.register("x.com", Category.NEWS)
        assert db.categorize("x.com") is Category.NEWS
        assert db.categorize("y.com") is None
        assert len(db) == 1


class TestTestList:
    def test_generation_count_and_uniqueness(self, tiny_world):
        test_list = generate_test_list(
            tiny_world.graph, tiny_world.allocation, num_urls=25, seed=1
        )
        assert len(test_list) == 25
        domains = [u.domain for u in test_list]
        assert len(domains) == len(set(domains))

    def test_deterministic(self, tiny_world):
        a = generate_test_list(tiny_world.graph, tiny_world.allocation, 10, seed=2)
        b = generate_test_list(tiny_world.graph, tiny_world.allocation, 10, seed=2)
        assert [u.url for u in a] == [u.url for u in b]

    def test_hosts_are_content_ases(self, tiny_world):
        test_list = generate_test_list(
            tiny_world.graph, tiny_world.allocation, 20, seed=1
        )
        for test_url in test_list:
            assert tiny_world.graph.registry[test_url.dest_asn].as_type is (
                ASType.CONTENT
            )

    def test_host_reuse(self, tiny_world):
        test_list = generate_test_list(
            tiny_world.graph, tiny_world.allocation, 40, seed=1
        )
        assert len(test_list.dest_asns) < 40  # several URLs share hosts

    def test_categories_registered(self, tiny_world):
        test_list = generate_test_list(
            tiny_world.graph, tiny_world.allocation, 15, seed=1
        )
        for test_url in test_list:
            assert test_list.categories.categorize(test_url.domain) is (
                test_url.category
            )

    def test_server_addresses_inside_host_prefixes(self, tiny_world):
        test_list = generate_test_list(
            tiny_world.graph, tiny_world.allocation, 15, seed=1
        )
        for test_url in test_list:
            prefixes = tiny_world.allocation.prefixes_of(test_url.dest_asn)
            assert any(test_url.server_address in p for p in prefixes)

    def test_hub_hosting_bias(self):
        world = build_world(small(seed=5))
        test_list = generate_test_list(world.graph, world.allocation, 60, seed=5)
        hub_hosted = sum(
            1
            for u in test_list
            if world.graph.country_of(u.dest_asn) in HOSTING_HUBS
        )
        assert hub_hosted / len(test_list) > 0.5

    def test_num_urls_validated(self, tiny_world):
        with pytest.raises(ValueError):
            generate_test_list(tiny_world.graph, tiny_world.allocation, 0)


class TestScenarioConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            ScenarioConfig(duration=0)
        with pytest.raises(ValueError):
            ScenarioConfig(num_urls=0)

    def test_sub_configs_inherit_seed(self):
        config = ScenarioConfig(seed=77)
        assert config.topology_config().seed == 77
        assert config.churn_config().seed == 77
        assert config.platform_config().seed == 77

    def test_churn_horizon_matches_duration(self):
        config = ScenarioConfig(seed=1, duration=12345678)
        assert config.churn_config().horizon == 12345678


class TestPresets:
    def test_presets_build(self):
        for preset in (tiny, small):
            config = preset(seed=1)
            world = build_world(config)
            assert len(world.vantage_points) > 0
            assert len(world.test_list) == config.num_urls

    def test_paper_shaped_config_sane(self):
        config = paper_shaped(seed=0, duration_days=10)
        assert config.num_urls == 40
        assert len(config.censoring_countries) == 25

    def test_world_determinism(self):
        a = build_world(tiny(seed=9))
        b = build_world(tiny(seed=9))
        assert sorted(x.asn for x in a.graph.registry) == sorted(
            x.asn for x in b.graph.registry
        )
        assert [u.url for u in a.test_list] == [u.url for u in b.test_list]
        assert sorted(a.deployment.censor_asns) == sorted(b.deployment.censor_asns)

    def test_world_country_map_complete(self, tiny_world):
        country = tiny_world.country_by_asn
        assert set(country) == set(tiny_world.graph.registry.asns)

    def test_censors_in_configured_countries(self, tiny_world):
        allowed = set(tiny_world.config.censoring_countries)
        assert tiny_world.deployment.censoring_countries <= allowed
