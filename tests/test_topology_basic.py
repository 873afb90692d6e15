"""Tests for countries, AS registry, and the AS graph."""

import pytest

from repro.topology.asn import ASRegistry, ASType, AutonomousSystem
from repro.topology.countries import (
    COUNTRIES,
    Region,
    countries_in_region,
    country_by_code,
    region_of,
)
from repro.topology.graph import ASGraph, ASLink, Relationship, peer_link, transit_link


def mk_as(asn, code="US", as_type=ASType.TRANSIT):
    return AutonomousSystem(asn, f"AS{asn}", country_by_code(code), as_type)


class TestCountries:
    def test_lookup(self):
        assert country_by_code("CY").name == "Cyprus"
        assert country_by_code("CN").region is Region.EAST_ASIA

    def test_unknown_code(self):
        with pytest.raises(KeyError):
            country_by_code("XX")

    def test_codes_unique(self):
        codes = [c.code for c in COUNTRIES]
        assert len(codes) == len(set(codes))

    def test_every_region_populated(self):
        for region in Region:
            assert countries_in_region(region), region

    def test_region_of(self):
        assert region_of("DE") is Region.EUROPE

    def test_weights_positive(self):
        assert all(c.weight > 0 for c in COUNTRIES)


class TestRegistry:
    def test_add_and_get(self):
        registry = ASRegistry([mk_as(1)])
        assert registry[1].asn == 1
        assert registry.get(2) is None
        assert 1 in registry

    def test_duplicate_rejected(self):
        registry = ASRegistry([mk_as(1)])
        with pytest.raises(ValueError):
            registry.add(mk_as(1))

    def test_of_type_and_in_country(self):
        registry = ASRegistry(
            [mk_as(1, "US", ASType.TIER1), mk_as(2, "DE", ASType.ACCESS)]
        )
        assert [a.asn for a in registry.of_type(ASType.TIER1)] == [1]
        assert [a.asn for a in registry.in_country("DE")] == [2]

    def test_country_of(self):
        registry = ASRegistry([mk_as(7, "JP")])
        assert registry.country_of(7) == "JP"

    def test_invalid_asn(self):
        with pytest.raises(ValueError):
            mk_as(0)


class TestLinks:
    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            transit_link(1, 1)

    def test_peer_link_normalized(self):
        link = peer_link(9, 3)
        assert link.ends == (3, 9)
        assert link.key() == (3, 9)

    def test_peer_order_enforced(self):
        with pytest.raises(ValueError):
            ASLink(9, 3, Relationship.PEER)

    def test_other(self):
        link = transit_link(1, 2)
        assert link.other(1) == 2
        assert link.other(2) == 1
        with pytest.raises(ValueError):
            link.other(3)


class TestGraph:
    def make_graph(self):
        # 1 (tier1) <- 2 (transit) <- 3,4 (edges); 2 peers with 5
        registry = ASRegistry(
            [
                mk_as(1, "US", ASType.TIER1),
                mk_as(2, "DE", ASType.TRANSIT),
                mk_as(3, "DE", ASType.ACCESS),
                mk_as(4, "DE", ASType.CONTENT),
                mk_as(5, "FR", ASType.TRANSIT),
            ]
        )
        links = [
            transit_link(2, 1),
            transit_link(3, 2),
            transit_link(4, 2),
            peer_link(2, 5),
            transit_link(5, 1),
        ]
        return ASGraph(registry, links)

    def test_neighbor_queries(self):
        graph = self.make_graph()
        assert graph.providers_of(2) == {1}
        assert graph.customers_of(2) == {3, 4}
        assert graph.peers_of(2) == {5}
        assert graph.neighbors_of(2) == {1, 3, 4, 5}
        assert graph.degree(2) == 4

    def test_duplicate_link_rejected(self):
        graph = self.make_graph()
        with pytest.raises(ValueError):
            graph.add_link(transit_link(2, 1))

    def test_unregistered_endpoint_rejected(self):
        graph = self.make_graph()
        with pytest.raises(KeyError):
            graph.add_link(transit_link(2, 99))

    def test_customer_cone(self):
        graph = self.make_graph()
        assert graph.customer_cone(1) == {1, 2, 3, 4, 5}
        assert graph.customer_cone(2) == {2, 3, 4}
        assert graph.customer_cone(3) == {3}

    def test_connected_component(self):
        graph = self.make_graph()
        assert graph.connected_component(3) == {1, 2, 3, 4, 5}

    def test_validate_clean(self):
        assert self.make_graph().validate() == []

    def test_validate_detects_cycle(self):
        registry = ASRegistry([mk_as(1), mk_as(2), mk_as(3)])
        links = [transit_link(1, 2), transit_link(2, 3), transit_link(3, 1)]
        graph = ASGraph(registry, links)
        issues = graph.validate()
        assert any("cycle" in issue for issue in issues)

    def test_validate_detects_disconnection(self):
        registry = ASRegistry([mk_as(1), mk_as(2), mk_as(3)])
        graph = ASGraph(registry, [transit_link(1, 2)])
        issues = graph.validate()
        assert any("disconnected" in issue for issue in issues)

    def test_country_of(self):
        assert self.make_graph().country_of(5) == "FR"
