"""Tests for Gao-Rexford route computation and valley-freedom."""

import pytest

from repro.routing.bgp import RouteComputer
from repro.routing.policy import (
    edge_kind,
    is_valley_free,
    route_class_sequence,
    tie_break_rank,
)
from repro.topology.asn import ASRegistry, ASType, AutonomousSystem
from repro.topology.countries import country_by_code
from repro.topology.generator import TopologyConfig, generate_topology
from repro.topology.graph import ASGraph, peer_link, transit_link


def mk_as(asn, as_type=ASType.TRANSIT):
    return AutonomousSystem(asn, f"AS{asn}", country_by_code("US"), as_type)


def diamond_graph():
    """1,2 are tier-1 peers; 3 buys from 1 and 2; 4 buys from 1; 5 buys
    from 3 and 4 (multihomed)."""
    registry = ASRegistry([mk_as(i) for i in (1, 2, 3, 4, 5)])
    links = [
        peer_link(1, 2),
        transit_link(3, 1),
        transit_link(3, 2),
        transit_link(4, 1),
        transit_link(5, 3),
        transit_link(5, 4),
    ]
    return ASGraph(registry, links)


class TestEdgeKind:
    def test_kinds(self):
        graph = diamond_graph()
        assert edge_kind(graph, 3, 1) == "up"
        assert edge_kind(graph, 1, 3) == "down"
        assert edge_kind(graph, 1, 2) == "peer"
        assert edge_kind(graph, 3, 4) is None


class TestValleyFree:
    def test_accepts_up_peer_down(self):
        graph = diamond_graph()
        assert is_valley_free(graph, [5, 3, 1, 2])       # up up peer
        assert is_valley_free(graph, [3, 1, 2])           # up peer
        assert is_valley_free(graph, [1, 3, 5])           # down down
        assert is_valley_free(graph, [5, 3])              # single hop up

    def test_rejects_valleys(self):
        graph = diamond_graph()
        # down then up is a valley: 1 -> 3 -> 2
        assert not is_valley_free(graph, [1, 3, 2])
        # peer then up: 2 -> 1 -> ... wait 2->1 is peer, 1 has no providers.
        # down then peer is also forbidden at the end: 3 -> 5 -> ... none.

    def test_rejects_two_peer_hops(self):
        registry = ASRegistry([mk_as(i) for i in (1, 2, 3)])
        graph = ASGraph(registry, [peer_link(1, 2), peer_link(2, 3)])
        assert not is_valley_free(graph, [1, 2, 3])

    def test_rejects_loops(self):
        graph = diamond_graph()
        assert not is_valley_free(graph, [3, 1, 3])

    def test_rejects_non_adjacent(self):
        graph = diamond_graph()
        assert not is_valley_free(graph, [5, 1])

    def test_trivial_paths(self):
        graph = diamond_graph()
        assert is_valley_free(graph, [1])
        assert is_valley_free(graph, [])

    def test_route_class_sequence_raises_on_gap(self):
        graph = diamond_graph()
        with pytest.raises(ValueError):
            route_class_sequence(graph, [5, 1])


class TestTieBreak:
    def test_deterministic(self):
        assert tie_break_rank(1, 2, 0) == tie_break_rank(1, 2, 0)

    def test_salt_changes_rank(self):
        ranks = {tie_break_rank(1, 2, s) for s in range(10)}
        assert len(ranks) > 1


class TestRouteComputer:
    def test_direct_customer_route(self):
        graph = diamond_graph()
        table = RouteComputer(graph).routing_table(5)
        # 3 and 4 reach 5 directly as a customer route
        assert table.path_from(3) == (3, 5)
        assert table.path_from(4) == (4, 5)

    def test_destination_path_is_itself(self):
        graph = diamond_graph()
        table = RouteComputer(graph).routing_table(5)
        assert table.path_from(5) == (5,)

    def test_all_paths_valley_free(self):
        graph = diamond_graph()
        computer = RouteComputer(graph)
        for dst in (1, 2, 3, 4, 5):
            table = computer.routing_table(dst)
            for src in (1, 2, 3, 4, 5):
                path = table.path_from(src)
                assert path is not None, (src, dst)
                assert is_valley_free(graph, path), (path, dst)

    def test_customer_route_preferred_over_peer(self):
        # 2 reaches 5 via customer 3 (2 is 3's provider): path 2,3,5 —
        # never via peer 1.
        graph = diamond_graph()
        table = RouteComputer(graph).routing_table(5)
        assert table.path_from(2) == (2, 3, 5)

    def test_down_link_forces_detour(self):
        graph = diamond_graph()
        computer = RouteComputer(graph)
        table = computer.routing_table(5, down_links=[(3, 5)])
        assert table.path_from(3) is not None
        assert (3, 5) not in zip(table.path_from(3), table.path_from(3)[1:])

    def test_partition_returns_none(self):
        registry = ASRegistry([mk_as(1), mk_as(2), mk_as(3)])
        graph = ASGraph(registry, [transit_link(2, 1)])
        table = RouteComputer(graph).routing_table(1)
        assert table.path_from(3) is None

    def test_unknown_destination_raises(self):
        graph = diamond_graph()
        with pytest.raises(KeyError):
            RouteComputer(graph).routing_table(42)

    def test_salts_can_flip_equal_cost_choice(self):
        # 5 multihomes to 3 and 4; both offer provider routes to 1 of
        # equal length, so the salt decides.
        graph = diamond_graph()
        computer = RouteComputer(graph)
        paths = {
            computer.routing_table(1, salt=salt).path_from(5)
            for salt in range(16)
        }
        assert len(paths) == 2  # both (5,3,1) and (5,4,1) appear

    def test_generated_topology_paths_all_valley_free(self):
        graph = generate_topology(
            TopologyConfig(seed=2, country_codes=("US", "DE", "CN", "JP"), num_tier1=3)
        )
        computer = RouteComputer(graph)
        asns = graph.registry.asns
        for dst in asns[:6]:
            table = computer.routing_table(dst, salt=1)
            for src, path in list(table.paths.items())[:50]:
                assert is_valley_free(graph, path), (src, dst, path)

    def test_caching_returns_same_object(self):
        graph = diamond_graph()
        computer = RouteComputer(graph)
        assert computer.routing_table(5) is computer.routing_table(5)
        assert computer.routing_table(5) is not computer.routing_table(5, salt=1)


class TestIncrementalFailedTables:
    """The incremental single-link-failure recomputation must be
    indistinguishable from a full recomputation — pinned exhaustively
    over every (destination, link, salt) of small generated topologies
    (see RouteComputer._compute_failed for where larger ones differ)."""

    @pytest.mark.parametrize("seed", [0, 3, 11])
    def test_matches_full_recomputation_exhaustively(self, seed):
        graph = generate_topology(
            TopologyConfig(
                seed=seed,
                country_codes=("US", "DE", "CN", "JP", "IR"),
                num_tier1=3,
            )
        )
        warm = RouteComputer(graph)      # base cached → incremental path
        cold = RouteComputer(graph, cache_size=0)  # always full compute
        links = [link.key() for link in graph.links()]
        for dst in graph.registry.asns[:8]:
            for salt in (0, 1):
                warm.routing_table(dst, salt=salt)  # prime the base
                for link in links:
                    incremental = warm.routing_table(
                        dst, salt=salt, down_links=[link]
                    )
                    full = cold.routing_table(
                        dst, salt=salt, down_links=[link]
                    )
                    assert incremental.paths == full.paths, (dst, salt, link)
        assert warm.stats.tables_incremental > 0

    def test_link_no_route_uses_leaves_the_base_paths(self):
        graph = diamond_graph()
        computer = RouteComputer(graph)
        base = computer.routing_table(5)
        # Toward 5, tier-1s 1 and 2 hold customer routes, so their peer
        # link carries no route.
        hops = {
            frozenset(hop)
            for path in base.paths.values()
            for hop in zip(path, path[1:])
        }
        assert frozenset((1, 2)) not in hops
        table = computer.routing_table(5, down_links=[(1, 2)])
        assert computer.stats.tables_incremental == 1
        assert table.paths == base.paths
        assert table.paths is not base.paths

    def test_failed_table_stores_only_the_link_users(self):
        graph = generate_topology(
            TopologyConfig(
                seed=3,
                country_codes=("US", "DE", "CN", "JP", "IR"),
                num_tier1=3,
            )
        )
        computer = RouteComputer(graph)
        checked = 0
        for dst in graph.registry.asns[:4]:
            base = computer.routing_table(dst)
            users = computer._users_of(dst, 0, base)
            for link in (link.key() for link in graph.links()):
                table = computer.routing_table(dst, down_links=[link])
                assert table.base is base
                assert set(table.entries) == users.get(link, set())
                assert len(table) == len(table.paths)
                for src in graph.registry.asns:
                    assert table.path_from(src) == (
                        (src,) if src == dst else table.paths.get(src)
                    )
                checked += bool(table.entries)
        assert checked

    def test_cut_off_users_stay_absent_as_in_full_recomputation(self):
        graph = diamond_graph()
        computer = RouteComputer(graph)
        computer.routing_table(4)
        # 4's only upstream is 1: failing (1, 4) leaves 1, its peer 2 and
        # their customer 3 without any policy-compliant route; 5 still
        # reaches its provider 4 directly.
        table = computer.routing_table(4, down_links=[(1, 4)])
        assert computer.stats.tables_incremental == 1
        full = RouteComputer(graph, cache_size=0).routing_table(
            4, down_links=[(1, 4)]
        )
        assert table.paths == full.paths == {5: (5, 4)}
        for cut_off in (1, 2, 3):
            assert table.path_from(cut_off) is None
            assert table.entries[cut_off] is None

    def test_every_single_link_table_counts_as_incremental(self):
        graph = diamond_graph()
        computer = RouteComputer(graph)
        computer.routing_table(5)
        links = [link.key() for link in graph.links()]
        for link in links:
            computer.routing_table(5, down_links=[link])
        assert computer.stats.tables_incremental == len(links)
        assert computer.stats.tables_computed == 1 + len(links)

    def test_multi_link_failures_take_the_full_path(self):
        graph = diamond_graph()
        computer = RouteComputer(graph)
        computer.routing_table(5)
        computer.routing_table(5, down_links=[(3, 5), (4, 5)])
        assert computer.stats.tables_incremental == 0

    def test_incremental_without_cached_base_falls_back(self):
        graph = diamond_graph()
        computer = RouteComputer(graph)
        # No intact table cached yet: the failed table still computes.
        table = computer.routing_table(5, down_links=[(3, 5)])
        assert computer.stats.tables_incremental == 0
        assert table.path_from(3) is not None
