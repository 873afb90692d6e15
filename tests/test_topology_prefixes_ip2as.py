"""Tests for prefix allocation and the IP-to-AS database."""

import pytest

from repro.topology.generator import TopologyConfig, generate_topology
from repro.topology.ip2as import (
    IpToAsDatabase,
    IpToAsEpoch,
    PrefixTable,
    build_ip2as_database,
)
from repro.topology.prefixes import allocate_prefixes
from repro.util.ipv4 import Prefix, parse_ipv4
from repro.util.timeutil import WEEK

GRAPH = generate_topology(
    TopologyConfig(seed=3, country_codes=("US", "DE", "CN"), num_tier1=2)
)


class TestAllocation:
    def test_every_as_has_prefixes(self):
        allocation = allocate_prefixes(GRAPH, seed=0)
        for as_obj in GRAPH.registry:
            assert allocation.prefixes_of(as_obj.asn)

    def test_prefixes_disjoint(self):
        allocation = allocate_prefixes(GRAPH, seed=0)
        seen = set()
        for prefix, _ in allocation.owner_pairs():
            assert prefix.network not in seen
            seen.add(prefix.network)

    def test_deterministic(self):
        a = allocate_prefixes(GRAPH, seed=5)
        b = allocate_prefixes(GRAPH, seed=5)
        assert list(a.owner_pairs()) == list(b.owner_pairs())

    def test_router_address_inside_own_prefix(self):
        allocation = allocate_prefixes(GRAPH, seed=0)
        for as_obj in GRAPH.registry:
            address = allocation.router_address(as_obj.asn, index=7)
            assert any(address in p for p in allocation.prefixes_of(as_obj.asn))

    def test_host_address_inside_own_prefix(self):
        allocation = allocate_prefixes(GRAPH, seed=0)
        for as_obj in list(GRAPH.registry)[:10]:
            address = allocation.host_address(as_obj.asn, index=3)
            assert any(address in p for p in allocation.prefixes_of(as_obj.asn))

    def test_unknown_asn_raises(self):
        allocation = allocate_prefixes(GRAPH, seed=0)
        with pytest.raises(KeyError):
            allocation.router_address(999999)


class TestPrefixTable:
    def test_longest_prefix_wins(self):
        table = PrefixTable()
        table.insert(Prefix.parse("10.0.0.0/8"), 100)
        table.insert(Prefix.parse("10.1.0.0/16"), 200)
        assert table.lookup(parse_ipv4("10.1.2.3")) == 200
        assert table.lookup(parse_ipv4("10.2.2.3")) == 100

    def test_miss_returns_none(self):
        table = PrefixTable()
        table.insert(Prefix.parse("10.0.0.0/8"), 100)
        assert table.lookup(parse_ipv4("11.0.0.1")) is None

    def test_len_and_entries(self):
        table = PrefixTable()
        table.insert(Prefix.parse("10.0.0.0/8"), 1)
        table.insert(Prefix.parse("10.1.0.0/16"), 2)
        assert len(table) == 2
        entries = table.entries()
        assert entries[0][0].length == 16  # longest first


class TestDatabase:
    def test_epoch_selection(self):
        allocation = allocate_prefixes(GRAPH, seed=0)
        db = build_ip2as_database(
            allocation, start=0, end=8 * WEEK, epoch_length=4 * WEEK, seed=0
        )
        assert len(db._epochs) == 2
        assert db.epoch_at(0).start == 0
        assert db.epoch_at(5 * WEEK).start == 4 * WEEK

    def test_timestamps_outside_range_clamped(self):
        allocation = allocate_prefixes(GRAPH, seed=0)
        db = build_ip2as_database(
            allocation, start=0, end=4 * WEEK, epoch_length=4 * WEEK, seed=0
        )
        assert db.epoch_at(-100).start == 0
        assert db.epoch_at(100 * WEEK).start == 0

    def test_noisy_database_mostly_correct(self):
        allocation = allocate_prefixes(GRAPH, seed=0)
        db = build_ip2as_database(
            allocation,
            start=0,
            end=4 * WEEK,
            epoch_length=4 * WEEK,
            missing_fraction=0.05,
            misattributed_fraction=0.02,
            seed=0,
        )
        total = correct = missing = wrong = 0
        for prefix, owner in allocation.owner_pairs():
            total += 1
            mapped = db.lookup(prefix.network, 0)
            if mapped is None:
                missing += 1
            elif mapped == owner:
                correct += 1
            else:
                wrong += 1
        assert correct / total > 0.85
        assert missing > 0
        assert wrong > 0

    def test_overlapping_epochs_rejected(self):
        epochs = [IpToAsEpoch(0, 10), IpToAsEpoch(5, 15)]
        with pytest.raises(ValueError):
            IpToAsDatabase(epochs)

    def test_empty_database_rejected(self):
        with pytest.raises(ValueError):
            IpToAsDatabase([])

    def test_bad_intervals_rejected(self):
        with pytest.raises(ValueError):
            IpToAsEpoch(10, 10)
        allocation = allocate_prefixes(GRAPH, seed=0)
        with pytest.raises(ValueError):
            build_ip2as_database(allocation, start=10, end=5, epoch_length=1)
        with pytest.raises(ValueError):
            build_ip2as_database(allocation, start=0, end=5, epoch_length=0)
