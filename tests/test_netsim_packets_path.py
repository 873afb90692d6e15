"""Tests for packet records and router-path expansion."""

import pytest

from repro.netsim.packets import (
    DnsRecord,
    DnsResponse,
    PacketCapture,
    TcpFlags,
    TcpPacket,
)
from repro.netsim.path import RouterPath, expand_as_path
from repro.topology.generator import TopologyConfig, generate_topology
from repro.topology.prefixes import allocate_prefixes

GRAPH = generate_topology(
    TopologyConfig(seed=5, country_codes=("US", "DE", "CN"), num_tier1=2)
)
ALLOCATION = allocate_prefixes(GRAPH, seed=5)


def packet(**overrides):
    base = dict(
        time=0.0,
        from_client=False,
        ttl=60,
        seq=1000,
        ack=1,
        flags=TcpFlags.ACK,
        payload_len=0,
    )
    base.update(overrides)
    return TcpPacket(**base)


class TestTcpFlags:
    def test_short_synack(self):
        assert (TcpFlags.SYN | TcpFlags.ACK).short() == "SA"

    def test_short_empty(self):
        assert TcpFlags.NONE.short() == "."

    def test_short_rst(self):
        assert TcpFlags.RST.short() == "R"


class TestTcpPacket:
    def test_is_synack(self):
        assert packet(flags=TcpFlags.SYN | TcpFlags.ACK).is_synack
        assert not packet(flags=TcpFlags.SYN).is_synack

    def test_is_rst(self):
        assert packet(flags=TcpFlags.RST).is_rst

    def test_seq_end(self):
        assert packet(seq=100, payload_len=50).seq_end == 150

    def test_ttl_validation(self):
        with pytest.raises(ValueError):
            packet(ttl=300)
        with pytest.raises(ValueError):
            packet(ttl=-1)

    def test_negative_payload_rejected(self):
        with pytest.raises(ValueError):
            packet(payload_len=-1)


class TestCapture:
    def test_server_packets_sorted_by_time(self):
        capture = PacketCapture()
        capture.add(packet(time=2.0))
        capture.add(packet(time=1.0))
        capture.add(packet(time=1.5, from_client=True))
        times = [p.time for p in capture.server_packets()]
        assert times == [1.0, 2.0]

    def test_synack_finds_first(self):
        capture = PacketCapture()
        capture.add(packet(time=1.0, flags=TcpFlags.SYN | TcpFlags.ACK))
        capture.add(packet(time=0.5, flags=TcpFlags.ACK))
        synack = capture.synack()
        assert synack is not None and synack.time == 1.0

    def test_synack_absent(self):
        assert PacketCapture().synack() is None

    def test_dns_addresses(self):
        response = DnsResponse(
            time=0.1,
            txid=7,
            qname="x.com",
            answers=(DnsRecord("x.com", 123), DnsRecord("x.com", 456)),
            resolver_address=1,
            ttl=50,
        )
        assert response.addresses == (123, 456)


class TestExpandAsPath:
    def as_path(self):
        asns = GRAPH.registry.asns
        return (asns[0], asns[1], asns[2])

    def test_deterministic(self):
        a = expand_as_path(self.as_path(), ALLOCATION, seed=1)
        b = expand_as_path(self.as_path(), ALLOCATION, seed=1)
        assert a == b

    def test_different_paths_expand_differently(self):
        asns = GRAPH.registry.asns
        a = expand_as_path((asns[0], asns[1]), ALLOCATION, seed=1)
        b = expand_as_path((asns[0], asns[2]), ALLOCATION, seed=1)
        assert a.hops != b.hops

    def test_hop_indices_sequential(self):
        router_path = expand_as_path(self.as_path(), ALLOCATION, seed=1)
        assert [h.hop_index for h in router_path.hops] == list(
            range(router_path.hop_count)
        )

    def test_first_as_contributes_one_router(self):
        router_path = expand_as_path(self.as_path(), ALLOCATION, seed=1)
        first_asn = self.as_path()[0]
        assert [h.asn for h in router_path.hops].count(first_asn) == 1

    def test_addresses_belong_to_their_as(self):
        router_path = expand_as_path(self.as_path(), ALLOCATION, seed=1)
        for hop in router_path.hops:
            prefixes = ALLOCATION.prefixes_of(hop.asn)
            assert any(hop.address in p for p in prefixes)

    def test_hops_to_asn(self):
        router_path = expand_as_path(self.as_path(), ALLOCATION, seed=1)
        assert router_path.hops_to_asn(self.as_path()[0]) == 1
        with pytest.raises(ValueError):
            router_path.hops_to_asn(999999)

    def test_router_count_bounds(self):
        router_path = expand_as_path(
            self.as_path(), ALLOCATION, seed=1, min_routers=2, max_routers=2
        )
        # first AS has 1 router, the remaining two have exactly 2 each
        assert router_path.hop_count == 1 + 2 + 2

    def test_bad_bounds_rejected(self):
        with pytest.raises(ValueError):
            expand_as_path(self.as_path(), ALLOCATION, min_routers=0)
        with pytest.raises(ValueError):
            expand_as_path(self.as_path(), ALLOCATION, min_routers=3, max_routers=2)
