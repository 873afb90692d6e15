"""Per-AS IPv4 prefix allocation.

Every AS receives one to a few disjoint prefixes carved out of a synthetic
global address plan.  The plan hands out /20 blocks sequentially starting at
``16.0.0.0``, which keeps allocations disjoint by construction; tier-1 and
transit networks receive more and larger blocks than stubs, loosely matching
reality and giving traceroute hops plausible addresses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Tuple

from repro.topology.asn import ASType
from repro.topology.graph import ASGraph
from repro.util.ipv4 import Prefix, parse_ipv4
from repro.util.rng import DeterministicRNG

_PLAN_BASE = parse_ipv4("16.0.0.0")
_BLOCK_LENGTH = 20  # allocation granularity: /20 blocks

# How many /20 blocks each role receives (min, max).
_BLOCKS_BY_TYPE: Dict[ASType, Tuple[int, int]] = {
    ASType.TIER1: (3, 6),
    ASType.TRANSIT: (2, 4),
    ASType.ACCESS: (1, 3),
    ASType.CONTENT: (1, 3),
    ASType.ENTERPRISE: (1, 1),
}


@dataclass
class PrefixAllocation:
    """The address plan: which prefixes belong to which AS."""

    by_asn: Dict[int, List[Prefix]] = field(default_factory=dict)

    def prefixes_of(self, asn: int) -> List[Prefix]:
        """All prefixes allocated to ``asn`` (empty list if none)."""
        return self.by_asn.get(asn, [])

    def items(self) -> Iterator[Tuple[int, List[Prefix]]]:
        """Iterate ``(asn, prefixes)`` pairs."""
        return iter(self.by_asn.items())

    def owner_pairs(self) -> Iterator[Tuple[Prefix, int]]:
        """Iterate ``(prefix, owner_asn)`` pairs."""
        for asn, prefixes in self.by_asn.items():
            for prefix in prefixes:
                yield prefix, asn

    def router_address(self, asn: int, index: int = 1) -> int:
        """A deterministic router address inside the AS's first prefix.

        ``index`` distinguishes multiple routers of the same AS; it wraps
        within the prefix, skipping the network address.
        """
        prefixes = self.prefixes_of(asn)
        if not prefixes:
            raise KeyError(f"AS{asn} has no prefixes")
        prefix = prefixes[0]
        return prefix.host(1 + (index % (prefix.num_addresses - 2)))

    def host_address(self, asn: int, index: int = 0) -> int:
        """A deterministic host address inside the AS's last prefix."""
        prefixes = self.prefixes_of(asn)
        if not prefixes:
            raise KeyError(f"AS{asn} has no prefixes")
        prefix = prefixes[-1]
        return prefix.host(10 + (index % (prefix.num_addresses - 12)))


def allocate_prefixes(graph: ASGraph, seed: int = 0) -> PrefixAllocation:
    """Allocate disjoint prefixes to every AS in ``graph``.

    Deterministic in ``seed``: block counts are random per AS, but blocks
    are handed out sequentially so the allocation is disjoint regardless.
    """
    rng = DeterministicRNG(seed, "prefixes")
    allocation = PrefixAllocation()
    cursor = _PLAN_BASE
    step = 1 << (32 - _BLOCK_LENGTH)
    for as_obj in graph.registry:
        low, high = _BLOCKS_BY_TYPE[as_obj.as_type]
        count = rng.randint(low, high)
        prefixes = []
        for _ in range(count):
            prefixes.append(Prefix(cursor, _BLOCK_LENGTH))
            cursor += step
        allocation.by_asn[as_obj.asn] = prefixes
    return allocation


__all__ = ["PrefixAllocation", "allocate_prefixes"]
