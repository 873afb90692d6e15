"""Router-level expansion of AS paths.

Traceroute sees *router* hops, not ASes; the TTL arithmetic of the packet
simulator and the hop list of the traceroute simulator both need a
router-level view.  :func:`expand_as_path` deterministically expands an AS
path into per-AS router runs: each AS contributes one to a few routers, each
with an address drawn from one of the AS's prefixes.

Determinism matters: the same (pair, AS path) must expand identically every
time it is traced, otherwise path changes would be conjured out of thin air
and the churn measured by Figure 3 would be inflated.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import List, Sequence, Tuple

from repro.topology.prefixes import PrefixAllocation
from repro.util.rng import DeterministicRNG


@dataclass(frozen=True)
class RouterHop:
    """One router on the forwarding path."""

    asn: int
    address: int
    hop_index: int  # 0-based distance from the client's first-hop router


@dataclass(frozen=True)
class RouterPath:
    """The router-level forwarding path for one AS path."""

    as_path: Tuple[int, ...]
    hops: Tuple[RouterHop, ...]

    @cached_property
    def addresses(self) -> Tuple[int, ...]:
        """Every router's address in hop order: the one tuple each
        complete traceroute over this path shares."""
        return tuple(hop.address for hop in self.hops)

    @property
    def hop_count(self) -> int:
        """Total number of router hops."""
        return len(self.hops)

    def hops_to_asn(self, asn: int) -> int:
        """Router hops from the client to the *first* router of ``asn``.

        Raises ValueError when the AS is not on the path.
        """
        for hop in self.hops:
            if hop.asn == asn:
                return hop.hop_index + 1
        raise ValueError(f"AS{asn} is not on this path")


def expand_as_path(
    as_path: Sequence[int],
    allocation: PrefixAllocation,
    seed: int = 0,
    min_routers: int = 1,
    max_routers: int = 3,
) -> RouterPath:
    """Expand ``as_path`` into router hops, deterministically.

    The per-AS router count and addresses are a pure function of
    ``(seed, as_path)``, so repeated traceroutes over an unchanged route
    observe identical hops.
    """
    if min_routers < 1 or max_routers < min_routers:
        raise ValueError("need 1 <= min_routers <= max_routers")
    rng = DeterministicRNG(seed, "router-path", tuple(as_path))
    hops: List[RouterHop] = []
    index = 0
    for position, asn in enumerate(as_path):
        if position == 0:
            count = 1  # the client's own AS contributes its gateway only
        else:
            count = rng.randint(min_routers, max_routers)
        for router in range(count):
            address = allocation.router_address(asn, index=rng.randint(1, 2**16))
            hops.append(RouterHop(asn=asn, address=address, hop_index=index))
            index += 1
    return RouterPath(as_path=tuple(as_path), hops=tuple(hops))


__all__ = ["RouterHop", "RouterPath", "expand_as_path"]
