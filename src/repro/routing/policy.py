"""Gao-Rexford routing policy: valley-freedom and tie-breaks.

Business relationships induce the classic export rule: an AS announces
customer routes to everybody, but announces peer- and provider-learned
routes *only to customers*.  The induced path shape is "valley-free":
a (possibly empty) uphill segment of customer→provider hops, at most one
peer hop, then a (possibly empty) downhill segment of provider→customer
hops.  Route selection prefers customer routes over peer routes over
provider routes, then shorter AS paths, then a deterministic tie-break.
"""

from __future__ import annotations

import hashlib
from typing import List, Optional, Sequence

from repro.topology.graph import ASGraph


def edge_kind(graph: ASGraph, frm: int, to: int) -> Optional[str]:
    """The directed kind of hop ``frm -> to``.

    Returns ``"up"`` (customer to provider), ``"down"`` (provider to
    customer), ``"peer"``, or None when the ASes are not adjacent.
    """
    if to in graph.providers_of(frm):
        return "up"
    if to in graph.customers_of(frm):
        return "down"
    if to in graph.peers_of(frm):
        return "peer"
    return None


def route_class_sequence(graph: ASGraph, path: Sequence[int]) -> List[str]:
    """The hop-kind sequence of an AS path.

    Raises ValueError when consecutive ASes are not adjacent.
    """
    kinds: List[str] = []
    for frm, to in zip(path, path[1:]):
        kind = edge_kind(graph, frm, to)
        if kind is None:
            raise ValueError(f"AS{frm} and AS{to} are not adjacent")
        kinds.append(kind)
    return kinds


def is_valley_free(graph: ASGraph, path: Sequence[int]) -> bool:
    """Whether ``path`` obeys the valley-free property.

    The automaton accepts ``up* peer? down*``.

    >>> # single-AS and adjacent two-AS paths are always valley-free
    """
    if len(path) <= 1:
        return True
    if len(set(path)) != len(path):
        return False  # loops are never exported by sane BGP speakers
    try:
        kinds = route_class_sequence(graph, path)
    except ValueError:
        return False
    state = "up"  # accepting states progress up -> peer -> down
    for kind in kinds:
        if state == "up":
            if kind == "up":
                continue
            state = "down" if kind == "down" else "peer_done"
        elif state == "peer_done":
            if kind != "down":
                return False
            state = "down"
        else:  # down
            if kind != "down":
                return False
    return True


def tie_break_rank(asn: int, neighbor: int, salt: int) -> int:
    """Deterministic pseudo-random rank for equal-preference candidates.

    Models the ad-hoc tie-breaks of real BGP (IGP cost, router IDs, hot
    potato) as a stable hash of (deciding AS, next hop, salt).  Churn flips
    tie-breaks by changing the salt, which is how the simulator produces
    path changes without failing links.
    """
    digest = hashlib.blake2b(
        f"{asn}|{neighbor}|{salt}".encode("ascii"), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big")


__all__ = [
    "edge_kind",
    "route_class_sequence",
    "is_valley_free",
    "tie_break_rank",
]
