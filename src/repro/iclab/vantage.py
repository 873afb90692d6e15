"""Vantage points.

ICLab's vantage points are mostly commercial-VPN egresses (which CAIDA
classifies as content ASes) plus a handful of volunteer Raspberry Pis in
access networks (§2.1, "Ethical considerations").  Selection mirrors that
mix and places at most one vantage point per AS, since the paper counts
*vantage ASes* (539 of them).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List

from repro.topology.asn import ASType
from repro.topology.graph import ASGraph
from repro.util.rng import DeterministicRNG


class VantageKind(enum.Enum):
    """How the vantage point is hosted."""

    VPN = "vpn"                # commercial VPN egress (content AS)
    RASPBERRY_PI = "rpi"       # volunteer device (access AS)


@dataclass(frozen=True)
class VantagePoint:
    """One measurement client."""

    vp_id: int
    asn: int
    country_code: str
    kind: VantageKind

    def __str__(self) -> str:
        return f"vp{self.vp_id}(AS{self.asn},{self.country_code})"


# Commercial VPN infrastructure clusters in hosting-heavy countries; the
# weight skews VPN vantage selection there, mirroring ICLab's footprint.
VPN_HUBS = ("US", "DE", "NL", "GB", "FR", "CA", "SE", "CH", "JP", "SG", "AU")
_HUB_WEIGHT = 6.0


def select_vantage_points(
    graph: ASGraph,
    count: int,
    seed: int = 0,
    vpn_fraction: float = 0.75,
) -> List[VantagePoint]:
    """Select up to ``count`` vantage points, one per AS.

    VPN vantage points come from content ASes with a strong bias toward
    hub countries (where commercial VPN providers actually operate);
    Raspberry Pis come from access ASes anywhere.  When either pool runs
    dry the other fills in.  Fewer than ``count`` are returned only when
    the topology has too few edge ASes.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    if not (0.0 <= vpn_fraction <= 1.0):
        raise ValueError("vpn_fraction must be in [0, 1]")
    rng = DeterministicRNG(seed, "vantage-points")
    content = [a for a in graph.registry.of_type(ASType.CONTENT)]
    access = [a for a in graph.registry.of_type(ASType.ACCESS)]
    content = _weighted_order(content, rng)
    rng.shuffle(access)
    want_vpn = round(count * vpn_fraction)
    chosen: List = []
    kinds: List[VantageKind] = []
    for as_obj in content[:want_vpn]:
        chosen.append(as_obj)
        kinds.append(VantageKind.VPN)
    for as_obj in access[: count - len(chosen)]:
        chosen.append(as_obj)
        kinds.append(VantageKind.RASPBERRY_PI)
    # Backfill from whichever pool still has ASes.
    leftovers = content[want_vpn:] + access[count - want_vpn :]
    for as_obj in leftovers:
        if len(chosen) >= count:
            break
        if as_obj in chosen:
            continue
        chosen.append(as_obj)
        kinds.append(
            VantageKind.VPN if as_obj.as_type is ASType.CONTENT else VantageKind.RASPBERRY_PI
        )
    return [
        VantagePoint(
            vp_id=index,
            asn=as_obj.asn,
            country_code=as_obj.country.code,
            kind=kind,
        )
        for index, (as_obj, kind) in enumerate(zip(chosen, kinds))
    ]


def _weighted_order(ases: List, rng: DeterministicRNG) -> List:
    """Order ASes by descending exponential rank under hub weights.

    Equivalent to weighted sampling without replacement (Efraimidis-
    Spirakis keys), so the prefix of any length is a weighted sample.
    """
    import math

    def key(as_obj) -> float:
        weight = _HUB_WEIGHT if as_obj.country.code in VPN_HUBS else 1.0
        return -math.log(max(rng.random(), 1e-12)) / weight

    return sorted(ases, key=key)


__all__ = ["VantagePoint", "VantageKind", "select_vantage_points", "VPN_HUBS"]
