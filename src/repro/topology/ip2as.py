"""Longest-prefix-match IP-to-AS mapping with historical epochs.

The paper converts IP-level traceroutes to AS-level paths using *historical*
CAIDA IP-to-AS data (§3.1) and explicitly discards measurements where the
mapping fails.  This module reproduces both the mechanism and its failure
modes:

- :class:`PrefixTable` — a longest-prefix-match table from prefixes to ASNs,
- :class:`IpToAsEpoch` — the table that was current during a time interval,
- :class:`IpToAsDatabase` — a sequence of epochs; lookups are performed
  against the epoch containing the measurement timestamp.

Staleness is injected deliberately: when building the database from a
ground-truth allocation, a configurable fraction of prefixes is omitted
(unmappable hops) and a fraction is attributed to a *sibling* AS — the kind
of noise real IP-to-AS data exhibits and that produces the paper's
"inconclusive path" discards.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.topology.prefixes import PrefixAllocation
from repro.util.ipv4 import Prefix, mask_of
from repro.util.rng import DeterministicRNG


class PrefixTable:
    """A longest-prefix-match table mapping prefixes to owner ASNs."""

    def __init__(self) -> None:
        self._by_length: Dict[int, Dict[int, int]] = {}
        self._lengths_desc: List[int] = []

    def insert(self, prefix: Prefix, asn: int) -> None:
        """Map ``prefix`` to ``asn`` (later insert for same prefix wins)."""
        table = self._by_length.get(prefix.length)
        if table is None:
            table = self._by_length[prefix.length] = {}
            self._lengths_desc = sorted(self._by_length, reverse=True)
        table[prefix.network] = asn

    def lookup(self, address: int) -> Optional[int]:
        """The owner of the longest prefix covering ``address``, or None."""
        for length in self._lengths_desc:
            network = address & mask_of(length)
            asn = self._by_length[length].get(network)
            if asn is not None:
                return asn
        return None

    def __len__(self) -> int:
        return sum(len(t) for t in self._by_length.values())

    def entries(self) -> List[Tuple[Prefix, int]]:
        """All ``(prefix, asn)`` entries, longest prefixes first."""
        out: List[Tuple[Prefix, int]] = []
        for length in self._lengths_desc:
            for network, asn in self._by_length[length].items():
                out.append((Prefix(network, length), asn))
        return out


@dataclass
class IpToAsEpoch:
    """A prefix table valid over the half-open interval [start, end)."""

    start: int
    end: int
    table: PrefixTable = field(default_factory=PrefixTable)

    def __post_init__(self) -> None:
        if self.end <= self.start:
            raise ValueError("epoch interval is empty")


class _EpochMap(dict):
    """One epoch's memoized ``address -> Optional[ASN]`` map.

    Pre-seeded with ``{None: None}`` so a silent hop maps to ``None``
    like an unmappable one; a missing address runs the longest-prefix
    lookup once through :meth:`__missing__`.  A run's hops therefore map
    with ``map(epoch_map.__getitem__, addresses)``, a C-level loop for
    every address already seen.
    """

    __slots__ = ("_table_lookup",)

    def __init__(self, table: PrefixTable) -> None:
        super().__init__({None: None})
        self._table_lookup = table.lookup

    def __missing__(self, address: int) -> Optional[int]:
        asn = self[address] = self._table_lookup(address)
        return asn


class IpToAsDatabase:
    """Historical IP-to-AS data: consecutive epochs, queried by timestamp.

    Lookups are memoized per ``(epoch, address)``: traceroute conversion
    resolves the same router addresses tens of thousands of times per
    campaign, while the set of distinct addresses is small.  The epochs are
    immutable after construction, so the memo can never go stale.
    """

    def __init__(self, epochs: Sequence[IpToAsEpoch]) -> None:
        if not epochs:
            raise ValueError("need at least one epoch")
        ordered = sorted(epochs, key=lambda e: e.start)
        for previous, current in zip(ordered, ordered[1:]):
            if current.start < previous.end:
                raise ValueError("epochs overlap")
        self._epochs = list(ordered)
        self._starts = [epoch.start for epoch in self._epochs]
        self._maps = [_EpochMap(epoch.table) for epoch in self._epochs]

    def epoch_index_at(self, timestamp: int) -> int:
        """The ordinal of the epoch covering ``timestamp`` (clamped).

        A stable cache key for callers memoizing per-epoch derived data.
        """
        # bisect_right is at most len(starts), so only the low end clamps.
        index = bisect.bisect_right(self._starts, timestamp) - 1
        return index if index > 0 else 0

    def epoch_at(self, timestamp: int) -> IpToAsEpoch:
        """The epoch covering ``timestamp``.

        Timestamps before the first epoch use the first table and after the
        last use the last — mirroring how researchers extrapolate from the
        nearest snapshot.
        """
        return self._epochs[self.epoch_index_at(timestamp)]

    def epoch_map(self, index: int) -> Dict[Optional[int], Optional[int]]:
        """The memoized address map of epoch ``index``
        (see :meth:`epoch_index_at`).

        Indexing it with an address (or ``None``, a silent hop) yields
        the ASN or ``None``.  Callers must only read it.
        """
        return self._maps[index]

    def lookup(self, address: int, timestamp: int) -> Optional[int]:
        """Map ``address`` to an ASN using the epoch at ``timestamp``."""
        return self._maps[self.epoch_index_at(timestamp)][address]


def build_ip2as_database(
    allocation: PrefixAllocation,
    start: int,
    end: int,
    epoch_length: int,
    missing_fraction: float = 0.02,
    misattributed_fraction: float = 0.01,
    seed: int = 0,
) -> IpToAsDatabase:
    """Derive a noisy historical database from the ground-truth allocation.

    Per epoch, each prefix is independently omitted with
    ``missing_fraction`` (the hop will be unmappable) or attributed to a
    different AS with ``misattributed_fraction`` (the AS path will disagree
    across the three traceroutes or look inconsistent).  The remaining
    entries are exact.
    """
    if end <= start:
        raise ValueError("database interval is empty")
    if epoch_length <= 0:
        raise ValueError("epoch_length must be positive")
    rng = DeterministicRNG(seed, "ip2as")
    all_asns = [asn for asn, _ in allocation.items()]
    epochs: List[IpToAsEpoch] = []
    cursor = start
    while cursor < end:
        epoch = IpToAsEpoch(cursor, min(end, cursor + epoch_length))
        for prefix, owner in allocation.owner_pairs():
            roll = rng.random()
            if roll < missing_fraction:
                continue
            if roll < missing_fraction + misattributed_fraction and len(all_asns) > 1:
                wrong = owner
                while wrong == owner:
                    wrong = rng.pick(all_asns)
                epoch.table.insert(prefix, wrong)
            else:
                epoch.table.insert(prefix, owner)
        epochs.append(epoch)
        cursor += epoch_length
    return IpToAsDatabase(epochs)


__all__ = [
    "PrefixTable",
    "IpToAsEpoch",
    "IpToAsDatabase",
    "build_ip2as_database",
]
