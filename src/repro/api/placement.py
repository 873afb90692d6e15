"""Explicit shard placement: the versioned bucket-key → shard map.

Before this module, shard assignment was a bare ``crc32(pair) % shards``
frozen into every routing, restore, and recovery path of the sharded
backend — correct, but rigid: hot (URL, anomaly) pairs skew one worker,
and the shard count is fixed for a campaign's whole life.  A
:class:`PartitionMap` lifts placement into data:

- **Consistent-hash ring by default.**  Each shard owns ``vnodes``
  pseudo-random points on a 32-bit ring; a pair lands on the first point
  clockwise of its content hash.  Growing N → N+1 shards moves only the
  pairs whose nearest point changed (~1/(N+1) of them), unlike the
  modulo layout which reshuffles almost everything — the property that
  makes live rebalance cheap.
- **Load-measured overrides.**  A ``{pair: shard}`` override table sits
  above the ring, so an operator (or the autoscaler) can migrate one hot
  bucket without touching anything else.
- **Epochs.**  Every derived map bumps ``epoch``; the rebalance protocol
  (wire format 4) carries the epoch on every frame so a worker can never
  confuse two overlapping migrations, and ``/statusz`` can show which
  placement generation is live.

The pair hash (:func:`bucket_hash`) is the key's position on the ring;
the old static layout took it modulo the shard count.

Placement is pure data: the map never talks to workers.  The sharded
backend owns the migration (extract slices, transfer, commit) and the
:class:`Autoscaler` below decides *when* — watching the per-shard
ingest-lag/queue-depth signals behind the per-shard gauges and calling
``session.add_shard()`` / ``remove_shard()`` under min/max bounds and a
cooldown.
"""

from __future__ import annotations

import bisect
import time
import zlib
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Tuple,
)

# One (URL, anomaly value) routing key — all granularities co-locate.
Pair = Tuple[str, str]

# Ring points per shard.  64 keeps the max/min pair-count ratio tight
# (≲1.3 at a few hundred pairs) while ring construction stays trivial.
DEFAULT_VNODES = 64

PLACEMENT_FORMAT = 1


def bucket_hash(url: str, anomaly_value: str) -> int:
    """The stable 32-bit content hash of one (URL, anomaly) pair.

    The ring uses it as the key's position, so placement stays
    identical in every process and every run (never Python's randomized
    ``hash``).
    """
    return zlib.crc32(f"{anomaly_value}|{url}".encode("utf-8"))


class PartitionMap:
    """A versioned, immutable bucket-key → shard assignment.

    Derive new maps with :meth:`with_shards` / :meth:`with_overrides`
    (each bumps the epoch); equality of placement decisions between two
    maps is what the backend's rebalance diffs, via :meth:`moved_pairs`.
    """

    __slots__ = ("shards", "epoch", "overrides", "vnodes", "_points")

    def __init__(
        self,
        shards: int,
        epoch: int = 1,
        overrides: Optional[Dict[Pair, int]] = None,
        vnodes: int = DEFAULT_VNODES,
    ) -> None:
        if shards < 1:
            raise ValueError("a partition map needs at least one shard")
        if epoch < 1:
            raise ValueError("placement epochs start at 1")
        if vnodes < 1:
            raise ValueError("vnodes must be positive")
        self.shards = shards
        self.epoch = epoch
        self.vnodes = vnodes
        overrides = dict(overrides) if overrides else {}
        for pair, shard in overrides.items():
            if not 0 <= shard < shards:
                raise ValueError(
                    f"override {pair!r} → {shard} is outside shards "
                    f"0..{shards - 1}"
                )
        self.overrides = overrides
        # The ring: sorted (point, shard) with deterministic point
        # hashes.  Built once — maps are immutable.
        points: List[Tuple[int, int]] = []
        for shard in range(shards):
            for vnode in range(vnodes):
                point = zlib.crc32(f"shard:{shard}#{vnode}".encode())
                points.append((point, shard))
        points.sort()
        self._points = points

    # -- lookups -----------------------------------------------------------

    def shard_for(self, url: str, anomaly_value: str) -> int:
        """The worker owning every window of one (URL, anomaly) pair."""
        override = self.overrides.get((url, anomaly_value))
        if override is not None:
            return override
        return self._ring_shard(bucket_hash(url, anomaly_value))

    def _ring_shard(self, key_hash: int) -> int:
        points = self._points
        index = bisect.bisect_right(points, (key_hash, self.shards))
        if index == len(points):
            index = 0                   # wrap: past the last point
        return points[index][1]

    def assignments(self, pairs: Iterable[Pair]) -> Dict[Pair, int]:
        """Each pair's owner under this map."""
        return {pair: self.shard_for(*pair) for pair in pairs}

    def bucket_counts(self, pairs: Iterable[Pair]) -> List[int]:
        """How many of ``pairs`` each shard owns (index = shard)."""
        counts = [0] * self.shards
        for pair in pairs:
            counts[self.shard_for(*pair)] += 1
        return counts

    def moved_pairs(
        self, new_map: "PartitionMap", pairs: Iterable[Pair]
    ) -> Dict[Pair, Tuple[int, int]]:
        """Pairs whose owner changes under ``new_map``:
        ``{pair: (old shard, new shard)}`` — the migration's work list."""
        moved: Dict[Pair, Tuple[int, int]] = {}
        for pair in pairs:
            old = self.shard_for(*pair)
            new = new_map.shard_for(*pair)
            if old != new:
                moved[pair] = (old, new)
        return moved

    # -- derivation (epoch bumps) ------------------------------------------

    def with_shards(self, shards: int) -> "PartitionMap":
        """The same placement policy over a different worker count.

        Overrides that point at a removed shard are dropped (those pairs
        fall back to the ring); everything else is preserved.
        """
        overrides = {
            pair: shard
            for pair, shard in self.overrides.items()
            if shard < shards
        }
        return PartitionMap(
            shards,
            epoch=self.epoch + 1,
            overrides=overrides,
            vnodes=self.vnodes,
        )

    def with_overrides(
        self, overrides: Dict[Pair, int]
    ) -> "PartitionMap":
        """Merge explicit pair pinnings (hot-bucket migration).

        An override of ``None`` removes an existing pinning.
        """
        merged = dict(self.overrides)
        for pair, shard in overrides.items():
            if shard is None:
                merged.pop(pair, None)
            else:
                merged[pair] = shard
        return PartitionMap(
            self.shards,
            epoch=self.epoch + 1,
            overrides=merged,
            vnodes=self.vnodes,
        )

    # -- wire/JSON form ----------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        return {
            "format": PLACEMENT_FORMAT,
            "shards": self.shards,
            "epoch": self.epoch,
            "vnodes": self.vnodes,
            "overrides": [
                [url, anomaly, shard]
                for (url, anomaly), shard in sorted(self.overrides.items())
            ],
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "PartitionMap":
        if payload.get("format") != PLACEMENT_FORMAT:
            raise ValueError(
                f"unsupported placement format {payload.get('format')!r}"
            )
        return cls(
            payload["shards"],
            epoch=payload["epoch"],
            overrides={
                (url, anomaly): shard
                for url, anomaly, shard in payload.get("overrides", [])
            },
            vnodes=payload.get("vnodes", DEFAULT_VNODES),
        )

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, PartitionMap)
            and self.shards == other.shards
            and self.epoch == other.epoch
            and self.vnodes == other.vnodes
            and self.overrides == other.overrides
        )

    def __repr__(self) -> str:
        return (
            f"PartitionMap(shards={self.shards}, epoch={self.epoch}, "
            f"overrides={len(self.overrides)})"
        )


# -- autoscaling -------------------------------------------------------------


# The autoscaler's thresholds.  The signals are the ones behind the
# per-shard gauges: ingest lag (``repro_shard_ingest_lag_seconds`` — how
# far, in simulated-stream seconds, the slowest shard's acks trail its
# sends) and queue depth (``repro_shard_queue_depth`` — outstanding
# unanswered frames).
MIN_SHARDS = 1
SCALE_UP_LAG = 30.0         # simulated-stream seconds on any shard
SCALE_UP_QUEUE = 6          # outstanding frames on any shard
SCALE_DOWN_LAG = 1.0        # every shard at or below, with empty queues
CHECK_EVERY = 5.0           # wall seconds between evaluations
COOLDOWN = 30.0             # wall seconds between scale actions


@dataclass(frozen=True)
class AutoscalePolicy:
    """Whether to add or remove shards, and the fleet's upper bound.

    Scale up when any shard's lag reaches ``SCALE_UP_LAG`` or its queue
    ``SCALE_UP_QUEUE``; scale down when every shard is idle at or below
    ``SCALE_DOWN_LAG`` with an empty queue.  ``COOLDOWN`` spaces actions
    so one burst cannot thrash the fleet, and ``CHECK_EVERY`` bounds
    evaluation frequency (each check reads a handful of counters —
    cheap, but not free on a hot ingest loop).
    """

    enabled: bool = False
    max_shards: int = 8

    def __post_init__(self) -> None:
        if self.max_shards < MIN_SHARDS:
            raise ValueError(f"max_shards must be >= {MIN_SHARDS}")

    def to_dict(self) -> Dict[str, Any]:
        return {"enabled": self.enabled, "max_shards": self.max_shards}

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "AutoscalePolicy":
        return cls(**payload)


class Autoscaler:
    """Watches shard load and drives ``add_shard`` / ``remove_shard``.

    Poll-driven and synchronous on purpose: the owner (an ingest loop, a
    serve tenant's executor) calls :meth:`poll` wherever it already has
    the session to itself, so a rebalance can never race ingestion.
    ``signals`` defaults to the live backend's per-shard load readings —
    the same values its lag/queue gauges export — and is injectable for
    tests (and for scaling on externally scraped metrics).
    """

    def __init__(
        self,
        session,
        policy: AutoscalePolicy,
        signals: Optional[Callable[[], List[Dict[str, float]]]] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.session = session
        self.policy = policy
        self._signals = signals
        self._clock = clock
        self._last_check: Optional[float] = None
        self._last_action: Optional[float] = None
        self.actions: List[Tuple[str, int]] = []   # (direction, new count)

    def _load(self) -> List[Dict[str, float]]:
        if self._signals is not None:
            return self._signals()
        backend = self.session.backend
        shard_load = getattr(backend, "shard_load", None)
        return shard_load() if shard_load is not None else []

    def poll(self) -> Optional[str]:
        """Evaluate once; returns ``"up"``/``"down"`` on action, else None."""
        if not self.policy.enabled:
            return None
        now = self._clock()
        if (
            self._last_check is not None
            and now - self._last_check < CHECK_EVERY
        ):
            return None
        self._last_check = now
        if (
            self._last_action is not None
            and now - self._last_action < COOLDOWN
        ):
            return None
        load = self._load()
        if not load:
            return None
        # Trust the live backend for the shard count when it has one:
        # injected signals (an external scrape) can lag an action we
        # just took, and a stale count must not breach min/max_shards.
        shards = len(load)
        backend = getattr(self.session, "backend", None)
        live = getattr(backend, "shards", None)
        if live is not None:
            shards = live
        max_lag = max(entry.get("lag", 0.0) for entry in load)
        max_queue = max(entry.get("queue", 0) for entry in load)
        if shards < self.policy.max_shards and (
            max_lag >= SCALE_UP_LAG or max_queue >= SCALE_UP_QUEUE
        ):
            self.session.add_shard()
            self._last_action = now
            self.actions.append(("up", shards + 1))
            return "up"
        if (
            shards > MIN_SHARDS
            and max_lag <= SCALE_DOWN_LAG
            and max_queue == 0
        ):
            self.session.remove_shard()
            self._last_action = now
            self.actions.append(("down", shards - 1))
            return "down"
        return None


__all__ = [
    "CHECK_EVERY",
    "COOLDOWN",
    "DEFAULT_VNODES",
    "MIN_SHARDS",
    "PLACEMENT_FORMAT",
    "SCALE_DOWN_LAG",
    "SCALE_UP_LAG",
    "SCALE_UP_QUEUE",
    "Autoscaler",
    "AutoscalePolicy",
    "Pair",
    "PartitionMap",
    "bucket_hash",
]
