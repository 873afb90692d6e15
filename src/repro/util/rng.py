"""Deterministic randomness for reproducible simulations.

Every stochastic component (topology generation, churn events, traceroute
loss, detector noise, ...) draws from a :class:`DeterministicRNG` seeded by a
stable hash of the scenario seed plus a component label.  This keeps results
byte-identical across runs while letting components evolve independently:
adding randomness to one component does not shift the stream of another.
"""

from __future__ import annotations

import hashlib
import random
from typing import Iterable, Sequence, TypeVar

T = TypeVar("T")


def derive_seed(base_seed: int, *labels: object) -> int:
    """Derive a stable 64-bit sub-seed from ``base_seed`` and labels.

    Uses SHA-256 rather than ``hash()`` because the latter is salted per
    process for strings.

    >>> derive_seed(1, "churn") == derive_seed(1, "churn")
    True
    >>> derive_seed(1, "churn") != derive_seed(1, "topology")
    True
    """
    digest = hashlib.sha256()
    digest.update(str(base_seed).encode("utf-8"))
    for label in labels:
        digest.update(b"\x1f")
        digest.update(str(label).encode("utf-8"))
    return int.from_bytes(digest.digest()[:8], "big")


class DeterministicRNG(random.Random):
    """A :class:`random.Random` with a few simulation-friendly helpers."""

    def __init__(self, base_seed: int, *labels: object) -> None:
        super().__init__(derive_seed(base_seed, *labels))

    def chance(self, probability: float) -> bool:
        """Return True with the given probability.

        Probabilities outside [0, 1] are clamped, so callers can express
        "always"/"never" with 1.0/0.0 without edge-case handling.
        """
        if probability <= 0.0:
            return False
        if probability >= 1.0:
            return True
        return self.random() < probability

    def pick(self, items: Sequence[T]) -> T:
        """Uniformly pick one item from a non-empty sequence."""
        if not items:
            raise ValueError("cannot pick from an empty sequence")
        return items[self.randrange(len(items))]

    def pick_weighted(self, items: Sequence[T], weights: Sequence[float]) -> T:
        """Pick one item with the given (unnormalized) weights."""
        if not items:
            raise ValueError("cannot pick from an empty sequence")
        if len(items) != len(weights):
            raise ValueError("items and weights must have equal length")
        return self.choices(items, weights=weights, k=1)[0]

    def subset(self, items: Iterable[T], probability: float) -> list[T]:
        """Return the sub-list of items each kept with ``probability``."""
        return [item for item in items if self.chance(probability)]

    def sample_at_most(self, items: Sequence[T], k: int) -> list[T]:
        """Sample ``min(k, len(items))`` items without replacement."""
        if k <= 0:
            return []
        return self.sample(list(items), min(k, len(items)))

    def exponential_jitter(self, mean: float, floor: float = 0.0) -> float:
        """An exponential deviate with the given mean, clamped below."""
        return max(floor, self.expovariate(1.0 / mean) if mean > 0 else floor)

    def fork(self, *labels: object) -> "DeterministicRNG":
        """Create an independent child stream labelled by ``labels``."""
        child = DeterministicRNG.__new__(DeterministicRNG)
        random.Random.__init__(child, derive_seed(self.randrange(2**63), *labels))
        return child


__all__ = ["DeterministicRNG", "derive_seed"]
