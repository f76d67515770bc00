"""Seeded, labelled random streams.

Every stochastic component of the reproduction (Bluetooth connect latency,
connection-fault draws, mobility waypoints, workload generators) pulls from
its own named stream derived from ``(master_seed, label)``.  Adding a new
consumer therefore never perturbs the draws seen by existing ones, which
keeps regression baselines stable.
"""

from __future__ import annotations

import hashlib
import random


def derive_seed(master_seed: int, label: str) -> int:
    """Derive a child seed from a master seed and a label, stably.

    Uses SHA-256 so the mapping is identical across platforms and Python
    versions (``hash()`` is salted per-process and unusable here).
    """
    digest = hashlib.sha256(f"{master_seed}:{label}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


class RandomStream:
    """A :class:`random.Random` wrapper with a stable derived seed."""

    def __init__(self, master_seed: int, label: str):
        self.master_seed = master_seed
        self.label = label
        self._random = random.Random(derive_seed(master_seed, label))

    # Thin pass-throughs: keep the consumed surface explicit and small.
    def random(self) -> float:
        """Uniform float in [0, 1)."""
        return self._random.random()

    def uniform(self, low: float, high: float) -> float:
        """Uniform float in [low, high]."""
        return self._random.uniform(low, high)

    def choice(self, sequence):
        """Uniformly chosen element."""
        return self._random.choice(sequence)

    def gauss(self, mean: float, sigma: float) -> float:
        """Normal variate."""
        return self._random.gauss(mean, sigma)

    def bernoulli(self, probability: float) -> bool:
        """True with the given probability."""
        if not 0.0 <= probability <= 1.0:
            raise ValueError(f"probability out of range: {probability}")
        return self._random.random() < probability

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<RandomStream {self.label!r} seed={self.master_seed}>"
