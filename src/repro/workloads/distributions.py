"""Access distributions for workload generation.

All randomness flows through a caller-supplied :class:`random.Random` so
every workload is reproducible from its seed.
"""

from __future__ import annotations

import bisect
import random
from typing import List, Sequence


class UniformItems:
    """Uniform choice over a closed item universe."""

    def __init__(self, items: Sequence[str]) -> None:
        if not items:
            raise ValueError("item universe must be non-empty")
        self._items = list(items)

    def sample(self, rng: random.Random) -> str:
        return rng.choice(self._items)

    @property
    def items(self) -> List[str]:
        return list(self._items)


class ZipfItems:
    """Zipf-distributed choice: item ``i`` has weight ``1 / (i+1)^theta``.

    ``theta = 0`` degenerates to uniform; larger values concentrate
    accesses on a hot prefix — the standard skewed-contention knob.
    """

    def __init__(self, items: Sequence[str], theta: float = 0.8) -> None:
        if not items:
            raise ValueError("item universe must be non-empty")
        if theta < 0:
            raise ValueError("theta must be non-negative")
        self._items = list(items)
        self.theta = theta
        weights = [1.0 / (rank + 1) ** theta for rank in range(len(items))]
        self._cumulative: List[float] = []
        total = 0.0
        for weight in weights:
            total += weight
            self._cumulative.append(total)
        self._total = total

    def sample(self, rng: random.Random) -> str:
        point = rng.random() * self._total
        index = bisect.bisect_left(self._cumulative, point)
        index = min(index, len(self._items) - 1)
        return self._items[index]

    @property
    def items(self) -> List[str]:
        return list(self._items)


def make_items(count: int, prefix: str = "x") -> List[str]:
    """The standard item universe: ``x0 … x{count-1}``."""
    if count <= 0:
        raise ValueError("count must be positive")
    return [f"{prefix}{index}" for index in range(count)]
