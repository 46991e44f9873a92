"""One-dimensional ring (cycle) topology.

Not used by the paper's evaluation directly, but valuable for ablations: on a
ring the ball ``B_r(u)`` contains only ``2r + 1`` nodes (linear rather than
quadratic growth), which stresses the proximity-induced correlation far more
than the 2-D torus and makes the breakdown of the power of two choices visible
at much smaller scales.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import TopologyError
from repro.topology.base import Topology
from repro.topology.distance import ring_distance
from repro.types import IntArray

__all__ = ["Ring"]


class Ring(Topology):
    """Cycle of ``n`` servers; hop distance is the shorter arc length."""

    name = "ring"

    def __init__(self, n: int) -> None:
        super().__init__(n)

    @property
    def diameter(self) -> int:
        return self._n // 2

    def distances_between_unchecked(self, nodes_a: IntArray, nodes_b: IntArray) -> IntArray:
        """Shorter-arc distances of valid ids (int64)."""
        return ring_distance(nodes_a, nodes_b, self._n)

    def ball(self, node: int, radius: float) -> IntArray:
        self.validate_nodes(node)
        if radius < 0:
            raise TopologyError(f"radius must be non-negative, got {radius}")
        if np.isinf(radius) or radius >= self.diameter:
            return np.arange(self._n, dtype=np.int64)
        r = int(radius)
        offsets = np.arange(-r, r + 1, dtype=np.int64)
        return np.sort(np.unique((int(node) + offsets) % self._n))

    def ball_size(self, node: int, radius: float) -> int:
        if radius < 0:
            raise TopologyError(f"radius must be non-negative, got {radius}")
        if np.isinf(radius) or radius >= self.diameter:
            return self._n
        return min(self._n, 2 * int(radius) + 1)

    def neighbors(self, node: int) -> IntArray:
        self.validate_nodes(node)
        if self._n == 1:
            return np.array([], dtype=np.int64)
        if self._n == 2:
            return np.array([1 - int(node)], dtype=np.int64)
        return np.sort(
            np.array([(int(node) - 1) % self._n, (int(node) + 1) % self._n], dtype=np.int64)
        )

    def __repr__(self) -> str:
        return f"Ring(n={self._n})"
