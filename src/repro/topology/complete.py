"""Complete-graph topology: every pair of distinct servers at distance one.

This is the "no proximity structure" reference network.  Running Strategy II
on it with ``r >= 1`` reproduces the classical unstructured two-choice process
restricted only by the cache contents, which isolates the memory-limitation
source of correlation from the proximity source (Examples 1–3 in the paper).
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import TopologyError
from repro.topology.base import Topology
from repro.types import IntArray

__all__ = ["CompleteTopology"]


class CompleteTopology(Topology):
    """Complete graph on ``n`` servers; ``d(u, v) = 1`` for all ``u != v``."""

    name = "complete"

    def __init__(self, n: int) -> None:
        super().__init__(n)

    @property
    def diameter(self) -> int:
        return 0 if self._n == 1 else 1

    def distances_between_unchecked(self, nodes_a: IntArray, nodes_b: IntArray) -> IntArray:
        """1 between distinct valid ids, 0 from a node to itself (int64)."""
        return np.not_equal(nodes_a, nodes_b).astype(np.int64)

    def ball(self, node: int, radius: float) -> IntArray:
        self.validate_nodes(node)
        if radius < 0:
            raise TopologyError(f"radius must be non-negative, got {radius}")
        if radius >= 1:
            return np.arange(self._n, dtype=np.int64)
        return np.array([int(node)], dtype=np.int64)

    def ball_size(self, node: int, radius: float) -> int:
        if radius < 0:
            raise TopologyError(f"radius must be non-negative, got {radius}")
        return self._n if radius >= 1 else 1

    def neighbors(self, node: int) -> IntArray:
        self.validate_nodes(node)
        all_nodes = np.arange(self._n, dtype=np.int64)
        return all_nodes[all_nodes != int(node)]

    def __repr__(self) -> str:
        return f"CompleteTopology(n={self._n})"
