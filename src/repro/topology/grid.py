"""Bounded 2-D grid topology (no wrap-around).

The paper states its results for the torus to avoid boundary effects but notes
that all asymptotics carry over to the bounded grid.  This class lets the
simulator quantify exactly how large those boundary effects are at finite
sizes (used by the ablation benchmarks).
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import TopologyError
from repro.topology.base import Topology
from repro.topology.distance import grid_l1
from repro.types import IntArray

__all__ = ["Grid2D"]


class Grid2D(Topology):
    """Square bounded grid with 4-neighbour connectivity.

    Node ``i`` sits at ``(i % side, i // side)``; distances are plain Manhattan
    distances.
    """

    name = "grid"

    def __init__(self, n: int) -> None:
        super().__init__(n)
        side = int(np.floor(np.sqrt(n) + 0.5))
        if side * side != n:
            raise TopologyError(f"grid size must be a perfect square, got n={n}")
        self._side = side
        node_ids = np.arange(n, dtype=np.int64)
        self._x = node_ids % side
        self._y = node_ids // side

    @classmethod
    def from_side(cls, side: int) -> "Grid2D":
        """Construct a ``side x side`` bounded grid."""
        if side <= 0:
            raise TopologyError(f"side must be positive, got {side}")
        return cls(side * side)

    @property
    def side(self) -> int:
        """Lattice side length (``sqrt(n)``)."""
        return self._side

    @property
    def diameter(self) -> int:
        """Corner-to-corner Manhattan distance ``2 (side - 1)``."""
        return 2 * (self._side - 1)

    def coordinates(self, nodes: IntArray | int | None = None) -> tuple[IntArray, IntArray]:
        """Return ``(x, y)`` coordinates of ``nodes`` (all nodes if ``None``).

        A scalar node id yields scalar coordinates; an array yields arrays.
        """
        if nodes is None:
            return self._x, self._y
        scalar = np.isscalar(nodes) or (isinstance(nodes, np.ndarray) and nodes.ndim == 0)
        validated = self.validate_nodes(nodes)
        if scalar:
            node = int(validated[0])
            return int(self._x[node]), int(self._y[node])
        return self._x[validated], self._y[validated]

    def node_at(self, x: int, y: int) -> int:
        """Node id at coordinates ``(x, y)``."""
        if not (0 <= x < self._side and 0 <= y < self._side):
            raise TopologyError(f"coordinates ({x}, {y}) outside the {self._side}x{self._side} grid")
        return int(y * self._side + x)

    def distances_between_unchecked(self, nodes_a: IntArray, nodes_b: IntArray) -> IntArray:
        """Manhattan distances of valid ids (int64)."""
        x, y = self._x, self._y
        return grid_l1(x.take(nodes_a), y.take(nodes_a), x.take(nodes_b), y.take(nodes_b))

    def neighbors(self, node: int) -> IntArray:
        self.validate_nodes(node)
        x, y = int(self._x[node]), int(self._y[node])
        out: list[int] = []
        if x + 1 < self._side:
            out.append(self.node_at(x + 1, y))
        if x - 1 >= 0:
            out.append(self.node_at(x - 1, y))
        if y + 1 < self._side:
            out.append(self.node_at(x, y + 1))
        if y - 1 >= 0:
            out.append(self.node_at(x, y - 1))
        return np.array(sorted(out), dtype=np.int64)

    def __repr__(self) -> str:
        return f"Grid2D(side={self._side}, n={self._n})"
