"""The 2-D torus topology used throughout the paper.

Servers are arranged on a ``side x side`` square lattice with wrap-around
edges in both dimensions.  Node ``i`` sits at coordinates
``(i % side, i // side)``; the hop distance between two nodes is the wrapped
Manhattan distance, and the ball ``B_r(u)`` is the L1 ball around ``u`` which
contains ``2 r (r + 1) + 1`` nodes whenever ``2 r < side`` (the exact count
used in the paper's Lemma 1 and Theorem 2 proofs).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.exceptions import TopologyError
from repro.topology.base import Topology
from repro.topology.distance import torus_l1
from repro.topology.neighborhood import ball_size_torus
from repro.types import IntArray, index_type

__all__ = ["Torus2D"]


def _coordinate_type(side: int) -> type[np.signedinteger]:
    """``np.int16`` while ``side < 2**14``, else ``np.int32``.

    The wrapped L1 arithmetic on coordinates in ``[0, side)`` never leaves
    ``(-side, side]``, so int16 holds it with a factor-two margin.
    """
    return np.int16 if side < 2**14 else np.int32


@lru_cache(maxsize=None)
def _lattice_ball_offsets(radius: int) -> tuple[IntArray, IntArray, IntArray]:
    """Offsets ``(dx, dy)`` of the L1 lattice ball of integer ``radius``.

    Returns ``(dx, dy, norms)``: the ``2 r (r + 1) + 1`` offsets with
    ``|dx| + |dy| <= radius`` and their L1 norms, computed once per radius
    and shared read-only.
    """
    span = np.arange(-radius, radius + 1, dtype=np.int64)
    gx, gy = np.meshgrid(span, span, indexing="ij")
    inside = np.abs(gx) + np.abs(gy) <= radius
    dx, dy = gx[inside], gy[inside]
    norms = np.abs(dx) + np.abs(dy)
    for array in (dx, dy, norms):
        array.setflags(write=False)
    return dx, dy, norms


class Torus2D(Topology):
    """Square 2-D torus with 4-neighbour connectivity.

    Parameters
    ----------
    n:
        Total number of servers; must be a perfect square.  Alternatively use
        :meth:`from_side`.
    """

    name = "torus"

    def __init__(self, n: int) -> None:
        super().__init__(n)
        side = int(np.floor(np.sqrt(n) + 0.5))
        if side * side != n:
            raise TopologyError(f"torus size must be a perfect square, got n={n}")
        self._side = side
        # Coordinates in the narrowest exact type: distances and ball members
        # are computed in it and widened only where they leave the topology.
        coordinate = _coordinate_type(side)
        node_ids = np.arange(n, dtype=np.int64)
        self._x = (node_ids % side).astype(coordinate)
        self._y = (node_ids // side).astype(coordinate)

    # ------------------------------------------------------------ properties
    @classmethod
    def from_side(cls, side: int) -> "Torus2D":
        """Construct a ``side x side`` torus."""
        if side <= 0:
            raise TopologyError(f"side must be positive, got {side}")
        return cls(side * side)

    @property
    def side(self) -> int:
        """Lattice side length (``sqrt(n)``)."""
        return self._side

    @property
    def diameter(self) -> int:
        """The torus diameter is ``2 * floor(side / 2)``."""
        return 2 * (self._side // 2)

    # ------------------------------------------------------------ coordinates
    def coordinates(self, nodes: IntArray | int | None = None) -> tuple[IntArray, IntArray]:
        """Return ``(x, y)`` coordinates of ``nodes`` (all nodes if ``None``).

        A scalar node id yields scalar coordinates; an array yields int64
        arrays.
        """
        if nodes is None:
            return self._x.astype(np.int64), self._y.astype(np.int64)
        scalar = np.isscalar(nodes) or (isinstance(nodes, np.ndarray) and nodes.ndim == 0)
        validated = self.validate_nodes(nodes)
        if scalar:
            node = int(validated[0])
            return int(self._x[node]), int(self._y[node])
        return self._x[validated].astype(np.int64), self._y[validated].astype(np.int64)

    def node_at(self, x: int, y: int) -> int:
        """Node id of coordinates ``(x, y)`` (taken modulo ``side``)."""
        return int((y % self._side) * self._side + (x % self._side))

    # -------------------------------------------------------------- distances
    def distances_between_unchecked(self, nodes_a: IntArray, nodes_b: IntArray) -> IntArray:
        """Element-wise distances of valid ids in the coordinate type.

        int16 while ``side < 2**14``, int32 beyond (see
        :meth:`Topology.distances_between_unchecked`).
        """
        x, y = self._x, self._y
        xa, ya, xb, yb = x.take(nodes_a), y.take(nodes_a), x.take(nodes_b), y.take(nodes_b)
        return torus_l1(xa, ya, xb, yb, self._side)

    # ------------------------------------------------------------------ balls
    def ball_matrix(
        self, origins: IntArray, radius: float
    ) -> tuple[IntArray, IntArray] | None:
        """Every ``B_r(origins[i])`` as row ``i`` of one dense matrix.

        For a finite ``radius`` below the diameter with ``2 floor(r) < side``,
        ``(x + dx, y + dy)`` taken modulo ``side`` visits every node of
        ``B_r((x, y))`` exactly once, at hop distance ``|dx| + |dy|``, for
        the ``2 r (r + 1) + 1`` lattice offsets ``(dx, dy)`` of ``floor(r)``:
        column ``j`` of ``members`` applies offset ``j`` and ``dists[j]`` is
        its L1 norm.  ``members`` is int32 while ``n < 2**31`` (int64
        beyond); ``dists`` is int64.  Other radii return ``None``: the
        offsets overlap through the wrap-around, or the ball is the whole
        torus.
        """
        if radius < 0 or np.isinf(radius) or radius >= self.diameter:
            return None
        r = int(radius)
        if 2 * r >= self._side:
            return None
        dx, dy, norms = _lattice_ball_offsets(r)
        origins = self.validate_nodes(origins)
        side = self._side
        # Wrap each origin's 2r + 1 columns and rows once, then gather them
        # per offset: no modulo over every (origin, offset) pair.
        span = np.arange(-r, r + 1, dtype=index_type(self._n))
        wrapped_x = (self._x[origins][:, None] + span) % side
        wrapped_y = (self._y[origins][:, None] + span) % side * side
        return wrapped_y[:, dy + r] + wrapped_x[:, dx + r], norms

    def ball(self, node: int, radius: float) -> IntArray:
        """L1 ball around ``node``; overridden for speed on large tori.

        Instead of scanning all ``n`` nodes, enumerate the at most
        ``2r(r+1)+1`` lattice offsets directly (see :meth:`ball_matrix`)
        when the ball is small relative to the torus.
        """
        self.validate_nodes(node)
        if radius < 0:
            raise TopologyError(f"radius must be non-negative, got {radius}")
        if np.isinf(radius) or radius >= self.diameter:
            return np.arange(self._n, dtype=np.int64)
        ball = self.ball_matrix(np.array([node], dtype=np.int64), radius)
        if ball is None:
            # Wrap-around overlaps make direct offset enumeration double-count;
            # fall back to the generic distance scan.
            dist = self.distances_from(int(node))
            return np.flatnonzero(dist <= int(radius)).astype(np.int64)
        return np.sort(ball[0][0]).astype(np.int64)

    def ball_size(self, node: int, radius: float) -> int:
        """Closed-form ball size on the torus (identical for every node)."""
        if radius < 0:
            raise TopologyError(f"radius must be non-negative, got {radius}")
        if np.isinf(radius) or radius >= self.diameter:
            return self._n
        return ball_size_torus(int(radius), self._side)

    def neighbors(self, node: int) -> IntArray:
        """The four von Neumann neighbours (fewer for degenerate 1x1 / 2x2 tori)."""
        self.validate_nodes(node)
        x, y = int(self._x[node]), int(self._y[node])
        side = self._side
        candidates = {
            self.node_at(x + 1, y),
            self.node_at(x - 1, y),
            self.node_at(x, y + 1),
            self.node_at(x, y - 1),
        }
        candidates.discard(int(node))
        return np.array(sorted(candidates), dtype=np.int64)

    def __repr__(self) -> str:
        return f"Torus2D(side={self._side}, n={self._n})"
