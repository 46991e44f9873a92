"""Abstract topology interface.

A :class:`Topology` describes the server network: how many servers exist, the
hop distance between any two of them, and the ball ``B_r(u)`` of servers
within distance ``r`` of a server ``u``.  Assignment strategies only interact
with topologies through this interface, so adding a new network shape (e.g. a
3-D torus or a random geometric graph) requires implementing its diameter and
one broadcasting distance method.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Iterable

import numpy as np

from repro.exceptions import TopologyError
from repro.types import IntArray

__all__ = ["Topology"]


class Topology(ABC):
    """Base class for server-network topologies.

    A topology implements :attr:`diameter` and one metric method,
    :meth:`distances_between_unchecked`: the hop distance ``d(u, v)``
    broadcast over arrays of valid node ids.  Everything else is derived
    from it here: the validated int64 queries :meth:`distances_from`,
    :meth:`pairwise_distances`, :meth:`distances_between` and
    :meth:`distance`, and the generic :meth:`ball`, :meth:`ball_size`,
    :meth:`neighbors` and :meth:`to_networkx`.  Subclasses override the ball
    and neighbour queries where their shape gives a closed form (the
    torus's lattice balls, a ring's arcs), never the distance queries.
    """

    #: Short machine-readable topology name (set by subclasses).
    name: str = "abstract"

    def __init__(self, n: int) -> None:
        if n <= 0:
            raise TopologyError(f"number of nodes must be positive, got {n}")
        self._n = int(n)

    # ------------------------------------------------------------------ core
    @property
    def n(self) -> int:
        """Number of servers in the network."""
        return self._n

    @property
    @abstractmethod
    def diameter(self) -> int:
        """Maximum hop distance between any two servers."""

    @abstractmethod
    def distances_between_unchecked(self, nodes_a: IntArray, nodes_b: IntArray) -> IntArray:
        """Hop distances ``d(a, b)`` of node ids the caller has already checked.

        The topology's one metric method.  ``nodes_a`` and ``nodes_b`` are
        integer arrays of valid node ids that broadcast against each other;
        the result has their broadcast shape and may come in any integer
        type that holds every distance exactly.  The validated queries below
        call it, and so does the group index's replica scan, which checks
        its ids once and then asks chunk by chunk.
        """

    # ----------------------------------------------------------- conveniences
    def validate_nodes(self, nodes: IntArray | Iterable[int] | int) -> IntArray:
        """Coerce ``nodes`` to an int array and check all ids are in range."""
        arr = np.array(nodes, dtype=np.int64, copy=None, ndmin=1)
        # One reduction checks both ends: a negative id reads as >= 2**63.
        if arr.size and arr.view(np.uint64).max() >= self._n:
            raise TopologyError(
                f"node ids must be in [0, {self._n}), got range "
                f"[{arr.min()}, {arr.max()}]"
            )
        return arr

    def distance(self, u: int, v: int) -> int:
        """Hop distance between two individual servers.

        Kept as a targeted single-pair query — it must never materialise a
        full distance row (scalar pair loops in the analysis code rely on it
        staying O(1) for lattice topologies).
        """
        pair = self.validate_nodes([u, v])
        return int(self.distances_between_unchecked(pair[:1], pair[1:])[0])

    # ------------------------------------------------------------ batched API
    def distances_from(self, node: int, targets: IntArray | None = None) -> IntArray:
        """Hop distances from ``node`` to ``targets`` (all nodes if ``None``), int64.

        ``node`` is one id: an array of several origins raises
        :class:`~repro.exceptions.TopologyError` rather than broadcasting
        against ``targets``.
        """
        if np.ndim(node) != 0:
            raise TopologyError(
                f"distances_from takes one origin node, got shape {np.shape(node)}"
            )
        origin = self.validate_nodes(node)
        if targets is None:
            targets = np.arange(self._n, dtype=np.int64)
        else:
            targets = self.validate_nodes(targets)
        return self.distances_between_unchecked(origin, targets).astype(np.int64, copy=False)

    def pairwise_distances(self, nodes_a: IntArray, nodes_b: IntArray) -> IntArray:
        """``len(nodes_a) x len(nodes_b)`` int64 matrix of hop distances."""
        nodes_a = self.validate_nodes(nodes_a).reshape(-1, 1)
        nodes_b = self.validate_nodes(nodes_b).reshape(1, -1)
        return self.distances_between_unchecked(nodes_a, nodes_b).astype(np.int64, copy=False)

    def distances_between(self, nodes_a: IntArray, nodes_b: IntArray) -> IntArray:
        """Element-wise int64 distances ``d(a_i, b_i)`` for two equal-length arrays."""
        nodes_a = self.validate_nodes(nodes_a)
        nodes_b = self.validate_nodes(nodes_b)
        if nodes_a.shape != nodes_b.shape:
            raise TopologyError(
                f"distances_between requires equal-length arrays, got "
                f"{nodes_a.shape} vs {nodes_b.shape}"
            )
        return self.distances_between_unchecked(nodes_a, nodes_b).astype(np.int64, copy=False)

    def ball_matrix(
        self, origins: IntArray, radius: float
    ) -> tuple[IntArray, IntArray] | None:
        """``B_r`` of every origin as one dense matrix, where that is exact.

        Returns ``(members, dists)`` when every ball has the same shape:
        ``members[i]`` lists each node of ``B_r(origins[i])`` once (unsorted)
        and ``dists[j]`` is the hop distance of column ``j`` from its row's
        origin.  Since ``dists`` does not depend on the origins, an empty
        ``origins`` yields ``|B_r|`` up front.  The generic topology has no
        such shape and returns ``None``; :class:`~repro.topology.torus.
        Torus2D` overrides this.
        """
        return None

    def ball(self, node: int, radius: float) -> IntArray:
        """Return ``B_r(node)``: ids of all servers within ``radius`` hops.

        ``radius`` may be ``numpy.inf`` to denote the whole network; the
        returned array always includes ``node`` itself and is sorted.
        """
        self.validate_nodes(node)
        if radius < 0:
            raise TopologyError(f"radius must be non-negative, got {radius}")
        if np.isinf(radius) or radius >= self.diameter:
            return np.arange(self._n, dtype=np.int64)
        dist = self.distances_from(int(node))
        return np.flatnonzero(dist <= radius).astype(np.int64)

    def ball_size(self, node: int, radius: float) -> int:
        """Number of servers in ``B_r(node)`` (including ``node``)."""
        return int(self.ball(node, radius).size)

    def neighbors(self, node: int) -> IntArray:
        """Servers at hop distance exactly one from ``node``."""
        self.validate_nodes(node)
        dist = self.distances_from(int(node))
        return np.flatnonzero(dist == 1).astype(np.int64)

    def degree(self, node: int) -> int:
        """Number of direct neighbours of ``node``."""
        return int(self.neighbors(node).size)

    def to_networkx(self):
        """Materialise the topology as a :class:`networkx.Graph`.

        Only intended for small networks (tests, visualisation, analysis); the
        simulation engine never builds an explicit graph.
        """
        import networkx as nx

        graph = nx.Graph()
        graph.add_nodes_from(range(self._n))
        for u in range(self._n):
            for v in self.neighbors(u):
                if u < int(v):
                    graph.add_edge(u, int(v))
        return graph

    # -------------------------------------------------------------- plumbing
    def __len__(self) -> int:
        return self._n

    def __repr__(self) -> str:
        return f"{type(self).__name__}(n={self._n})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Topology):
            return NotImplemented
        return type(self) is type(other) and self._n == other._n

    def __hash__(self) -> int:
        return hash((type(self).__name__, self._n))
