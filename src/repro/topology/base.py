"""Abstract topology interface.

A :class:`Topology` describes the server network: how many servers exist, the
hop distance between any two of them, and the ball ``B_r(u)`` of servers
within distance ``r`` of a server ``u``.  Assignment strategies only interact
with topologies through this interface, so adding a new network shape (e.g. a
3-D torus or a random geometric graph) requires implementing a handful of
vectorised methods.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections import OrderedDict
from typing import Iterable

import numpy as np

from repro.exceptions import TopologyError
from repro.types import IntArray

__all__ = ["Topology"]

#: Byte budget of the per-topology LRU distance-row cache.  The row count is
#: derived from it (each row is ``n`` int64s), so small topologies cache
#: generously while a million-node network keeps only a handful of rows.
DEFAULT_ROW_CACHE_BYTES = 32 << 20

#: Never cache more rows than this, however small the topology.
MAX_ROW_CACHE_ROWS = 256


class Topology(ABC):
    """Base class for server-network topologies.

    Subclasses must provide vectorised distance computation (``distances_from``
    and ``pairwise_distances``), which is the only performance-critical part of
    the interface; generic implementations of ``ball``, ``neighbors`` and
    ``to_networkx`` are provided in terms of it.
    """

    #: Short machine-readable topology name (set by subclasses).
    name: str = "abstract"

    def __init__(self, n: int) -> None:
        if n <= 0:
            raise TopologyError(f"number of nodes must be positive, got {n}")
        self._n = int(n)
        self._row_cache: OrderedDict[int, IntArray] = OrderedDict()
        self._row_cache_size = max(
            1, min(MAX_ROW_CACHE_ROWS, DEFAULT_ROW_CACHE_BYTES // (8 * self._n))
        )

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
    def distances_from(self, node: int, targets: IntArray | None = None) -> IntArray:
        """Hop distances from ``node`` to ``targets`` (all nodes if ``None``)."""

    @abstractmethod
    def pairwise_distances(self, nodes_a: IntArray, nodes_b: IntArray) -> IntArray:
        """``len(nodes_a) x len(nodes_b)`` matrix of hop distances."""

    # ----------------------------------------------------------- conveniences
    def validate_nodes(self, nodes: IntArray | Iterable[int] | int) -> IntArray:
        """Coerce ``nodes`` to an int array and check all ids are in range."""
        arr = np.atleast_1d(np.asarray(nodes, dtype=np.int64))
        if arr.size and (arr.min() < 0 or arr.max() >= self._n):
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
        self.validate_nodes([u, v])
        return int(self.distances_from(int(u), np.asarray([v], dtype=np.int64))[0])

    # ------------------------------------------------------------ batched API
    def _check_equal_shapes(self, nodes_a: IntArray, nodes_b: IntArray) -> None:
        """Shared validation for the element-wise distance API."""
        if nodes_a.shape != nodes_b.shape:
            raise TopologyError(
                f"distances_between requires equal-length arrays, got "
                f"{nodes_a.shape} vs {nodes_b.shape}"
            )

    def distance_row(self, node: int) -> IntArray:
        """Full distance row ``d(node, ·)`` of length ``n``, LRU-cached.

        Repeated scalar queries (``ball``, ``neighbors``, fallback radius
        expansion) hit the same few rows over and over; the cache keeps the
        ``_row_cache_size`` most recently used rows as read-only arrays.
        """
        key = int(node)
        cached = self._row_cache.get(key)
        if cached is not None:
            self._row_cache.move_to_end(key)
            return cached
        self.validate_nodes(key)
        row = np.asarray(self.distances_from(key), dtype=np.int64)
        row.setflags(write=False)
        self._row_cache[key] = row
        if len(self._row_cache) > self._row_cache_size:
            self._row_cache.popitem(last=False)
        return row

    def distances_from_many(
        self, nodes: IntArray, targets: IntArray | None = None
    ) -> IntArray:
        """Stacked distance rows: ``(len(nodes), len(targets))`` in one call.

        ``targets = None`` means all servers.  The batched counterpart of
        :meth:`distances_from` for analysis and bulk-query callers; the
        batched kernels' group index goes through :meth:`pairwise_distances`
        directly with explicit replica targets.
        """
        nodes = self.validate_nodes(nodes)
        if targets is None:
            targets = np.arange(self._n, dtype=np.int64)
        else:
            targets = self.validate_nodes(targets)
        return self.pairwise_distances(nodes, targets)

    def distances_between(self, nodes_a: IntArray, nodes_b: IntArray) -> IntArray:
        """Element-wise distances ``d(a_i, b_i)`` for two equal-length arrays.

        The generic implementation chunks ``nodes_a`` and deduplicates sources
        within each chunk so memory stays bounded by ``chunk x chunk``; lattice
        topologies override this with closed-form coordinate arithmetic.
        """
        nodes_a = self.validate_nodes(nodes_a)
        nodes_b = self.validate_nodes(nodes_b)
        self._check_equal_shapes(nodes_a, nodes_b)
        out = np.empty(nodes_a.size, dtype=np.int64)
        chunk = 4096
        for start in range(0, nodes_a.size, chunk):
            sl = slice(start, start + chunk)
            sources, inverse = np.unique(nodes_a[sl], return_inverse=True)
            matrix = self.pairwise_distances(sources, nodes_b[sl])
            out[sl] = matrix[inverse, np.arange(inverse.size)]
        return out

    def balls(self, nodes: IntArray, radius: float) -> tuple[IntArray, IntArray, IntArray]:
        """Batched ball query: ``B_r`` of every node in CSR layout.

        Returns ``(indptr, members, dists)`` where the members (and their hop
        distances) of ``B_r(nodes[i])`` are
        ``members[indptr[i]:indptr[i + 1]]``.  One vectorised distance matrix
        per chunk serves all requested balls, so grid/ring/torus/complete all
        answer a batch of neighbourhood queries in one shot instead of one
        ``ball`` call per node (used by analysis/neighbourhood consumers; the
        assignment kernels intersect balls with replica sets via
        :meth:`pairwise_distances` instead).
        """
        nodes = self.validate_nodes(nodes)
        if radius < 0:
            raise TopologyError(f"radius must be non-negative, got {radius}")
        counts = np.empty(nodes.size, dtype=np.int64)
        members: list[IntArray] = []
        dists: list[IntArray] = []
        chunk = max(1, (2**22) // max(1, self._n))  # ~32 MB of int64 per chunk
        for start in range(0, nodes.size, chunk):
            sl = slice(start, start + chunk)
            matrix = self.distances_from_many(nodes[sl])
            mask = matrix <= radius
            counts[sl] = mask.sum(axis=1)
            rows, cols = np.nonzero(mask)
            members.append(cols.astype(np.int64))
            dists.append(matrix[rows, cols])
        indptr = np.concatenate([np.zeros(1, dtype=np.int64), np.cumsum(counts)])
        flat_members = (
            np.concatenate(members) if members else np.empty(0, dtype=np.int64)
        )
        flat_dists = np.concatenate(dists) if dists else np.empty(0, dtype=np.int64)
        return indptr, flat_members, flat_dists

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
        dist = self.distance_row(int(node))
        return np.flatnonzero(dist <= radius).astype(np.int64)

    def ball_size(self, node: int, radius: float) -> int:
        """Number of servers in ``B_r(node)`` (including ``node``)."""
        return int(self.ball(node, radius).size)

    def neighbors(self, node: int) -> IntArray:
        """Servers at hop distance exactly one from ``node``."""
        self.validate_nodes(node)
        dist = self.distance_row(int(node))
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
