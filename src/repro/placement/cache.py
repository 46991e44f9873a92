"""Cache state: the node-to-files and file-to-nodes indices.

A :class:`CacheState` is produced once per simulation run by a placement
strategy and then queried millions of times by the assignment strategies, so
the two directions of the index are both precomputed:

* ``slots`` — an ``(n, M)`` array of cached file ids per server, keeping
  multiplicities (the paper places with replacement, so duplicates matter for
  the goodness analysis of Lemma 2);
* a CSR-like file→nodes index listing, for every file, the *distinct* servers
  caching it (duplicates within one server collapse to a single replica since
  a request only cares whether the file is present).

A bit-packed ``(node, file)`` membership table backs the vectorised
:meth:`CacheState.contains_many`; it is built on first use only.
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.exceptions import PlacementError
from repro.types import IntArray

__all__ = ["CacheState"]

#: ``_BIT[i]`` selects bit ``i`` of a byte (little bit order, as packed below).
_BIT = (1 << np.arange(8)).astype(np.uint8)


class CacheState:
    """Immutable snapshot of which server caches which files.

    Parameters
    ----------
    slots:
        Integer array of shape ``(n, M)`` whose row ``u`` lists the ``M`` cache
        slots of server ``u`` (file ids in ``[0, num_files)``, repetitions
        allowed).
    num_files:
        Library size ``K``.
    """

    def __init__(self, slots: np.ndarray, num_files: int) -> None:
        slots = np.asarray(slots, dtype=np.int64)
        if slots.ndim != 2:
            raise PlacementError(f"slots must be a 2-D (n, M) array, got shape {slots.shape}")
        if slots.shape[0] == 0 or slots.shape[1] == 0:
            raise PlacementError(f"slots must be non-empty, got shape {slots.shape}")
        if num_files <= 0:
            raise PlacementError(f"num_files must be positive, got {num_files}")
        if slots.size and (slots.min() < 0 or slots.max() >= num_files):
            raise PlacementError(
                f"cached file ids must be in [0, {num_files}), got range "
                f"[{slots.min()}, {slots.max()}]"
            )
        self._slots = slots.copy()
        self._slots.setflags(write=False)
        self._num_files = int(num_files)
        self._n, self._cache_size = slots.shape
        self._fingerprint: str | None = None
        self._membership: np.ndarray | None = None
        self._build_file_index()

    # ------------------------------------------------------------------ index
    def _build_file_index(self) -> None:
        """Build the CSR-like file -> distinct caching nodes index."""
        n, m = self._n, self._cache_size
        node_ids = np.repeat(np.arange(n, dtype=np.int64), m)
        file_ids = self._slots.reshape(-1)
        # Collapse duplicate (node, file) pairs: a server caching a file twice
        # is still a single replica from the request's point of view.  A sort
        # plus an adjacent-difference mask, because numpy 2.x's hash-based
        # np.unique is over an order of magnitude slower on these int64 keys.
        pair_keys = np.sort(file_ids * n + node_ids)
        distinct = np.empty(pair_keys.size, dtype=bool)
        distinct[0] = True
        np.not_equal(pair_keys[1:], pair_keys[:-1], out=distinct[1:])
        unique_keys = pair_keys[distinct]
        files_sorted = unique_keys // n
        nodes_sorted = unique_keys % n
        counts = np.bincount(files_sorted, minlength=self._num_files)
        self._file_index_ptr = np.concatenate(
            [np.zeros(1, dtype=np.int64), np.cumsum(counts, dtype=np.int64)]
        )
        self._file_index_nodes = nodes_sorted.astype(np.int64)
        self._file_index_ptr.setflags(write=False)
        self._file_index_nodes.setflags(write=False)
        self._replication = counts.astype(np.int64)

    # ------------------------------------------------------------- properties
    @property
    def num_nodes(self) -> int:
        """Number of servers ``n``."""
        return self._n

    @property
    def num_files(self) -> int:
        """Library size ``K``."""
        return self._num_files

    @property
    def cache_size(self) -> int:
        """Cache slots per server ``M``."""
        return self._cache_size

    @property
    def slots(self) -> IntArray:
        """Read-only view of the raw ``(n, M)`` slot array."""
        return self._slots

    # ---------------------------------------------------------------- queries
    def node_files(self, node: int, distinct: bool = True) -> IntArray:
        """Files cached at ``node``; distinct ids (sorted) by default."""
        self._check_node(node)
        row = self._slots[int(node)]
        return np.unique(row) if distinct else row.copy()

    def file_nodes(self, file_id: int) -> IntArray:
        """Distinct servers caching ``file_id`` (sorted ascending)."""
        self._check_file(file_id)
        start, stop = self._file_index_ptr[int(file_id)], self._file_index_ptr[int(file_id) + 1]
        return self._file_index_nodes[start:stop]

    def fingerprint(self) -> str:
        """Stable content digest of this cache state (lazy, then cached).

        Two states with identical ``(n, M, K)`` shape and slot contents share
        a fingerprint; the session layer keys memoised group-index precompute
        on it (plus the strategy's candidate parameters), so artifacts are
        reused exactly when the placements are byte-identical.
        """
        if self._fingerprint is None:
            digest = hashlib.blake2b(digest_size=16)
            digest.update(
                f"{self._n},{self._cache_size},{self._num_files}:".encode()
            )
            digest.update(self._slots.tobytes())
            self._fingerprint = digest.hexdigest()
        return self._fingerprint

    def file_index(self) -> tuple[IntArray, IntArray]:
        """The raw CSR file → caching-nodes index as ``(indptr, nodes)``.

        Row ``f`` is ``nodes[indptr[f]:indptr[f + 1]]`` — the same sorted
        replica list :meth:`file_nodes` returns, exposed wholesale so the
        batched kernels can address every replica set without per-file calls.
        Both arrays are read-only views; do not mutate them.
        """
        return self._file_index_ptr, self._file_index_nodes

    def replication_counts(self) -> IntArray:
        """Number of distinct servers caching each file (length ``K``)."""
        return self._replication.copy()

    def replication_of(self, file_id: int) -> int:
        """Number of distinct servers caching ``file_id``."""
        self._check_file(file_id)
        return int(self._replication[int(file_id)])

    def uncached_files(self) -> IntArray:
        """File ids that no server caches (possible when ``n * M`` is small)."""
        return np.flatnonzero(self._replication == 0).astype(np.int64)

    def distinct_count(self, node: int) -> int:
        """``t(u)``: the number of distinct files cached at ``node``."""
        return int(self.node_files(node).size)

    def distinct_counts(self) -> IntArray:
        """Vector of ``t(u)`` for every server (length ``n``)."""
        sorted_slots = np.sort(self._slots, axis=1)
        changes = np.ones(self._slots.shape, dtype=bool)
        changes[:, 1:] = sorted_slots[:, 1:] != sorted_slots[:, :-1]
        return changes.sum(axis=1).astype(np.int64)

    def common_files(self, u: int, v: int) -> IntArray:
        """``T(u, v)``: distinct files cached at both ``u`` and ``v``."""
        return np.intersect1d(self.node_files(u), self.node_files(v), assume_unique=True)

    def common_count(self, u: int, v: int) -> int:
        """``t(u, v) = |T(u, v)|``."""
        return int(self.common_files(u, v).size)

    def contains(self, node: int, file_id: int) -> bool:
        """Whether server ``node`` caches ``file_id``."""
        self._check_node(node)
        self._check_file(file_id)
        return bool(np.any(self._slots[int(node)] == int(file_id)))

    def contains_many(self, nodes: IntArray, file_ids: IntArray) -> np.ndarray:
        """Vectorised :meth:`contains` over broadcast ``nodes`` / ``file_ids``.

        Looks each pair up in a bit-packed ``(node, file)`` membership table
        of ``n * K / 8`` bytes, built on first use and cached.  Ids are not
        range-checked: callers pass valid node and file ids.
        """
        if self._membership is None:
            rows = np.arange(self._n, dtype=np.int64) * self._num_files
            pairs = np.repeat(rows, self._cache_size) + self._slots.reshape(-1)
            table = np.zeros((self._n * self._num_files + 7) // 8, dtype=np.uint8)
            np.bitwise_or.at(table, pairs >> 3, _BIT[pairs & 7])
            table.setflags(write=False)
            self._membership = table
        index = np.asarray(nodes, dtype=np.int64) * self._num_files + file_ids
        member = self._membership.take(index >> 3)
        member &= _BIT.take(index & 7)
        return member != 0

    def node_membership_matrix(self) -> np.ndarray:
        """Dense boolean ``(n, K)`` matrix of cache membership.

        Only intended for small instances (analysis and tests); the simulation
        engine uses the sparse index instead.
        """
        matrix = np.zeros((self._n, self._num_files), dtype=bool)
        rows = np.repeat(np.arange(self._n), self._cache_size)
        matrix[rows, self._slots.reshape(-1)] = True
        return matrix

    # ------------------------------------------------------------- validation
    def _check_node(self, node: int) -> None:
        if not 0 <= int(node) < self._n:
            raise PlacementError(f"node must be in [0, {self._n}), got {node}")

    def _check_file(self, file_id: int) -> None:
        if not 0 <= int(file_id) < self._num_files:
            raise PlacementError(f"file_id must be in [0, {self._num_files}), got {file_id}")

    def __repr__(self) -> str:
        return (
            f"CacheState(n={self._n}, M={self._cache_size}, K={self._num_files}, "
            f"uncached={int(np.count_nonzero(self._replication == 0))})"
        )
