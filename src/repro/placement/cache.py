"""Cache state: the node-to-files and file-to-nodes indices.

A :class:`CacheState` is produced once per simulation run by a placement
strategy and then queried millions of times by the assignment strategies, so
the two directions of the index are both precomputed:

* ``slots`` — an ``(n, M)`` array of cached file ids per server, keeping
  multiplicities (the paper places with replacement, so duplicates matter for
  the goodness analysis of Lemma 2), held in the narrowest signed type that
  holds ``K`` (see :func:`slot_type`);
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
from repro.types import IntArray, index_type

__all__ = ["CacheState", "slot_type"]

#: ``_BIT[i]`` selects bit ``i`` of a byte (little bit order, as packed below).
_BIT = (1 << np.arange(8)).astype(np.uint8)

#: Dense boolean cells per chunk of the membership build (8,192 rows at
#: K = 256), which bounds its scratch memory at 2 MB whatever ``n``.
_BITSET_CELLS = 1 << 21

#: Slots widened to int64 per chunk of :meth:`CacheState.fingerprint` (8 MB).
_HASH_SLOTS = 1 << 20


def slot_type(num_files: int) -> type[np.signedinteger]:
    """The type of a :class:`CacheState`'s slots for a library of ``K`` files.

    ``np.int16`` while ``K <= 2**15``, so every file id ``< K`` fits, and
    :func:`~repro.types.index_type` (int32, then int64) beyond.  At the
    paper's largest Figure 3 point (n = 122,500, M = 100) int16 slots take
    24.5 MB where int64 ones took 98 MB.
    """
    return np.int16 if num_files <= 2**15 else index_type(num_files)


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
        slots = np.asarray(slots)
        if slots.dtype.kind not in "iu":
            slots = slots.astype(np.int64)
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
        # The range check above ran on the caller's type, so narrowing
        # cannot wrap; astype always copies.
        self._slots = slots.astype(slot_type(num_files))
        self._slots.setflags(write=False)
        self._num_files = int(num_files)
        self._n, self._cache_size = slots.shape
        self._fingerprint: str | None = None
        self._membership: np.ndarray | None = None
        self._build_file_index()

    # ------------------------------------------------------------------ index
    def _build_file_index(self) -> None:
        """Build the CSR-like file -> distinct caching nodes index.

        Each slot becomes one packed key ``file << s | node`` with
        ``s = (n - 1).bit_length()``, so ascending keys order the pairs by
        file, then node.  The keys are int32 whenever ``K << s < 2**31`` and
        int64 otherwise; numpy sorts the narrower keys about twice as fast,
        and they are widened straight from the narrow slots.  A sort plus an
        adjacent-difference mask collapses duplicate ``(node, file)`` pairs —
        a server caching a file twice is still a single replica from the
        request's point of view.  Row ``f`` of the CSR starts at the first
        distinct key ``>= f << s``, and ``& (2**s - 1)``, in place, unpacks
        each key's node; the collapsed keys' nodes give :meth:`distinct_counts`.  The nodes are int64: the replica scan and the
        unconstrained shared mode use them as ``take`` indices and as
        server ids, and numpy converts a narrower index on every ``take``.
        """
        n = self._n
        shift = (n - 1).bit_length()
        key_type = np.int32 if self._num_files << shift < 2**31 else np.int64
        keys = self._slots.astype(key_type)
        keys <<= shift
        keys |= np.arange(n, dtype=key_type)[:, None]
        keys = keys.reshape(-1)
        keys.sort()
        distinct = np.empty(keys.size, dtype=bool)
        distinct[0] = True
        np.not_equal(keys[1:], keys[:-1], out=distinct[1:])
        node_mask = (1 << shift) - 1
        unique = keys[distinct]
        # t(u) is M less u's repeated slots: the keys the compress dropped.
        repeated = keys[np.logical_not(distinct, out=distinct)] & node_mask
        self._distinct_counts = self._cache_size - np.bincount(repeated, minlength=n)
        del distinct  # before the int64 nodes below are allocated
        keys = unique
        row_starts = np.arange(self._num_files + 1, dtype=key_type) << shift
        self._file_index_ptr = keys.searchsorted(row_starts).astype(np.int64)
        keys &= node_mask
        self._file_index_nodes = keys.astype(np.int64)
        self._file_index_ptr.setflags(write=False)
        self._file_index_nodes.setflags(write=False)
        self._replication = np.diff(self._file_index_ptr)

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
        """Read-only view of the raw ``(n, M)`` slot array.

        Its type is :func:`slot_type` of ``K``: int16 while ``K <= 2**15``,
        int32 beyond, not int64.
        """
        return self._slots

    @property
    def nbytes(self) -> int:
        """Bytes of the arrays this state holds now.

        The slots, the file index and its replica counts, plus the
        membership bitset once :meth:`contains_many` has built it.
        """
        held = (
            self._slots,
            self._file_index_ptr,
            self._file_index_nodes,
            self._replication,
            self._distinct_counts,
            self._membership,
        )
        return sum(array.nbytes for array in held if array is not None)

    # ---------------------------------------------------------------- queries
    def node_files(self, node: int, distinct: bool = True) -> IntArray:
        """Files cached at ``node``; distinct ids (sorted) by default."""
        self._check_node(node)
        row = self._slots[int(node)].astype(np.int64)
        return np.unique(row) if distinct else row

    def file_nodes(self, file_id: int) -> IntArray:
        """Distinct servers caching ``file_id`` (sorted ascending)."""
        self._check_file(file_id)
        start, stop = self._file_index_ptr[int(file_id)], self._file_index_ptr[int(file_id) + 1]
        return self._file_index_nodes[start:stop]

    def fingerprint(self) -> str:
        """Stable content digest of this cache state (lazy, then cached).

        Two states with identical ``(n, M, K)`` shape and slot contents share
        a fingerprint; the session layer keys memoised group-index precompute
        on it (plus the radius), so artifacts are reused exactly when the
        placements are byte-identical.  It hashes the slots' int64 bytes,
        whatever type they are held in, a chunk of ``_HASH_SLOTS`` slots at a
        time.
        """
        if self._fingerprint is None:
            digest = hashlib.blake2b(digest_size=16)
            digest.update(
                f"{self._n},{self._cache_size},{self._num_files}:".encode()
            )
            flat = self._slots.reshape(-1)
            for start in range(0, flat.size, _HASH_SLOTS):
                digest.update(flat[start : start + _HASH_SLOTS].astype(np.int64))
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
        """Vector of ``t(u)`` for every server (length ``n``).

        Counted while the file index is built: a server's ``M`` slots less
        the repeated ``(node, file)`` pairs the index collapses.
        """
        return self._distinct_counts.copy()

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

        Looks each pair up in a bit-packed ``(node, file)`` membership table,
        built on first use and cached: each node's row takes ``ceil(K / 8)``
        bytes, so bit ``node * 8 * ceil(K / 8) + file`` is the pair's.  That
        index is computed in int32 while ``n * 8 * ceil(K / 8) < 2**31``
        (int64 beyond), whatever the integer types of the ids.  Ids are not
        range-checked: callers pass valid node and file ids.  Returns a
        boolean array of the broadcast shape.
        """
        row_bits = 8 * -(-self._num_files // 8)
        if self._membership is None:
            table = np.empty((self._n, row_bits // 8), dtype=np.uint8)
            step = max(1, _BITSET_CELLS // row_bits)
            row_starts = np.arange(step, dtype=np.int64)[:, None] * row_bits
            for start in range(0, self._n, step):
                slots = self._slots[start : start + step]
                dense = np.zeros((len(slots), row_bits), dtype=bool)
                dense.reshape(-1)[(row_starts[: len(slots)] + slots).reshape(-1)] = True
                table[start : start + step] = np.packbits(
                    dense, axis=1, bitorder="little"
                )
            table = table.reshape(-1)
            table.setflags(write=False)
            self._membership = table
        bit_type = index_type(self._n * row_bits)
        index = np.asarray(nodes, dtype=bit_type) * row_bits
        index = index + np.asarray(file_ids, dtype=bit_type)
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
