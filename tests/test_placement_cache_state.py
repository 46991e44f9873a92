"""Tests for the cache-state index (repro.placement.cache)."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.catalog import FileLibrary, ZipfPopularity
from repro.exceptions import PlacementError
from repro.placement import ProportionalPlacement
from repro.placement.cache import CacheState, slot_type
from repro.topology import Torus2D


def small_state() -> CacheState:
    """A hand-built 4-node, 5-file state used across tests.

    node 0: files {0, 1}
    node 1: files {1, 1} -> distinct {1}
    node 2: files {2, 3}
    node 3: files {0, 3}
    File 4 is cached nowhere.
    """
    slots = np.array([[0, 1], [1, 1], [2, 3], [0, 3]])
    return CacheState(slots, num_files=5)


class TestConstruction:
    def test_shape_validation(self):
        with pytest.raises(PlacementError):
            CacheState(np.array([0, 1, 2]), 5)

    def test_empty_raises(self):
        with pytest.raises(PlacementError):
            CacheState(np.empty((0, 2), dtype=int), 5)

    def test_out_of_range_file_raises(self):
        with pytest.raises(PlacementError):
            CacheState(np.array([[0, 5]]), 5)
        with pytest.raises(PlacementError):
            CacheState(np.array([[-1, 0]]), 5)

    def test_invalid_num_files(self):
        with pytest.raises(PlacementError):
            CacheState(np.array([[0]]), 0)

    def test_properties(self):
        state = small_state()
        assert state.num_nodes == 4
        assert state.num_files == 5
        assert state.cache_size == 2

    def test_slots_read_only(self):
        state = small_state()
        with pytest.raises(ValueError):
            state.slots[0, 0] = 3

    def test_repr(self):
        assert "uncached=1" in repr(small_state())


class TestSlotWidths:
    """Slots are held in the narrowest type that holds K; everything that
    leaves the state (queries, index, fingerprint) is as with int64 slots."""

    @pytest.mark.parametrize(
        "num_files, expected",
        [(1, np.int16), (2**15, np.int16), (2**15 + 1, np.int32), (2**31 - 1, np.int32)],
    )
    def test_slot_type(self, num_files, expected):
        assert slot_type(num_files) is expected

    @pytest.mark.parametrize("num_files", [5, 2**15, 2**15 + 1])
    @pytest.mark.parametrize("given_type", [np.int64, np.int32, np.uint16])
    def test_slots_narrow_and_answers_int64(self, num_files, given_type):
        rng = np.random.default_rng(num_files)
        slots = rng.integers(0, num_files, size=(9, 4)).astype(given_type)
        state = CacheState(slots, num_files)
        assert state.slots.dtype == slot_type(num_files)
        np.testing.assert_array_equal(state.slots, slots)
        assert state.node_files(2).dtype == np.int64
        np.testing.assert_array_equal(state.node_files(2, distinct=False), slots[2])
        assert state.node_files(2, distinct=False).dtype == np.int64
        assert all(part.dtype == np.int64 for part in state.file_index())

    @pytest.mark.parametrize("chunk", [None, 7], ids=["one-chunk", "chunked"])
    def test_fingerprint_hashes_int64_slots(self, monkeypatch, chunk):
        if chunk is not None:
            monkeypatch.setattr("repro.placement.cache._HASH_SLOTS", chunk)
        slots = np.random.default_rng(8).integers(0, 50, size=(9, 4))
        digest = hashlib.blake2b(digest_size=16)
        digest.update(b"9,4,50:")
        digest.update(slots.astype(np.int64).tobytes())
        assert CacheState(slots.astype(np.int16), 50).fingerprint() == digest.hexdigest()

    def test_placement_fingerprints_pinned(self):
        # GroupStore keys are these digests; narrower slots must not move them.
        library = FileLibrary(1000, ZipfPopularity(1000, 1.0))
        got = [
            ProportionalPlacement(8).place(Torus2D(65536), FileLibrary(256), seed=0),
            ProportionalPlacement(100).place(Torus2D(2025), FileLibrary(500), seed=0),
            ProportionalPlacement(16).place(Torus2D(4096), library, seed=0),
        ]
        assert [state.fingerprint() for state in got] == [
            "4e29b71378a8aa6df7050b453e95499f",
            "d2caccdd61c0f735d03af6f26029f88b",
            "061914513dd6791ce16a85f980fbfb10",
        ]

    def test_nbytes_counts_the_held_arrays(self):
        state = small_state()
        indptr, nodes = state.file_index()
        held = (state.slots, indptr, nodes, state.replication_counts(), state.distinct_counts())
        assert state.nbytes == sum(array.nbytes for array in held)
        state.contains_many(np.arange(4), 1)  # builds the 4 x 1-byte bitset
        assert state.nbytes == sum(array.nbytes for array in held) + 4


class TestNodeQueries:
    def test_node_files_distinct(self):
        state = small_state()
        np.testing.assert_array_equal(state.node_files(1), [1])
        np.testing.assert_array_equal(state.node_files(0), [0, 1])

    def test_node_files_raw(self):
        state = small_state()
        np.testing.assert_array_equal(state.node_files(1, distinct=False), [1, 1])

    def test_distinct_count(self):
        state = small_state()
        assert state.distinct_count(0) == 2
        assert state.distinct_count(1) == 1

    def test_distinct_counts_vector(self):
        state = small_state()
        np.testing.assert_array_equal(state.distinct_counts(), [2, 1, 2, 2])

    def test_contains(self):
        state = small_state()
        assert state.contains(0, 1)
        assert not state.contains(0, 2)

    def test_invalid_node(self):
        with pytest.raises(PlacementError):
            small_state().node_files(4)
        with pytest.raises(PlacementError):
            small_state().distinct_count(-1)


class TestFileQueries:
    def test_file_nodes(self):
        state = small_state()
        np.testing.assert_array_equal(state.file_nodes(0), [0, 3])
        np.testing.assert_array_equal(state.file_nodes(1), [0, 1])
        np.testing.assert_array_equal(state.file_nodes(4), [])

    def test_file_nodes_deduplicates_within_node(self):
        # Node 1 caches file 1 twice; it must appear once.
        state = small_state()
        assert np.count_nonzero(state.file_nodes(1) == 1) == 1

    def test_replication_counts(self):
        state = small_state()
        np.testing.assert_array_equal(state.replication_counts(), [2, 2, 1, 2, 0])

    def test_replication_of(self):
        assert small_state().replication_of(3) == 2

    def test_uncached_files(self):
        np.testing.assert_array_equal(small_state().uncached_files(), [4])

    def test_invalid_file(self):
        with pytest.raises(PlacementError):
            small_state().file_nodes(5)
        with pytest.raises(PlacementError):
            small_state().replication_of(-1)


class TestPairQueries:
    def test_common_files(self):
        state = small_state()
        np.testing.assert_array_equal(state.common_files(0, 1), [1])
        np.testing.assert_array_equal(state.common_files(0, 3), [0])
        np.testing.assert_array_equal(state.common_files(1, 2), [])

    def test_common_count(self):
        state = small_state()
        assert state.common_count(0, 1) == 1
        assert state.common_count(1, 2) == 0

    def test_common_symmetric(self):
        state = small_state()
        assert state.common_count(0, 3) == state.common_count(3, 0)


class TestMembershipMatrix:
    def test_matches_index(self):
        state = small_state()
        matrix = state.node_membership_matrix()
        assert matrix.shape == (4, 5)
        for node in range(4):
            for file_id in range(5):
                assert matrix[node, file_id] == state.contains(node, file_id)

    def test_consistency_with_file_nodes(self):
        state = small_state()
        matrix = state.node_membership_matrix()
        for file_id in range(5):
            np.testing.assert_array_equal(
                np.flatnonzero(matrix[:, file_id]), state.file_nodes(file_id)
            )


class TestLargeRandomConsistency:
    def test_index_consistency_random(self):
        rng = np.random.default_rng(0)
        slots = rng.integers(0, 40, size=(60, 7))
        state = CacheState(slots, 40)
        # replication counts match membership matrix column sums
        matrix = state.node_membership_matrix()
        np.testing.assert_array_equal(matrix.sum(axis=0), state.replication_counts())
        # every file's node list is sorted and in range
        for file_id in range(40):
            nodes = state.file_nodes(file_id)
            assert np.all(np.diff(nodes) > 0)
            if nodes.size:
                assert nodes.min() >= 0 and nodes.max() < 60


def _assert_index_matches_model(state: CacheState, slots: np.ndarray, k: int) -> None:
    """The index, replication and distinct counts against ``np.unique`` alone."""
    n, m = slots.shape
    pairs = np.unique(
        np.stack([slots.reshape(-1), np.repeat(np.arange(n), m)], axis=1), axis=0
    )  # distinct (file, node) rows, by file then node
    replication = np.bincount(pairs[:, 0], minlength=k)
    indptr, nodes = state.file_index()
    for got, want in (
        (indptr, np.concatenate([[0], np.cumsum(replication)])),
        (nodes, pairs[:, 1]),
        (state.replication_counts(), replication),
        (state.distinct_counts(), [np.unique(row).size for row in slots]),
    ):
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, want)


class TestIndexAgainstUniqueOracle:
    """The sort-based file index against a plain ``np.unique`` oracle."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_file_index_and_replication_counts(self, seed):
        rng = np.random.default_rng(seed)
        n, m, k = 50, 6, 40
        # Files 0..29 only, drawn from a few values per node so nodes hold
        # duplicates; files 30..39 are cached nowhere.
        slots = rng.integers(0, 30, size=(n, m))
        slots[:, m // 2 :] = slots[:, : m - m // 2]
        state = CacheState(slots, k)
        pairs = np.unique(
            slots.reshape(-1) * n + np.repeat(np.arange(n), m)
        )
        files, nodes = pairs // n, pairs % n
        counts = np.bincount(files, minlength=k)
        indptr, flat_nodes = state.file_index()
        np.testing.assert_array_equal(
            indptr, np.concatenate([[0], np.cumsum(counts)])
        )
        np.testing.assert_array_equal(flat_nodes, nodes)
        np.testing.assert_array_equal(state.replication_counts(), counts)
        assert np.all(state.replication_counts()[30:] == 0)

    @settings(max_examples=80, deadline=None)
    @given(
        n=st.integers(1, 300),
        m=st.integers(1, 12),
        k=st.integers(1, 60),
        spread=st.integers(1, 60),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_unique_model(self, n, m, k, spread, seed):
        # Files drawn from the first min(spread, k) ids: a small spread
        # gives heavy duplicates within nodes and uncached tail files.
        slots = np.random.default_rng(seed).integers(0, min(spread, k), size=(n, m))
        _assert_index_matches_model(CacheState(slots, k), slots, k)

    @pytest.mark.parametrize(
        "n, m, k",
        [
            (65536, 1, 40000),  # K << 16 >= 2**31: int64 keys
            (65537, 1, 20000),  # n one past a power of two: s = 17, int64 keys
            (65536, 1, 32767),  # the largest K with int32 keys at s = 16
            (2025, 100, 500),  # Figure 5 at M = 100
        ],
    )
    def test_both_key_widths(self, n, m, k):
        slots = np.random.default_rng(n + k).integers(0, k, size=(n, m))
        _assert_index_matches_model(CacheState(slots, k), slots, k)


class TestContainsMany:
    def test_matches_scalar_contains_everywhere(self):
        state = small_state()
        nodes, files = np.meshgrid(np.arange(4), np.arange(5), indexing="ij")
        got = state.contains_many(nodes, files)
        assert got.dtype == bool and got.shape == (4, 5)
        for node in range(4):
            for file_id in range(5):
                assert got[node, file_id] == state.contains(node, file_id)

    def test_broadcasts_one_file_per_row(self):
        state = small_state()
        nodes = np.asarray([[0, 1, 2, 3], [3, 2, 1, 0]])
        files = np.asarray([[1], [3]])
        np.testing.assert_array_equal(
            state.contains_many(nodes, files),
            [[True, True, False, False], [True, True, False, False]],
        )

    @pytest.mark.parametrize("cells", [None, 64], ids=["one-chunk", "chunked"])
    @pytest.mark.parametrize("num_files", [1, 5, 8, 13, 500])
    def test_random_states_match_membership_matrix(self, monkeypatch, num_files, cells):
        # Rows pad to whole bytes when K is not a multiple of 8; a small
        # chunk budget builds the table over several row chunks.
        if cells is not None:
            monkeypatch.setattr("repro.placement.cache._BITSET_CELLS", cells)
        rng = np.random.default_rng(4)
        slots = rng.integers(0, num_files, size=(37, 5))
        state = CacheState(slots, num_files)
        nodes, files = np.meshgrid(np.arange(37), np.arange(num_files), indexing="ij")
        np.testing.assert_array_equal(
            state.contains_many(nodes, files), state.node_membership_matrix()
        )
