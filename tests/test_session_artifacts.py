"""Tests for the session artifact cache and the group-store memoisation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.catalog.library import FileLibrary
from repro.kernels.group_index import GroupStore, build_group_index
from repro.placement.cache import CacheState
from repro.placement.partition import PartitionPlacement
from repro.placement.proportional import ProportionalPlacement
from repro.session import ArtifactCache
from repro.strategies.base import FallbackPolicy
from repro.strategies.least_loaded_in_ball import LeastLoadedInBallStrategy
from repro.strategies.nearest_replica import NearestReplicaStrategy
from repro.strategies.proximity_two_choice import ProximityTwoChoiceStrategy
from repro.topology.torus import Torus2D
from repro.workload.generators import UniformOriginWorkload


def _system(num_requests=200, seed=0):
    topology = Torus2D(49)
    library = FileLibrary(20)
    cache = ProportionalPlacement(3).place(topology, library, seed=seed)
    requests = UniformOriginWorkload(num_requests).generate(topology, library, seed=1)
    return topology, library, cache, requests


class TestCacheFingerprint:
    def test_identical_contents_share_a_fingerprint(self):
        slots = np.arange(12, dtype=np.int64).reshape(4, 3) % 5
        a = CacheState(slots, num_files=5)
        b = CacheState(slots.copy(), num_files=5)
        assert a.fingerprint() == b.fingerprint()

    def test_different_contents_differ(self):
        slots = np.arange(12, dtype=np.int64).reshape(4, 3) % 5
        other = slots.copy()
        other[0, 0] = (other[0, 0] + 1) % 5
        assert (
            CacheState(slots, num_files=5).fingerprint()
            != CacheState(other, num_files=5).fingerprint()
        )

    def test_fingerprint_is_cached(self):
        slots = np.zeros((3, 2), dtype=np.int64)
        state = CacheState(slots, num_files=2)
        assert state.fingerprint() is state.fingerprint()


class TestPlacementMemo:
    def test_deterministic_placement_shared_across_seeds(self):
        topology, library = Torus2D(49), FileLibrary(20)
        artifacts = ArtifactCache()
        placement = PartitionPlacement(3)
        a = artifacts.placement(placement, topology, library, np.random.SeedSequence(1))
        b = artifacts.placement(placement, topology, library, np.random.SeedSequence(2))
        assert a is b
        assert artifacts.placement_hits == 1
        assert artifacts.placement_misses == 1

    def test_random_placement_keyed_by_seed(self):
        topology, library = Torus2D(49), FileLibrary(20)
        artifacts = ArtifactCache()
        placement = ProportionalPlacement(3)
        a = artifacts.placement(placement, topology, library, np.random.SeedSequence(1))
        b = artifacts.placement(placement, topology, library, np.random.SeedSequence(2))
        same = artifacts.placement(placement, topology, library, np.random.SeedSequence(1))
        assert a is not b
        assert same is a
        assert artifacts.placement_hits == 1

    def test_memoised_placement_matches_direct_place(self):
        topology, library = Torus2D(49), FileLibrary(20)
        artifacts = ArtifactCache()
        seed = np.random.SeedSequence(7)
        memoised = artifacts.placement(ProportionalPlacement(3), topology, library, seed)
        direct = ProportionalPlacement(3).place(
            topology, library, np.random.default_rng(np.random.SeedSequence(7))
        )
        np.testing.assert_array_equal(memoised.slots, direct.slots)

    def test_lru_eviction_bounds_memory(self):
        topology, library = Torus2D(49), FileLibrary(20)
        artifacts = ArtifactCache(max_placements=2)
        placement = ProportionalPlacement(3)
        for seed in range(4):
            artifacts.placement(placement, topology, library, np.random.SeedSequence(seed))
        assert artifacts.stats()["placements"] == 2

    def test_lru_keeps_the_recently_used_placement(self):
        # Re-fetching an entry must refresh its LRU position: after touching
        # seed 0 again, inserting a third placement evicts seed 1, not seed 0.
        topology, library = Torus2D(49), FileLibrary(20)
        artifacts = ArtifactCache(max_placements=2)
        placement = ProportionalPlacement(3)
        first = artifacts.placement(
            placement, topology, library, np.random.SeedSequence(0)
        )
        artifacts.placement(placement, topology, library, np.random.SeedSequence(1))
        assert artifacts.placement(
            placement, topology, library, np.random.SeedSequence(0)
        ) is first
        artifacts.placement(placement, topology, library, np.random.SeedSequence(2))
        assert artifacts.placement(
            placement, topology, library, np.random.SeedSequence(0)
        ) is first
        assert artifacts.stats()["placement_hits"] == 2

    def test_store_lru_eviction_drops_oldest_store(self):
        topology, library, cache, _ = _system()
        artifacts = ArtifactCache(max_stores=2)
        signatures = [(float(radius), "nearest", True) for radius in (1, 2, 3)]
        first = artifacts.group_store(topology, cache, signatures[0])
        artifacts.group_store(topology, cache, signatures[1])
        artifacts.group_store(topology, cache, signatures[2])  # evicts signatures[0]
        assert artifacts.stats()["stores"] == 2
        assert artifacts.group_store(topology, cache, signatures[0]) is not first

    def test_invalid_limits_rejected(self):
        with pytest.raises(ValueError):
            ArtifactCache(max_placements=0)
        with pytest.raises(ValueError):
            ArtifactCache(max_stores=0)


class TestGroupStore:
    def test_cached_index_identical_to_uncached(self):
        topology, library, cache, requests = _system()
        kwargs = dict(radius=3.0, fallback=FallbackPolicy.NEAREST, need_dists=True)
        plain = build_group_index(topology, cache, requests, **kwargs)
        store = GroupStore()
        cold = build_group_index(topology, cache, requests, store=store, **kwargs)
        warm = build_group_index(topology, cache, requests, store=store, **kwargs)
        for built in (cold, warm):
            np.testing.assert_array_equal(built.counts, plain.counts)
            np.testing.assert_array_equal(built.nodes, plain.nodes)
            np.testing.assert_array_equal(built.dists, plain.dists)
            np.testing.assert_array_equal(built.fallback, plain.fallback)
            np.testing.assert_array_equal(built.request_group, plain.request_group)
        # The cold pass short-circuits the probe of an empty store: no wasted
        # gets, no miss-counter inflation.  The warm pass hits every group.
        assert store.misses == 0
        assert store.hits == plain.num_groups

    def test_partial_overlap_only_computes_missing_groups(self):
        topology, library, cache, requests = _system(num_requests=300)
        first = requests.subset(np.arange(0, 150))
        second = requests.subset(np.arange(100, 300))
        store = GroupStore()
        kwargs = dict(radius=3.0, fallback=FallbackPolicy.NEAREST, need_dists=True)
        build_group_index(topology, cache, first, store=store, **kwargs)
        size_after_first = len(store)
        warm = build_group_index(topology, cache, second, store=store, **kwargs)
        plain = build_group_index(topology, cache, second, **kwargs)
        np.testing.assert_array_equal(warm.nodes, plain.nodes)
        np.testing.assert_array_equal(warm.dists, plain.dists)
        assert store.hits > 0
        assert len(store) >= size_after_first

    def test_full_store_stops_retaining(self):
        topology, library, cache, requests = _system()
        store = GroupStore(max_groups=5)
        build_group_index(
            topology,
            cache,
            requests,
            radius=3.0,
            fallback=FallbackPolicy.NEAREST,
            need_dists=True,
            store=store,
        )
        assert len(store) == 5

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError):
            GroupStore(max_groups=0)

    @staticmethod
    def _row(key):
        nodes = np.asarray([key], dtype=np.int64)
        return nodes, nodes + 100, False

    def test_lru_eviction_at_capacity(self):
        # Fill to capacity, touch the oldest key, insert a new one: the
        # least-recently-*used* key goes, not the least-recently-inserted.
        store = GroupStore(max_groups=3)
        for key in (1, 2, 3):
            store.put(key, *self._row(key))
        assert store.get(1) is not None  # refresh key 1
        store.put(4, *self._row(4))
        assert len(store) == 3
        assert store.get(2) is None  # LRU, evicted
        for key in (1, 3, 4):
            row = store.get(key)
            assert row is not None
            np.testing.assert_array_equal(row[0], [key])

    def test_put_of_existing_key_refreshes_recency(self):
        store = GroupStore(max_groups=2)
        store.put(1, *self._row(1))
        store.put(2, *self._row(2))
        store.put(1, *self._row(1))  # re-put: now key 2 is LRU
        store.put(3, *self._row(3))
        assert len(store) == 2
        assert store.get(2) is None
        assert store.get(1) is not None and store.get(3) is not None

    def test_capacity_never_exceeded_under_churn(self):
        store = GroupStore(max_groups=4)
        for key in range(20):
            store.put(key, *self._row(key))
            assert len(store) <= 4
        # Only the four most recent keys survive.
        assert [key for key in range(20) if store.get(key) is not None] == [16, 17, 18, 19]


class _ModelStore:
    """The pre-rewrite OrderedDict protocol — the LRU-order authority."""

    def __init__(self, max_groups):
        from collections import OrderedDict

        self.rows = OrderedDict()
        self.max_groups = max_groups
        self.hits = 0
        self.misses = 0

    def get(self, key):
        row = self.rows.get(key)
        if row is None:
            self.misses += 1
        else:
            self.hits += 1
            self.rows.move_to_end(key)
        return row

    def put(self, key, nodes, dists, fallback):
        if key in self.rows:
            self.rows.move_to_end(key)
        elif len(self.rows) >= self.max_groups:
            self.rows.popitem(last=False)
        self.rows[key] = (nodes, dists, fallback)


class TestGroupStoreBatch:
    """The batch interface against the scalar OrderedDict protocol."""

    @staticmethod
    def _csr(keys, rng):
        keys = np.asarray(keys, dtype=np.int64)
        counts = rng.integers(0, 4, size=keys.size).astype(np.int64)
        nodes = rng.integers(0, 100, size=int(counts.sum())).astype(np.int64)
        dists = rng.integers(0, 10, size=int(counts.sum())).astype(np.int64)
        flags = rng.random(keys.size) < 0.2
        return keys, counts, nodes, dists, flags

    def test_empty_batches_are_noops(self):
        store = GroupStore()
        empty = np.empty(0, dtype=np.int64)
        store.put_many(empty, empty, empty, empty, np.zeros(0, dtype=bool))
        hit_mask, counts, nodes, dists, flags = store.get_many(empty)
        assert hit_mask.size == counts.size == nodes.size == flags.size == 0
        assert store.hits == 0 and store.misses == 0 and len(store) == 0

    def test_put_many_get_many_roundtrip(self):
        rng = np.random.default_rng(0)
        store = GroupStore()
        keys, counts, nodes, dists, flags = self._csr(np.arange(10) * 7, rng)
        store.put_many(keys, counts, nodes, dists, flags)
        # Probe in a different order, with misses interleaved.
        probe = np.asarray([70, -1, 0, 35, 999, 7], dtype=np.int64)
        hit_mask, hit_counts, hit_nodes, hit_dists, hit_flags = store.get_many(probe)
        np.testing.assert_array_equal(
            hit_mask, [False, False, True, True, False, True]
        )
        assert store.hits == 3 and store.misses == 3
        ends = np.cumsum(counts)
        expected = [0, 5, 1]  # positions of keys 0, 35, 7 in the put batch
        pos = 0
        for j, i in enumerate(expected):
            assert hit_counts[j] == counts[i]
            sl = slice(int(ends[i] - counts[i]), int(ends[i]))
            np.testing.assert_array_equal(
                hit_nodes[pos : pos + int(counts[i])], nodes[sl]
            )
            np.testing.assert_array_equal(
                hit_dists[pos : pos + int(counts[i])], dists[sl]
            )
            assert hit_flags[j] == flags[i]
            pos += int(counts[i])

    def test_batch_eviction_at_capacity_matches_sequential_puts(self):
        rng = np.random.default_rng(1)
        store = GroupStore(max_groups=4)
        model = _ModelStore(max_groups=4)
        keys, counts, nodes, dists, flags = self._csr(np.arange(10), rng)
        store.put_many(keys, counts, nodes, dists, flags)
        ends = np.cumsum(counts)
        for i, key in enumerate(keys):
            sl = slice(int(ends[i] - counts[i]), int(ends[i]))
            model.put(int(key), nodes[sl], dists[sl], bool(flags[i]))
        assert len(store) == 4
        assert sorted(store.keys()) == sorted(model.rows)

    def test_interleaved_protocol_equivalent_to_scalar_model(self):
        """Random interleavings of scalar/batch gets and puts: identical LRU
        order (same survivor set under eviction), identical rows, identical
        hit/miss ledger."""
        rng = np.random.default_rng(2)
        store = GroupStore(max_groups=6)
        model = _ModelStore(max_groups=6)
        keyspace = np.arange(16, dtype=np.int64)
        for step in range(300):
            op = rng.integers(0, 4)
            if op == 0:  # scalar put
                key = int(rng.choice(keyspace))
                _, counts, nodes, dists, flags = self._csr([key], rng)
                row_nodes, row_dists = nodes, dists
                store.put(key, row_nodes, row_dists, bool(flags[0]))
                model.put(key, row_nodes, row_dists, bool(flags[0]))
            elif op == 1:  # scalar get
                key = int(rng.choice(keyspace))
                got = store.get(key)
                expected = model.get(key)
                assert (got is None) == (expected is None)
                if got is not None:
                    np.testing.assert_array_equal(got[0], expected[0])
                    np.testing.assert_array_equal(got[1], expected[1])
                    assert got[2] == expected[2]
            elif op == 2:  # batch put (distinct keys)
                batch = rng.choice(keyspace, size=rng.integers(1, 8), replace=False)
                keys, counts, nodes, dists, flags = self._csr(batch, rng)
                store.put_many(keys, counts, nodes, dists, flags)
                ends = np.cumsum(counts)
                for i, key in enumerate(keys):
                    sl = slice(int(ends[i] - counts[i]), int(ends[i]))
                    model.put(int(key), nodes[sl], dists[sl], bool(flags[i]))
            else:  # batch get
                batch = rng.choice(keyspace, size=rng.integers(1, 8), replace=True)
                hit_mask, hit_counts, hit_nodes, hit_dists, hit_flags = (
                    store.get_many(batch.astype(np.int64))
                )
                pos = 0
                hit_j = 0
                for j, key in enumerate(batch):
                    expected = model.get(int(key))
                    assert bool(hit_mask[j]) == (expected is not None)
                    if expected is not None:
                        count = int(hit_counts[hit_j])
                        assert count == expected[0].size
                        np.testing.assert_array_equal(
                            hit_nodes[pos : pos + count], expected[0]
                        )
                        np.testing.assert_array_equal(
                            hit_dists[pos : pos + count], expected[1]
                        )
                        assert bool(hit_flags[hit_j]) == expected[2]
                        pos += count
                        hit_j += 1
            assert len(store) == len(model.rows)
            assert sorted(store.keys()) == sorted(model.rows)
            assert store.hits == model.hits and store.misses == model.misses
        assert store.hits > 0 and store.misses > 0  # the walk exercised both

    def test_rows_survive_pool_compaction(self):
        """Heavy replacement churn forces compaction; live rows must be intact."""
        rng = np.random.default_rng(3)
        store = GroupStore(max_groups=8)
        latest = {}
        for step in range(500):
            key = int(rng.integers(0, 8))
            nodes = rng.integers(0, 1000, size=rng.integers(1, 30)).astype(np.int64)
            dists = nodes + 1
            store.put(key, nodes, dists, False)
            latest[key] = (nodes, dists)
        for key, (nodes, dists) in latest.items():
            got = store.get(key)
            np.testing.assert_array_equal(got[0], nodes)
            np.testing.assert_array_equal(got[1], dists)

    def test_rows_without_dists_report_none_scalar_and_zeros_batch(self):
        store = GroupStore()
        store.put(5, np.asarray([1, 2], dtype=np.int64), None, False)
        nodes, dists, flag = store.get(5)
        assert dists is None
        hit_mask, counts, _, batch_dists, _ = store.get_many(
            np.asarray([5], dtype=np.int64)
        )
        assert bool(hit_mask[0]) and int(counts[0]) == 2
        np.testing.assert_array_equal(batch_dists, [0, 0])


class TestGroupStoreRegistry:
    def test_same_key_returns_same_store(self):
        topology, library, cache, _ = _system()
        artifacts = ArtifactCache()
        signature = (3.0, "nearest", True)
        assert artifacts.group_store(topology, cache, signature) is artifacts.group_store(
            topology, cache, signature
        )

    def test_distinct_signatures_get_distinct_stores(self):
        topology, library, cache, _ = _system()
        artifacts = ArtifactCache()
        a = artifacts.group_store(topology, cache, (3.0, "nearest", True))
        b = artifacts.group_store(topology, cache, (4.0, "nearest", True))
        assert a is not b

    def test_distinct_placements_get_distinct_stores(self):
        topology, library, cache, _ = _system(seed=0)
        _, _, other, _ = _system(seed=5)
        artifacts = ArtifactCache()
        signature = (3.0, "nearest", True)
        assert artifacts.group_store(topology, cache, signature) is not (
            artifacts.group_store(topology, other, signature)
        )


class TestMixedEngineArtifacts:
    """One ArtifactCache shared across runs on different engines.

    The cached artifacts (placements, group-index candidate rows) are pure
    precompute — they must be engine-independent, so interleaving engines
    over a shared cache must (a) reuse the memoised rows and (b) change no
    simulated value.
    """

    def test_queueing_sweep_reuses_store_across_engines(self):
        from repro.simulation.queueing import QueueingSimulation
        from repro.workload.arrivals import PoissonArrivalProcess

        artifacts = ArtifactCache()
        simulation = QueueingSimulation(
            topology=Torus2D(49),
            library=FileLibrary(20),
            placement=PartitionPlacement(3),
            arrivals=PoissonArrivalProcess(rate_per_node=0.6),
            radius=3.0,
            artifacts=artifacts,
        )
        batch = simulation.run(10.0, seed=3, engine="batch")
        rows_after_first = artifacts.stats()["group_rows"]
        reference = simulation.run(10.0, seed=3, engine="reference")
        batch_again = simulation.run(10.0, seed=3, engine="batch")
        # Engine-independent and identical results over the shared cache...
        assert batch == reference == batch_again
        # ...while the second batch run hit (not re-built) the rows of the
        # first: one store, no row growth, recorded hits.
        stats = artifacts.stats()
        assert stats["stores"] == 1
        assert stats["group_rows"] == rows_after_first
        assert stats["group_hits"] > 0
        # The shared placement was placed exactly once across all three runs.
        assert stats["placement_misses"] == 1
        assert stats["placement_hits"] >= 2

    def test_static_trials_identical_across_engines_with_shared_cache(self):
        from repro.simulation.config import SimulationConfig
        from repro.simulation.multirun import run_trials

        config = SimulationConfig(
            num_nodes=49,
            num_files=20,
            cache_size=3,
            placement="partition",
            strategy="proximity_two_choice",
            strategy_params={"radius": 3},
        )
        artifacts = ArtifactCache()
        batch = run_trials(
            config, 3, seed=5, assignment_engine="batch", artifacts=artifacts
        )
        reference = run_trials(
            config, 3, seed=5, assignment_engine="reference", artifacts=artifacts
        )
        np.testing.assert_array_equal(batch.max_loads, reference.max_loads)
        np.testing.assert_array_equal(
            batch.communication_costs, reference.communication_costs
        )
        np.testing.assert_array_equal(batch.fallback_rates, reference.fallback_rates)
        # The deterministic placement crossed the engine boundary via the
        # shared cache instead of being re-placed.
        assert artifacts.stats()["placement_misses"] == 1
        assert artifacts.stats()["placement_hits"] >= 5


class TestStoreSignatures:
    def test_constrained_strategies_expose_signatures(self):
        topology = Torus2D(49)
        assert ProximityTwoChoiceStrategy(radius=3).store_signature(topology) == (
            3.0,
            "nearest",
            True,
        )
        assert LeastLoadedInBallStrategy(radius=np.inf).store_signature(topology) == (
            np.inf,
            "nearest",
            True,
        )

    def test_shared_mode_and_no_index_strategies_return_none(self):
        topology = Torus2D(49)
        assert ProximityTwoChoiceStrategy(radius=np.inf).store_signature(topology) is None
        assert NearestReplicaStrategy().store_signature(topology) is None
