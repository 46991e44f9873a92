"""Tests for the session artifact cache and the group-store memoisation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.catalog.library import FileLibrary
from repro.kernels.group_index import GroupStore, build_group_index
from repro.placement.cache import CacheState
from repro.placement.partition import PartitionPlacement
from repro.placement.proportional import ProportionalPlacement
from repro.rng import spawn_seeds
from repro.session import ArtifactCache, CacheNetworkSession
from repro.session.artifacts import PLACEMENT_BYTES
from repro.strategies.base import AssignmentResult, FallbackPolicy
from repro.strategies.hybrid import ThresholdHybridStrategy
from repro.strategies.least_loaded_in_ball import LeastLoadedInBallStrategy
from repro.strategies.proximity_two_choice import ProximityTwoChoiceStrategy
from repro.strategies.random_replica import RandomReplicaStrategy
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

    def test_lru_eviction_bounds_memory(self, monkeypatch):
        monkeypatch.setattr("repro.session.artifacts.MAX_PLACEMENTS", 2)
        topology, library = Torus2D(49), FileLibrary(20)
        artifacts = ArtifactCache()
        placement = ProportionalPlacement(3)
        for seed in range(4):
            artifacts.placement(placement, topology, library, np.random.SeedSequence(seed))
        assert artifacts.stats()["placements"] == 2

    def test_placement_cap_read_at_call_time(self, monkeypatch):
        # Lowering MAX_PLACEMENTS under a live cache bounds its next insert.
        topology, library = Torus2D(49), FileLibrary(20)
        artifacts = ArtifactCache()
        placement = ProportionalPlacement(3)
        for seed in range(3):
            artifacts.placement(placement, topology, library, np.random.SeedSequence(seed))
        assert artifacts.stats()["placements"] == 3
        monkeypatch.setattr("repro.session.artifacts.MAX_PLACEMENTS", 1)
        last = artifacts.placement(
            placement, topology, library, np.random.SeedSequence(3)
        )
        assert artifacts.stats()["placements"] == 1
        assert artifacts.placement(
            placement, topology, library, np.random.SeedSequence(3)
        ) is last

    def test_lru_keeps_the_recently_used_placement(self, monkeypatch):
        # Re-fetching an entry must refresh its LRU position: after touching
        # seed 0 again, inserting a third placement evicts seed 1, not seed 0.
        monkeypatch.setattr("repro.session.artifacts.MAX_PLACEMENTS", 2)
        topology, library = Torus2D(49), FileLibrary(20)
        artifacts = ArtifactCache()
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

    def test_byte_budget_drops_unreplayed_placements(self):
        # A multi-run never replays a trial's seed: at Figure 5's M = 100
        # (about 1.9 MB a state) the budget keeps two, not MAX_PLACEMENTS.
        topology, library = Torus2D(2025), FileLibrary(500)
        artifacts = ArtifactCache()
        placement = ProportionalPlacement(100)
        for seed in range(5):
            artifacts.placement(placement, topology, library, np.random.SeedSequence(seed))
        assert artifacts.stats()["placements"] == 2
        assert PLACEMENT_BYTES < 3 * placement.place(topology, library, seed=0).nbytes

    def test_byte_budget_evicts_in_lru_order(self, monkeypatch):
        topology, library = Torus2D(49), FileLibrary(20)
        placement = ProportionalPlacement(3)
        one = placement.place(topology, library, seed=0).nbytes
        monkeypatch.setattr("repro.session.artifacts.PLACEMENT_BYTES", 2 * one)
        artifacts = ArtifactCache()
        seeds = [np.random.SeedSequence(seed) for seed in range(3)]
        first = artifacts.placement(placement, topology, library, seeds[0])
        artifacts.placement(placement, topology, library, seeds[1])
        assert artifacts.placement(placement, topology, library, seeds[0]) is first
        artifacts.placement(placement, topology, library, seeds[2])  # evicts seed 1
        assert artifacts.stats()["placements"] == 2
        assert artifacts.placement(placement, topology, library, seeds[0]) is first
        artifacts.placement(placement, topology, library, seeds[1])
        assert artifacts.stats()["placement_misses"] == 4

    def test_most_recent_placement_kept_over_budget(self, monkeypatch):
        monkeypatch.setattr("repro.session.artifacts.PLACEMENT_BYTES", 1)
        topology, library = Torus2D(49), FileLibrary(20)
        artifacts = ArtifactCache()
        placement = ProportionalPlacement(3)
        for seed in (0, 1):
            last = artifacts.placement(
                placement, topology, library, np.random.SeedSequence(seed)
            )
        assert artifacts.stats()["placements"] == 1
        assert artifacts.placement(
            placement, topology, library, np.random.SeedSequence(1)
        ) is last
        assert artifacts.placement_hits == 1

    def test_over_budget_state_dropped_before_its_successor_is_placed(self, monkeypatch):
        # So a paper-scale trial's placement is never resident beside the
        # previous trial's.
        monkeypatch.setattr("repro.session.artifacts.PLACEMENT_BYTES", 1)
        topology, library = Torus2D(49), FileLibrary(20)
        artifacts = ArtifactCache()
        held_while_placing = []

        class RecordingPlacement(ProportionalPlacement):
            def place(self, *args, **kwargs):
                held_while_placing.append(artifacts.stats()["placements"])
                return super().place(*args, **kwargs)

        for seed in range(3):
            artifacts.placement(
                RecordingPlacement(3), topology, library, np.random.SeedSequence(seed)
            )
        assert held_while_placing == [0, 0, 0]
        assert artifacts.stats()["placements"] == 1

    def test_store_lru_eviction_drops_oldest_store(self, monkeypatch):
        monkeypatch.setattr("repro.session.artifacts.MAX_STORES", 2)
        topology, library, cache, _ = _system()
        artifacts = ArtifactCache()
        first = artifacts.group_store(topology, cache, 1.0)
        artifacts.group_store(topology, cache, 2.0)
        artifacts.group_store(topology, cache, 3.0)  # evicts radius 1
        assert artifacts.stats()["stores"] == 2
        assert artifacts.group_store(topology, cache, 1.0) is not first


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

    def test_full_store_stops_retaining(self, monkeypatch):
        monkeypatch.setattr("repro.kernels.group_index.MAX_GROUPS", 5)
        topology, library, cache, requests = _system()
        store = GroupStore()
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

    def test_unretained_groups_rebuilt_on_every_window(self, monkeypatch):
        # A full store serves the rows it holds and misses the rest on every
        # later window, which rebuilds them exactly as the store-free build.
        monkeypatch.setattr("repro.kernels.group_index.MAX_GROUPS", 5)
        topology, library, cache, requests = _system()
        kwargs = dict(radius=3.0, fallback=FallbackPolicy.NEAREST, need_dists=True)
        plain = build_group_index(topology, cache, requests, **kwargs)
        store = GroupStore()
        retained = None
        for window in range(3):
            built = build_group_index(topology, cache, requests, store=store, **kwargs)
            np.testing.assert_array_equal(built.counts, plain.counts)
            np.testing.assert_array_equal(built.nodes, plain.nodes)
            np.testing.assert_array_equal(built.dists, plain.dists)
            np.testing.assert_array_equal(built.fallback, plain.fallback)
            assert store.hits == 5 * window
            assert store.misses == (plain.num_groups - 5) * window
            if retained is None:
                retained = sorted(store.keys())
            assert sorted(store.keys()) == retained

    def test_precompute_store_accounting(self):
        """Cold probe free, warm all-hit, at n = 4096, m = 5n, K = 128, r = 8."""
        topology = Torus2D(4096)
        library = FileLibrary(128)
        cache = PartitionPlacement(8).place(topology, library, seed=0)
        requests = UniformOriginWorkload(5 * 4096).generate(topology, library, seed=3)
        kwargs = dict(radius=8.0, fallback=FallbackPolicy.NEAREST, need_dists=True)
        store = GroupStore()
        cold = build_group_index(topology, cache, requests, store=store, **kwargs)
        assert store.hits == 0 and store.misses == 0  # cold short-circuit
        build_group_index(topology, cache, requests, store=store, **kwargs)
        assert store.hits == cold.num_groups and store.misses == 0


class TestGroupStoreBatch:
    """The batch interface against a plain-dict model of the insert-only store."""

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

    @staticmethod
    def _rows(store, keys):
        """``{key: (nodes, dists, flag)}`` of the hit keys, in probe order."""
        keys = np.asarray(keys, dtype=np.int64)
        hit_mask, counts, nodes, dists, flags = store.get_many(keys)
        ends = np.cumsum(counts)
        return {
            int(key): (nodes[end - count : end], dists[end - count : end], bool(flag))
            for key, count, end, flag in zip(keys[hit_mask], counts, ends, flags)
        }

    @staticmethod
    def _assert_rows_equal(got, expected):
        assert sorted(got) == sorted(expected)
        for key, (nodes, dists, flag) in expected.items():
            np.testing.assert_array_equal(got[key][0], nodes)
            np.testing.assert_array_equal(got[key][1], dists)
            assert got[key][2] == flag

    def test_put_into_full_store_changes_nothing(self, monkeypatch):
        monkeypatch.setattr("repro.kernels.group_index.MAX_GROUPS", 3)
        rng = np.random.default_rng(4)
        store = GroupStore()
        store.put_many(*self._csr([10, 11, 12], rng))
        before = self._rows(store, [10, 11, 12])
        store.put_many(*self._csr([13, 14], rng))
        assert len(store) == 3
        assert sorted(store.keys()) == [10, 11, 12]
        hit_mask = store.get_many(np.asarray([13, 14], dtype=np.int64))[0]
        assert not hit_mask.any()
        self._assert_rows_equal(self._rows(store, [10, 11, 12]), before)

    def test_capacity_read_at_call_time(self, monkeypatch):
        # Lowering MAX_GROUPS under a live store bounds its next put.
        rng = np.random.default_rng(6)
        store = GroupStore()
        store.put_many(*self._csr([10, 11], rng))
        monkeypatch.setattr("repro.kernels.group_index.MAX_GROUPS", 3)
        store.put_many(*self._csr([12, 13, 14], rng))
        assert sorted(store.keys()) == [10, 11, 12]

    def test_rows_survive_array_growth(self):
        """Enough rows to double the slot arrays and the pool several times."""
        rng = np.random.default_rng(5)
        store = GroupStore()
        expected = {}
        for first in range(0, 400, 8):
            keys = np.arange(first, first + 8, dtype=np.int64)
            counts = rng.integers(0, 12, size=keys.size).astype(np.int64)
            nodes = rng.integers(0, 10_000, size=int(counts.sum())).astype(np.int64)
            dists = rng.integers(0, 50, size=int(counts.sum())).astype(np.int64)
            flags = rng.random(keys.size) < 0.3
            store.put_many(keys, counts, nodes, dists, flags)
            ends = np.cumsum(counts)
            for i, key in enumerate(keys.tolist()):
                sl = slice(int(ends[i] - counts[i]), int(ends[i]))
                expected[key] = (nodes[sl], dists[sl], bool(flags[i]))
        assert len(store) == 400
        self._assert_rows_equal(self._rows(store, np.arange(400)), expected)

    def test_slots_never_shared_between_keys(self, monkeypatch):
        # Slots come from a counter, so even a key put twice (outside the
        # absent-keys contract) cannot hand a later key the slot it holds.
        monkeypatch.setattr("repro.kernels.group_index.MAX_GROUPS", 8)
        store = GroupStore()

        def put(keys, values):
            values = np.asarray(values, dtype=np.int64)
            store.put_many(
                np.asarray(keys, dtype=np.int64),
                np.ones(values.size, dtype=np.int64),
                values,
                values + 100,
                values % 2 == 0,
            )

        put([1, 2], [11, 12])
        put([1], [21])
        put([3], [13])
        self._assert_rows_equal(
            self._rows(store, [1, 2, 3]),
            {1: ([21], [121], False), 2: ([12], [112], True), 3: ([13], [113], False)},
        )

    def test_random_walk_matches_first_come_model(self, monkeypatch):
        """Random interleavings of ``get_many`` and ``put_many`` (of absent
        keys) against a dict that keeps the first ``MAX_GROUPS`` keys put:
        identical retained keys, rows, flags and hit/miss ledger, with puts
        that overflow the remaining room keeping their leading keys."""
        rng = np.random.default_rng(2)
        keyspace = np.arange(16, dtype=np.int64)
        empty = np.empty(0, dtype=np.int64)
        overflows = 0
        for _ in range(20):
            max_groups = int(rng.integers(1, 9))
            monkeypatch.setattr("repro.kernels.group_index.MAX_GROUPS", max_groups)
            store = GroupStore()
            model = {}
            hits = misses = 0
            for _ in range(25):
                if rng.random() < 0.5:
                    absent = np.setdiff1d(keyspace, list(model))
                    batch = rng.permutation(absent)[: rng.integers(1, 8)]
                    keys, counts, nodes, dists, flags = self._csr(batch, rng)
                    store.put_many(keys, counts, nodes, dists, flags)
                    room = max_groups - len(model)
                    overflows += keys.size > room > 0
                    ends = np.cumsum(counts)
                    for i, key in enumerate(keys[:room].tolist()):
                        sl = slice(int(ends[i] - counts[i]), int(ends[i]))
                        model[key] = (nodes[sl], dists[sl], bool(flags[i]))
                else:
                    batch = rng.choice(keyspace, size=rng.integers(1, 8))
                    hit_mask, hit_counts, hit_nodes, hit_dists, hit_flags = (
                        store.get_many(batch)
                    )
                    rows = [model.get(int(key)) for key in batch]
                    np.testing.assert_array_equal(
                        hit_mask, [row is not None for row in rows]
                    )
                    rows = [row for row in rows if row is not None]
                    hits += len(rows)
                    misses += int(batch.size) - len(rows)
                    np.testing.assert_array_equal(
                        hit_counts, [row[0].size for row in rows]
                    )
                    np.testing.assert_array_equal(
                        hit_nodes, np.concatenate([empty] + [row[0] for row in rows])
                    )
                    np.testing.assert_array_equal(
                        hit_dists, np.concatenate([empty] + [row[1] for row in rows])
                    )
                    np.testing.assert_array_equal(hit_flags, [row[2] for row in rows])
                assert len(store) == len(model)
                assert sorted(store.keys()) == sorted(model)
                assert (store.hits, store.misses) == (hits, misses)
        assert overflows > 0


class TestGroupStoreRegistry:
    def test_same_key_returns_same_store(self):
        topology, library, cache, _ = _system()
        artifacts = ArtifactCache()
        assert artifacts.group_store(topology, cache, 3.0) is artifacts.group_store(
            topology, cache, 3.0
        )

    def test_distinct_radii_get_distinct_stores(self):
        topology, library, cache, _ = _system()
        artifacts = ArtifactCache()
        a = artifacts.group_store(topology, cache, 3.0)
        b = artifacts.group_store(topology, cache, 4.0)
        assert a is not b

    def test_distinct_placements_get_distinct_stores(self):
        topology, library, cache, _ = _system(seed=0)
        _, _, other, _ = _system(seed=5)
        artifacts = ArtifactCache()
        assert artifacts.group_store(topology, cache, 3.0) is not (
            artifacts.group_store(topology, other, 3.0)
        )

    def test_stats_sum_rows_and_ledger_over_stores(self):
        topology, library, cache, requests = _system()
        artifacts = ArtifactCache()
        stores = []
        for radius in (2.0, 3.0):
            store = artifacts.group_store(topology, cache, radius)
            kwargs = dict(radius=radius, fallback=FallbackPolicy.NEAREST, need_dists=True)
            for _ in range(2):
                build_group_index(topology, cache, requests, store=store, **kwargs)
            stores.append(store)
        stats = artifacts.stats()
        assert stats["stores"] == 2
        assert stats["group_rows"] == sum(len(s) for s in stores) > 0
        assert stats["group_hits"] == sum(s.hits for s in stores)
        # Each store's one warm pass hits every row it holds, once.
        assert stats["group_hits"] == stats["group_rows"]
        assert stats["group_misses"] == 0


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


class TestStoreRequests:
    """Static sessions ask for no GroupStore, on any engine."""

    @pytest.mark.parametrize("engine", ["reference", "batch"])
    def test_windowed_strategy_ii_session(self, engine):
        topology, library = Torus2D(49), FileLibrary(20)
        strategy = ProximityTwoChoiceStrategy(radius=3, engine=engine)
        artifacts = ArtifactCache()
        session = CacheNetworkSession(
            topology,
            library,
            PartitionPlacement(3),
            strategy,
            UniformOriginWorkload(120),
            seed=4,
            artifacts=artifacts,
        )
        requests = session.generate_workload()
        windows = [requests.subset(np.arange(s, s + 30)) for s in range(0, 120, 30)]
        served = list(session.serve_stream(windows, resolve_uncached=False))
        assert len(served) == 4
        assert artifacts.stats()["stores"] == 0
        merged = AssignmentResult.concatenate([w.assignment for w in served])
        one_shot = strategy.assign(
            topology, session.cache, requests, seed=spawn_seeds(4, 3)[2]
        )
        np.testing.assert_array_equal(merged.servers, one_shot.servers)
        np.testing.assert_array_equal(merged.distances, one_shot.distances)
        np.testing.assert_array_equal(merged.fallback_mask, one_shot.fallback_mask)

    @pytest.mark.parametrize(
        "factory",
        [
            lambda: RandomReplicaStrategy(radius=3, engine="batch"),
            lambda: LeastLoadedInBallStrategy(radius=3, engine="batch"),
            lambda: ThresholdHybridStrategy(radius=3, engine="batch"),
        ],
        ids=["random_replica", "least_loaded_in_ball", "hybrid"],
    )
    def test_windowed_constrained_sessions(self, factory):
        # The other strategies with a finite-radius group index: their
        # windows build every row afresh too.
        artifacts = ArtifactCache()
        session = CacheNetworkSession(
            Torus2D(49),
            FileLibrary(20),
            PartitionPlacement(3),
            factory(),
            UniformOriginWorkload(120),
            seed=4,
            artifacts=artifacts,
        )
        requests = session.generate_workload()
        for start in range(0, 120, 30):
            session.serve(requests.subset(np.arange(start, start + 30)))
        stats = artifacts.stats()
        assert stats["stores"] == 0
        assert stats["group_rows"] == 0
