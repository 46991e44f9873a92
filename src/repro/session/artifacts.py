"""Memoised build artifacts shared across trials, windows and sweep points.

A cache-network simulation point is rebuilt surprisingly often: every trial of
a multi-run re-places the caches, and every window and sweep point of a
queueing run would naively re-derive the kernel group index.  Both artifacts
are pure functions of inputs that frequently repeat:

* a **placement** depends on ``(placement strategy, topology, library, seed)``
  — and for deterministic placements (partition, full replication) not even on
  the seed, so all trials of a multi-run share one
  :class:`~repro.placement.cache.CacheState`;
* the **group-index precompute** depends on ``(topology, cache state,
  radius)`` — never on the evolving load vector — so a queueing session's
  per-``(origin, file)`` candidate rows are memoised in a
  :class:`~repro.kernels.group_index.GroupStore` keyed on the cache state's
  content fingerprint plus the radius; warm sweep points read every row from
  it.  Static sessions ask for no store: at the hit shares their streams see,
  the lookup measured slower than the rebuild.

The :class:`ArtifactCache` owns both memos with small LRU bounds on the number
of placements (``MAX_PLACEMENTS``) and stores (``MAX_STORES``): reuse is free
when inputs repeat (deterministic placements, same-seed replays, sweep points
sharing a placement) and memory stays bounded when they do not (random
placements under fresh seeds churn through the LRU).  Placements are bounded
by bytes as well, at ``PLACEMENT_BYTES``: a multi-run never replays a trial's
seed, so without it a paper-scale run would hold ``MAX_PLACEMENTS`` states it
never hits again.  The most recently used placement is always kept, whatever
its size, so a replay of the last one still hits.  Each store is itself
insert-only and capped at :data:`~repro.kernels.group_index.MAX_GROUPS` rows;
a full store keeps serving the rows it holds and stops retaining new ones.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from typing import Hashable

import numpy as np

from repro.catalog.library import FileLibrary
from repro.kernels.group_index import GroupStore
from repro.placement.base import PlacementStrategy
from repro.placement.cache import CacheState
from repro.rng import as_generator
from repro.topology.base import Topology

__all__ = ["ArtifactCache", "MAX_PLACEMENTS", "MAX_STORES", "PLACEMENT_BYTES"]

#: Retained placements, at most; fewer once they hold ``PLACEMENT_BYTES``.
MAX_PLACEMENTS = 16

#: Retained :class:`~repro.kernels.group_index.GroupStore` objects, one per
#: distinct ``(topology, cache fingerprint, radius)``.
MAX_STORES = 8

#: Bytes of retained placements (:attr:`CacheState.nbytes`) beyond which the
#: least recently used ones are dropped; the most recent one always stays.
#: Two or so of a Figure 5 point's M = 100 states (about 2 MB each at
#: n = 2025) fit; at the paper's Figure 3 sizes only the last one stays.
PLACEMENT_BYTES = 4 << 20


def _topology_key(topology: Topology) -> tuple:
    return (type(topology).__name__, topology.n)


def _library_key(library: FileLibrary) -> tuple:
    digest = hashlib.blake2b(
        library.popularity_vector().tobytes(), digest_size=16
    ).hexdigest()
    return (library.num_files, digest)


def _placement_key(placement: PlacementStrategy) -> tuple:
    return tuple(sorted((k, v) for k, v in placement.as_dict().items()))


def _seed_key(seed: np.random.SeedSequence) -> tuple:
    entropy: tuple[int, ...] = ()
    if seed.entropy is not None:
        entropy = tuple(int(e) for e in np.atleast_1d(seed.entropy))
    return (entropy, tuple(int(k) for k in seed.spawn_key))


class ArtifactCache:
    """LRU-bounded memo of placements and group-index precompute."""

    def __init__(self) -> None:
        self._placements: OrderedDict[Hashable, CacheState] = OrderedDict()
        self._stores: OrderedDict[Hashable, GroupStore] = OrderedDict()
        self.placement_hits = 0
        self.placement_misses = 0

    # -------------------------------------------------------------- placements
    def placement(
        self,
        placement: PlacementStrategy,
        topology: Topology,
        library: FileLibrary,
        seed: np.random.SeedSequence,
    ) -> CacheState:
        """The memoised result of ``placement.place(topology, library, seed)``.

        Deterministic placements (``placement.deterministic``) are keyed
        without the seed, so every trial of a multi-run — each with its own
        child seed — shares one placed state.  Randomised placements include
        the seed's ``(entropy, spawn_key)`` in the key and therefore only hit
        on exact same-seed replays.  A new state evicts the least recently
        used ones while more than ``MAX_PLACEMENTS`` are held or they take
        more than ``PLACEMENT_BYTES``, down to the new state itself.
        """
        key: tuple = (
            _placement_key(placement),
            _topology_key(topology),
            _library_key(library),
        )
        if not placement.deterministic:
            key = key + (_seed_key(seed),)
        cached = self._placements.get(key)
        if cached is not None:
            self._placements.move_to_end(key)
            self.placement_hits += 1
            return cached
        self.placement_misses += 1
        # States the new one would push out go before it is built, so a
        # paper-scale trial's placement never shares memory with its
        # predecessor's.  Only states the second call evicts anyway go early.
        self._evict_placements(keep=0)
        state = placement.place(topology, library, as_generator(seed))
        self._placements[key] = state
        self._evict_placements(keep=1)
        return state

    def _evict_placements(self, keep: int) -> None:
        """Drop LRU placements while over the count or the byte budget.

        The ``keep`` most recently used ones stay whatever their size.
        """
        while len(self._placements) > keep and (
            len(self._placements) > MAX_PLACEMENTS
            or sum(state.nbytes for state in self._placements.values()) > PLACEMENT_BYTES
        ):
            self._placements.popitem(last=False)

    # ------------------------------------------------------------ group stores
    def group_store(
        self, topology: Topology, cache: CacheState, radius: float
    ) -> GroupStore:
        """The shared :class:`GroupStore` for the candidate rows at ``radius``.

        Queueing windows resolve every row with the NEAREST fallback and
        materialise its distances, so beyond the radius the rows depend only
        on the cache state (keyed by its content fingerprint) and the
        topology.
        """
        key = (_topology_key(topology), cache.fingerprint(), float(radius))
        store = self._stores.get(key)
        if store is not None:
            self._stores.move_to_end(key)
            return store
        store = GroupStore()
        self._stores[key] = store
        while len(self._stores) > MAX_STORES:
            self._stores.popitem(last=False)
        return store

    # ------------------------------------------------------------------- stats
    def stats(self) -> dict[str, int]:
        """Counters for diagnostics and tests."""
        return {
            "placements": len(self._placements),
            "placement_hits": self.placement_hits,
            "placement_misses": self.placement_misses,
            "stores": len(self._stores),
            "group_rows": sum(len(s) for s in self._stores.values()),
            "group_hits": sum(s.hits for s in self._stores.values()),
            "group_misses": sum(s.misses for s in self._stores.values()),
        }

    def __repr__(self) -> str:
        stats = self.stats()
        return (
            f"ArtifactCache(placements={stats['placements']}, "
            f"stores={stats['stores']}, group_rows={stats['group_rows']})"
        )
