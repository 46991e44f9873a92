"""Full replication: every server caches the whole library (``M = K``).

This is the memory-abundant regime of Example 1 and Theorem 6 in the paper:
with every file available everywhere, the only remaining source of correlation
between the two choices of Strategy II is the proximity constraint.
"""

from __future__ import annotations

import numpy as np

from repro.catalog.library import FileLibrary
from repro.exceptions import PlacementError
from repro.placement.base import PlacementStrategy
from repro.placement.cache import CacheState
from repro.rng import SeedLike
from repro.topology.base import Topology

__all__ = ["FullReplicationPlacement"]


class FullReplicationPlacement(PlacementStrategy):
    """Every server stores every file.

    The ``cache_size`` argument is optional; when provided it must equal the
    library size and is otherwise inferred at placement time.
    """

    name = "full_replication"
    deterministic = True

    def __init__(self, cache_size: int | None = None) -> None:
        # Defer the K == M check to place(); use a placeholder for the base class.
        super().__init__(cache_size if cache_size is not None else 1)
        self._explicit_cache_size = cache_size

    def place(
        self, topology: Topology, library: FileLibrary, seed: SeedLike = None
    ) -> CacheState:
        K = library.num_files
        if self._explicit_cache_size is not None and self._explicit_cache_size != K:
            raise PlacementError(
                f"full replication requires cache_size == K, got "
                f"cache_size={self._explicit_cache_size}, K={K}"
            )
        self._cache_size = K
        # CacheState copies the slots into its own type, so one broadcast
        # row is all it needs.
        return CacheState(np.broadcast_to(np.arange(K), (topology.n, K)), K)

    def as_dict(self) -> dict[str, object]:
        return {"name": self.name, "cache_size": self._explicit_cache_size}
