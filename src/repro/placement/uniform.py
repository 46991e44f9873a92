"""Uniform placement of distinct files (sampling without replacement).

Every server stores ``M`` *distinct* files chosen uniformly at random from the
library, independently of other servers.  This matches the setup of the
simulation figures ("files with Uniform popularity are placed uniformly at
random in each node") when duplicates within a cache are undesirable, and is
the natural ablation partner of the with-replacement placement: it guarantees
``t(u) = M`` exactly, i.e. (1, ·)-goodness in the sense of Definition 5.
"""

from __future__ import annotations

import numpy as np

from repro.catalog.library import FileLibrary
from repro.exceptions import PlacementError
from repro.placement.base import PlacementStrategy
from repro.placement.cache import CacheState
from repro.rng import SeedLike, as_generator
from repro.topology.base import Topology

__all__ = ["UniformDistinctPlacement"]


class UniformDistinctPlacement(PlacementStrategy):
    """Each server caches ``M`` distinct uniformly-chosen files.

    Requires ``M <= K``.  When the library popularity is non-uniform the file
    *identity* is still ignored by this placement — use
    :class:`~repro.placement.proportional.ProportionalPlacement` to bias the
    caches by popularity.
    """

    name = "uniform_distinct"

    def validate(self, library: FileLibrary) -> None:
        super().validate(library)
        if self._cache_size > library.num_files:
            raise PlacementError(
                f"cache_size M={self._cache_size} exceeds library size K={library.num_files}; "
                "distinct placement requires M <= K"
            )

    def place(
        self, topology: Topology, library: FileLibrary, seed: SeedLike = None
    ) -> CacheState:
        self.validate(library)
        rng = as_generator(seed)
        n = topology.n
        K = library.num_files
        if self._cache_size == K:
            # CacheState copies the slots into its own type, so one
            # broadcast row is all it needs.
            return CacheState(np.broadcast_to(np.arange(K), (n, K)), K)
        # Vectorised sampling without replacement per row: argpartition of a
        # random matrix gives each row an independent uniform M-subset.
        randoms = rng.random((n, K))
        slots = np.argpartition(randoms, self._cache_size - 1, axis=1)[:, : self._cache_size]
        return CacheState(slots, K)
