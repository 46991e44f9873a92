"""The paper's cache placement: i.i.d. proportional sampling with replacement.

Each server independently fills each of its ``M`` cache slots with a file
drawn from the popularity profile ``P`` *with replacement* (Section II-B of
the paper).  Under the uniform profile this makes every slot a uniform file;
under Zipf it biases caches toward popular files, which is what produces the
communication-cost regimes of Theorem 3.
"""

from __future__ import annotations

from repro.catalog.library import FileLibrary
from repro.placement.base import PlacementStrategy
from repro.placement.cache import CacheState, slot_type
from repro.rng import SeedLike
from repro.topology.base import Topology

__all__ = ["ProportionalPlacement"]


class ProportionalPlacement(PlacementStrategy):
    """Independent proportional-to-popularity placement with replacement.

    :meth:`place` fills the ``(n, M)`` slot array with one
    :meth:`~repro.catalog.library.FileLibrary.sample_files` call, so the
    slots are the popularity profile's draws in row-major order (one
    ``Generator.random`` double per slot; see
    :func:`~repro.rng.choice_from_pmf`), and :class:`CacheState` builds the
    file index from them.  It makes no RNG call of its own.
    """

    name = "proportional"

    def place(
        self, topology: Topology, library: FileLibrary, seed: SeedLike = None
    ) -> CacheState:
        self.validate(library)
        # Narrowed at once, so the int64 draws are freed before CacheState
        # builds its index.
        slots = library.sample_files((topology.n, self._cache_size), seed).astype(
            slot_type(library.num_files)
        )
        return CacheState(slots, library.num_files)
