"""Network topologies on which the cache network is simulated.

The paper places ``n`` caching servers on a ``sqrt(n) x sqrt(n)`` torus (the
grid with wrap-around, used to avoid boundary effects; all asymptotic results
hold for the bounded grid as well).  Every topology states its hop metric
once, as a broadcasting ``distances_between_unchecked``, and
:class:`~repro.topology.base.Topology` derives the validated int64 queries
(``distances_from``, ``pairwise_distances``, ``distances_between``) from it.
This subpackage provides:

* :class:`~repro.topology.torus.Torus2D` — the paper's topology,
* :class:`~repro.topology.grid.Grid2D` — the bounded grid variant,
* :class:`~repro.topology.ring.Ring` — a 1-D cycle (useful for sanity checks
  and ablations on dimensionality),
* :class:`~repro.topology.complete.CompleteTopology` — every pair at distance
  one, the "no proximity structure" reference,
* the closed-form distance formulas in :mod:`repro.topology.distance`,
* ball-size arithmetic in :mod:`repro.topology.neighborhood`,
* a :func:`~repro.topology.factory.create_topology` convenience factory.
"""

from repro.topology.base import Topology
from repro.topology.torus import Torus2D
from repro.topology.grid import Grid2D
from repro.topology.ring import Ring
from repro.topology.complete import CompleteTopology
from repro.topology.factory import create_topology, available_topologies
from repro.topology.neighborhood import ball_size_torus
from repro.topology import distance

__all__ = [
    "Topology",
    "Torus2D",
    "Grid2D",
    "Ring",
    "CompleteTopology",
    "create_topology",
    "available_topologies",
    "ball_size_torus",
    "distance",
]
