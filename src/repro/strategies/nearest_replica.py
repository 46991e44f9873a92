"""Strategy I — the nearest replica strategy (Definition 2 of the paper).

Each request is assigned to the closest server (graph shortest-path distance)
that has cached the requested file; ties are broken uniformly at random.
Equivalently, requests for file ``W_j`` are routed to the centre of the
Voronoi cell of the tessellation ``V_j`` induced by the replica set of
``W_j``.

Because the assignment of one request never depends on previously assigned
requests, the whole batch is one vectorised pass over the group index every
strategy shares (:mod:`repro.kernels`): each ``(origin, file)`` group's row is
its tied nearest replicas, found by a ring probe on the torus and by the flat
replica scan elsewhere, and every request picks uniformly among its row with a
single pre-drawn uniform.  The scalar per-request loop survives as
``engine="reference"`` and is bit-identical for the same seed.
"""

from __future__ import annotations

from repro.strategies.base import AssignmentStrategy

__all__ = ["NearestReplicaStrategy"]


class NearestReplicaStrategy(AssignmentStrategy):
    """Assign every request to the nearest replica of the requested file.

    Parameters
    ----------
    allow_origin_fallback:
        When true, a request for a file cached nowhere is served by its origin
        server with a distance equal to the network diameter (modelling a
        fetch from outside the cache network).  When false (the default) such
        a request raises :class:`~repro.exceptions.NoReplicaError`, matching
        the paper's assumption that every file has at least one replica.
    engine:
        Execution-engine spec resolved through the backend registry
        (``"auto"`` by default); bit-identical results on every engine.
    """

    name = "nearest_replica"
    _engine_op = "nearest_replica"

    def __init__(
        self,
        allow_origin_fallback: bool = False,
        engine: str = "auto",
    ) -> None:
        self._allow_origin_fallback = bool(allow_origin_fallback)
        self._engine = self._resolve_engine_spec(engine)

    @property
    def allow_origin_fallback(self) -> bool:
        """Whether uncached files are served by the origin instead of raising."""
        return self._allow_origin_fallback

    def _engine_kwargs(self) -> dict[str, object]:
        return {"allow_origin_fallback": self._allow_origin_fallback}

    def as_dict(self) -> dict[str, object]:
        return {
            "name": self.name,
            "allow_origin_fallback": self._allow_origin_fallback,
        }
