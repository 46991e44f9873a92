"""Common machinery shared by all assignment strategies.

An assignment strategy maps every request of an ordered batch to a server that
caches the requested file.  The outcome is an :class:`AssignmentResult`
holding, per request, the chosen server and the hop distance travelled; the
two paper metrics (maximum load ``L`` and communication cost ``C``) are
derived properties of this result.

The :class:`FallbackPolicy` enumeration covers the corner case the paper's
asymptotic regime excludes: what to do when the proximity ball ``B_r(u)``
contains no replica of the requested file (or the file is cached nowhere).
All strategies record how often a fallback fired so that experiments outside
the theorem's regime can report it.
"""

from __future__ import annotations

import copy
import enum
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (kernels import us)
    from repro.kernels.group_index import GroupStore

from repro.backends.registry import resolve_engine, resolve_engine_name
from repro.exceptions import NoReplicaError, StrategyError
from repro.placement.cache import CacheState
from repro.rng import SeedLike
from repro.topology.base import Topology
from repro.types import FloatArray, IntArray
from repro.workload.request import RequestBatch

__all__ = [
    "FallbackPolicy",
    "AssignmentResult",
    "AssignmentStrategy",
]


class FallbackPolicy(str, enum.Enum):
    """What to do when ``B_r(u)`` contains no replica of the requested file.

    Attributes
    ----------
    NEAREST:
        Fall back to the globally nearest replica (Strategy I behaviour for
        that single request).  The default.
    EXPAND:
        Repeatedly double the proximity radius until at least one replica is
        inside the ball, then proceed normally.
    ERROR:
        Raise :class:`~repro.exceptions.StrategyError`.  Useful in tests and
        when operating strictly inside the regime of Theorem 4.
    """

    NEAREST = "nearest"
    EXPAND = "expand"
    ERROR = "error"


@dataclass(frozen=True)
class AssignmentResult:
    """Outcome of assigning a request batch to servers.

    Attributes
    ----------
    servers:
        Server chosen for each request, shape ``(m,)`` in request order.
    distances:
        Hop distance between each request's origin and its server, shape
        ``(m,)``.
    num_nodes:
        Number of servers ``n`` in the network.
    strategy_name:
        Name of the strategy that produced the assignment.
    fallback_mask:
        Boolean array marking the requests for which the fallback policy had
        to be invoked (no in-ball replica).
    """

    servers: IntArray
    distances: IntArray
    num_nodes: int
    strategy_name: str
    fallback_mask: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        servers = np.asarray(self.servers, dtype=np.int64)
        distances = np.asarray(self.distances, dtype=np.int64)
        if servers.ndim != 1 or distances.ndim != 1 or servers.shape != distances.shape:
            raise StrategyError("servers and distances must be 1-D arrays of equal length")
        if self.num_nodes <= 0:
            raise StrategyError("num_nodes must be positive")
        if servers.size and (servers.min() < 0 or servers.max() >= self.num_nodes):
            raise StrategyError(
                f"assigned servers must be in [0, {self.num_nodes}), got range "
                f"[{servers.min()}, {servers.max()}]"
            )
        if np.any(distances < 0):
            raise StrategyError("distances must be non-negative")
        mask = self.fallback_mask
        if mask is None:
            mask = np.zeros(servers.shape, dtype=bool)
        else:
            mask = np.asarray(mask, dtype=bool)
            if mask.shape != servers.shape:
                raise StrategyError("fallback_mask must have the same shape as servers")
        object.__setattr__(self, "servers", servers)
        object.__setattr__(self, "distances", distances)
        object.__setattr__(self, "fallback_mask", mask)

    # ----------------------------------------------------------------- metrics
    @property
    def num_requests(self) -> int:
        """Number of requests in the batch."""
        return int(self.servers.size)

    def loads(self) -> IntArray:
        """``T_i``: number of requests assigned to each server (length ``n``)."""
        return np.bincount(self.servers, minlength=self.num_nodes).astype(np.int64)

    def max_load(self) -> int:
        """The paper's maximum load ``L = max_i T_i``."""
        if self.num_requests == 0:
            return 0
        return int(self.loads().max())

    def communication_cost(self) -> float:
        """The paper's communication cost ``C``: mean hops per request."""
        if self.num_requests == 0:
            return 0.0
        return float(self.distances.mean())

    def total_hops(self) -> int:
        """Sum of hop distances over all requests."""
        return int(self.distances.sum())

    def fallback_count(self) -> int:
        """Number of requests that required the fallback policy."""
        return int(np.count_nonzero(self.fallback_mask))

    def fallback_rate(self) -> float:
        """Fraction of requests that required the fallback policy."""
        if self.num_requests == 0:
            return 0.0
        return self.fallback_count() / self.num_requests

    def load_distribution(self) -> FloatArray:
        """Histogram of loads: entry ``k`` is the fraction of servers with load ``k``."""
        loads = self.loads()
        counts = np.bincount(loads)
        return counts.astype(np.float64) / self.num_nodes

    def summary(self) -> dict[str, float]:
        """Compact dictionary of the headline metrics."""
        return {
            "num_requests": float(self.num_requests),
            "max_load": float(self.max_load()),
            "communication_cost": self.communication_cost(),
            "fallback_rate": self.fallback_rate(),
        }

    @staticmethod
    def concatenate(results: "Sequence[AssignmentResult]") -> "AssignmentResult":
        """Merge per-window results into one batch-order result.

        All inputs must describe the same network; the strategy name of the
        first result is kept.  Used by the session layer to expose the
        assignment of a served stream as a single result, and by the
        differential tests comparing windowed and one-shot serving.
        """
        if not results:
            raise StrategyError("cannot concatenate an empty list of results")
        num_nodes = results[0].num_nodes
        if any(r.num_nodes != num_nodes for r in results):
            raise StrategyError("cannot concatenate results over different networks")
        return AssignmentResult(
            servers=np.concatenate([r.servers for r in results]),
            distances=np.concatenate([r.distances for r in results]),
            num_nodes=num_nodes,
            strategy_name=results[0].strategy_name,
            fallback_mask=np.concatenate([r.fallback_mask for r in results]),
        )

    def __repr__(self) -> str:
        return (
            f"AssignmentResult(strategy={self.strategy_name!r}, m={self.num_requests}, "
            f"L={self.max_load()}, C={self.communication_cost():.3f})"
        )


class AssignmentStrategy(ABC):
    """Base class of request assignment strategies.

    Execution is delegated to a backend registered in
    :mod:`repro.backends.registry` (family ``"assignment"``).  Engine specs
    (``"auto"``, an explicit name, or an
    :class:`~repro.backends.registry.EngineSpec`) are resolved **once**, at
    construction or :meth:`with_engine` — the strategy then carries the
    concrete engine name for its lifetime, so sessions and worker processes
    observe a pinned engine rather than re-running auto-detection.
    """

    #: Short machine-readable name (set by subclasses).
    name: str = "abstract"

    #: The operation this strategy runs from an engine's ``commit_fns``
    #: table (set by subclasses).
    _engine_op: str = ""

    #: Resolved execution-engine name; subclasses overwrite this in
    #: ``__init__`` via :meth:`_resolve_engine_spec`.
    _engine: str = "batch"

    @staticmethod
    def _resolve_engine_spec(engine) -> str:
        """Resolve an engine spec to its concrete registered name."""
        return resolve_engine_name(engine, "assignment")

    @property
    def engine(self) -> str:
        """Resolved execution-engine name (e.g. ``"batch"``)."""
        return self._engine

    @property
    def engine_supports_streaming(self) -> bool:
        """Whether this strategy's engine can serve incrementally."""
        return resolve_engine(self._engine, "assignment").supports_streaming

    def with_engine(self, engine) -> "AssignmentStrategy":
        """Return a copy of this strategy running on ``engine``.

        ``engine`` may be any spec :func:`~repro.backends.registry.
        resolve_engine` accepts; it is resolved here, once.  The engine only
        selects the implementation; results are bit-identical between engines
        for the same seed, so swapping it never changes the simulated
        distribution.
        """
        clone = copy.copy(self)
        clone._engine = self._resolve_engine_spec(engine)
        return clone

    def _engine_fn(self):
        """This strategy's operation on its resolved engine."""
        return resolve_engine(self._engine, "assignment").commit_fns[self._engine_op]

    @abstractmethod
    def assign(
        self,
        topology: Topology,
        cache: CacheState,
        requests: RequestBatch,
        seed: SeedLike = None,
    ) -> AssignmentResult:
        """Assign every request of ``requests`` to a caching server."""

    # -------------------------------------------------------------- incremental
    def serve(
        self,
        topology: Topology,
        cache: CacheState,
        requests: RequestBatch,
        *,
        streams: tuple[np.random.Generator, np.random.Generator],
        loads: IntArray,
        store: "GroupStore | None" = None,
    ) -> AssignmentResult:
        """Assign one *window* of a request stream (session execution).

        Unlike :meth:`assign`, which derives fresh RNG streams from its seed
        and starts from an empty network, ``serve`` consumes the caller's
        persistent ``(rng_sample, rng_tie)`` pair and commits against (and
        updates) the caller's persistent ``loads`` vector, so successive calls
        reproduce the one-shot assignment of the concatenated windows bit for
        bit.  ``store`` optionally memoises group-index precompute across
        windows.  Only engines whose backend declares streaming support
        (``supports_streaming`` in the registry) can serve incrementally; the
        scalar reference engine exists for one-shot differential testing.
        """
        raise StrategyError(
            f"strategy {self.name!r} does not support incremental serving"
        )

    def store_signature(self, topology: Topology) -> tuple | None:
        """Key identifying this strategy's group-index precompute, or ``None``.

        Two strategies with the same signature build identical candidate
        structures for a given ``(topology, cache)`` pair and may share one
        :class:`~repro.kernels.group_index.GroupStore`.  ``None`` means the
        strategy performs no cacheable group-index precompute (shared-CSR
        aliasing mode, or no group index at all).
        """
        return None

    # ------------------------------------------------------------ shared utils
    def _require_streaming_engine(self) -> None:
        """Guard for :meth:`serve`: the engine must support incremental serving."""
        if not self.engine_supports_streaming:
            raise StrategyError(
                f"incremental serving requires a streaming-capable engine, but "
                f"this strategy runs on engine={self._engine!r}, which only "
                "supports one-shot assignment"
            )

    @staticmethod
    def _check_compatibility(
        topology: Topology, cache: CacheState, requests: RequestBatch
    ) -> None:
        """Validate that topology, cache and workload describe the same system."""
        if cache.num_nodes != topology.n:
            raise StrategyError(
                f"cache has {cache.num_nodes} nodes but topology has {topology.n}"
            )
        if requests.num_nodes != topology.n:
            raise StrategyError(
                f"requests assume {requests.num_nodes} nodes but topology has {topology.n}"
            )
        if requests.num_files != cache.num_files:
            raise StrategyError(
                f"requests assume {requests.num_files} files but cache has {cache.num_files}"
            )

    @staticmethod
    def _require_replicas(cache: CacheState, file_id: int) -> IntArray:
        """Return the replica set of ``file_id``, raising if it is empty."""
        replicas = cache.file_nodes(file_id)
        if replicas.size == 0:
            raise NoReplicaError(file_id)
        return replicas

    def as_dict(self) -> dict[str, object]:
        """JSON-serialisable description (used by the experiment harness)."""
        return {"name": self.name}

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"
