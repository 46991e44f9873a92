"""Persistent cache-network sessions: build once, serve a request stream.

The paper's delivery phase is a one-shot block of ``m`` requests, but its
discussion section conjectures the same behaviour for continuous traffic (the
supermarket model), and everything expensive about a simulation point — the
topology, the cache placement, the kernel group index — is independent of the
evolving load vector.  A :class:`CacheNetworkSession` therefore constructs
those once and then serves work *incrementally*:

* :meth:`~CacheNetworkSession.serve` assigns one request window against the
  session's persistent load vector and returns per-window metrics;
* :meth:`~CacheNetworkSession.serve_stream` consumes any iterator of windows
  (e.g. :meth:`~repro.workload.generators.WorkloadGenerator.iter_windows`);
* :meth:`~CacheNetworkSession.snapshot` / :meth:`~CacheNetworkSession.reset`
  expose and rewind the cumulative state.

RNG contract for windowed serving
---------------------------------

A session derives the same three child streams a one-shot trial does
(``placement``, ``workload``, ``strategy``) and keeps the strategy pair
``(rng_sample, rng_tie)`` *alive across windows*.  Because the kernel contract
(see :mod:`repro.kernels`) consumes randomness strictly per request, serving
any partition of a request sequence is **bit-identical** to the one-shot
assignment of the concatenation — the property
``tests/test_session_stream.py`` enforces for all five strategies.
:meth:`~CacheNetworkSession.reset` rewinds the workload and strategy streams
to their initial state (the placement is kept), so a reset session replays
identically.

Precompute reuse is delegated to the
:class:`~repro.session.artifacts.ArtifactCache`: placements are memoised per
``(placement, topology, library[, seed])`` and group-index candidate rows per
``(topology, cache fingerprint, radius, fallback)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Iterable, Iterator, Mapping

import numpy as np

from repro.catalog.library import FileLibrary
from repro.exceptions import ConfigurationError, StrategyError
from repro.placement.base import PlacementStrategy
from repro.placement.cache import CacheState
from repro.kernels.loads import LoadVector
from repro.rng import SeedLike, seed_provenance, spawn_generators, spawn_seeds
from repro.session.artifacts import ArtifactCache
from repro.strategies.base import AssignmentResult, AssignmentStrategy

if TYPE_CHECKING:  # pragma: no cover - the config layer imports the engine,
    # which imports this module; resolve the cycle lazily in open_session().
    from repro.simulation.config import SimulationConfig
from repro.topology.base import Topology
from repro.types import IntArray
from repro.utils.timer import Timer
from repro.workload.generators import WorkloadGenerator
from repro.workload.request import RequestBatch

__all__ = [
    "CacheNetworkSession",
    "open_session",
    "WindowResult",
    "SessionSnapshot",
    "apply_uncached_policy",
]


def apply_uncached_policy(
    cache: CacheState,
    requests: RequestBatch,
    library: FileLibrary,
    rng: np.random.Generator,
    policy: str = "resample",
) -> tuple[RequestBatch, int]:
    """Apply the uncached-file policy; return the batch and remap count.

    ``"resample"`` redraws requests for files no server cached over the cached
    files with renormalised popularity; ``"error"`` leaves the batch untouched
    so the assignment strategy raises a descriptive
    :class:`~repro.exceptions.NoReplicaError`.  When nothing with positive
    popularity is cached at all, resampling is impossible and the batch is
    likewise left alone.
    """
    if policy == "error":
        return requests, 0
    uncached = cache.uncached_files()
    if uncached.size == 0:
        return requests, 0
    uncached_set = np.isin(requests.files, uncached)
    remapped = int(np.count_nonzero(uncached_set))
    if remapped == 0:
        return requests, 0
    pmf = library.popularity_vector()
    pmf[uncached] = 0.0
    total = pmf.sum()
    if total <= 0:
        # Nothing is cached at all; leave the batch alone so the strategy
        # raises a descriptive NoReplicaError.
        return requests, 0
    pmf /= total
    files = requests.files.copy()
    files[uncached_set] = rng.choice(library.num_files, size=remapped, p=pmf)
    return (
        RequestBatch(
            origins=requests.origins,
            files=files,
            num_nodes=requests.num_nodes,
            num_files=requests.num_files,
        ),
        remapped,
    )


@dataclass(frozen=True)
class WindowResult:
    """Outcome of serving one request window of a session.

    ``assignment`` covers only this window's requests; the ``cumulative_*``
    fields describe the session state *after* the window committed, so
    ``cumulative_max_load`` is the paper's ``L`` over everything served so
    far (a window's own ``assignment.max_load()`` counts only within-window
    load increments).
    """

    window_index: int
    assignment: AssignmentResult
    cumulative_requests: int
    cumulative_max_load: int
    cumulative_hops: int
    cumulative_fallbacks: int
    remapped_requests: int
    elapsed_seconds: float

    @property
    def num_requests(self) -> int:
        """Number of requests in this window."""
        return self.assignment.num_requests

    @property
    def communication_cost(self) -> float:
        """Cumulative mean hops per request after this window."""
        if self.cumulative_requests == 0:
            return 0.0
        return self.cumulative_hops / self.cumulative_requests

    @property
    def fallback_rate(self) -> float:
        """Cumulative fallback rate after this window."""
        if self.cumulative_requests == 0:
            return 0.0
        return self.cumulative_fallbacks / self.cumulative_requests

    def summary(self) -> dict[str, Any]:
        """Compact dictionary used by the CLI stream report."""
        return {
            "window": self.window_index,
            "num_requests": self.num_requests,
            "cumulative_requests": self.cumulative_requests,
            "max_load": self.cumulative_max_load,
            "communication_cost": self.communication_cost,
            "fallback_rate": self.fallback_rate,
            "elapsed_seconds": self.elapsed_seconds,
        }

    def __repr__(self) -> str:
        return (
            f"WindowResult(w={self.window_index}, m={self.num_requests}, "
            f"L={self.cumulative_max_load}, C={self.communication_cost:.3f})"
        )


@dataclass(frozen=True)
class SessionSnapshot:
    """Immutable view of a session's cumulative state.

    ``engine`` records the session's *resolved* execution-engine name (the
    session pins it for its lifetime), so snapshots written into benchmark
    artifacts are self-describing about how they were computed.
    """

    loads: IntArray
    num_windows: int
    num_requests: int
    max_load: int
    communication_cost: float
    fallback_rate: float
    remapped_requests: int
    description: str = ""
    engine: str = ""

    def summary(self) -> dict[str, Any]:
        """Compact dictionary of the headline metrics."""
        return {
            "num_windows": self.num_windows,
            "num_requests": self.num_requests,
            "max_load": self.max_load,
            "communication_cost": self.communication_cost,
            "fallback_rate": self.fallback_rate,
            "remapped_requests": self.remapped_requests,
            "engine": self.engine,
        }

    def __repr__(self) -> str:
        return (
            f"SessionSnapshot(windows={self.num_windows}, m={self.num_requests}, "
            f"L={self.max_load}, C={self.communication_cost:.3f})"
        )


class CacheNetworkSession:
    """A persistent, streaming view of one cache-network simulation point.

    Parameters
    ----------
    topology, library, placement, strategy:
        Live components; the placement is run (or fetched from ``artifacts``)
        once at construction.
    workload:
        Optional generator backing :meth:`generate_workload` /
        :meth:`workload_stream`; sessions fed externally-produced batches may
        omit it.
    seed:
        Parent seed.  Spawned exactly as a one-shot
        :class:`~repro.simulation.engine.CacheNetworkSimulation` trial spawns
        it (placement / workload / strategy children), so a session serving
        its whole workload in one window reproduces the one-shot trial bit
        for bit.
    uncached_policy:
        ``"resample"`` or ``"error"`` (see :func:`apply_uncached_policy`).
    artifacts:
        Shared :class:`~repro.session.artifacts.ArtifactCache`; a private one
        is created when omitted.
    description:
        Human-readable description attached to snapshots.
    """

    def __init__(
        self,
        topology: Topology,
        library: FileLibrary,
        placement: PlacementStrategy,
        strategy: AssignmentStrategy,
        workload: WorkloadGenerator | None = None,
        seed: SeedLike = None,
        *,
        uncached_policy: str = "resample",
        artifacts: ArtifactCache | None = None,
        description: str = "",
    ) -> None:
        if uncached_policy not in ("resample", "error"):
            raise ConfigurationError(
                f"uncached_policy must be 'resample' or 'error', got {uncached_policy!r}"
            )
        self._topology = topology
        self._library = library
        self._strategy = strategy
        # The strategy's engine was resolved (through the backend registry)
        # when the strategy was constructed or cloned via with_engine; the
        # session pins that name — and its streaming capability — for life.
        self._streaming_engine = strategy.engine_supports_streaming
        self._workload = workload
        self._uncached_policy = uncached_policy
        self._description = description
        self._artifacts = artifacts if artifacts is not None else ArtifactCache()
        self._seed_provenance = seed_provenance(seed)
        placement_seed, workload_seed, strategy_seed = spawn_seeds(seed, 3)
        self._workload_seed = workload_seed
        self._strategy_seed = strategy_seed
        # Group-row memoisation only pays when the (topology, cache) pair can
        # recur: always for deterministic placements (trials share the placed
        # state), and for any placement once this session streams a second
        # window.  A one-shot serve over a never-repeating randomised
        # placement skips the store entirely — population would be pure
        # overhead.
        self._store_eligible = placement.deterministic
        self._cache = self._artifacts.placement(
            placement, topology, library, placement_seed
        )
        # Dual-view load vector: the scalar commit loops borrow its list
        # view, vectorised engines its array view, with at most one O(n)
        # conversion when the serving engine changes representation — tiny
        # windows against large networks no longer pay O(n) per window.
        self._loads = LoadVector(topology.n)
        self.reset()

    # -------------------------------------------------------------- properties
    @property
    def topology(self) -> Topology:
        """The server network."""
        return self._topology

    @property
    def library(self) -> FileLibrary:
        """The file library and popularity profile."""
        return self._library

    @property
    def cache(self) -> CacheState:
        """The placed cache state (fixed for the session's lifetime)."""
        return self._cache

    @property
    def strategy(self) -> AssignmentStrategy:
        """The assignment strategy serving the stream."""
        return self._strategy

    @property
    def workload(self) -> WorkloadGenerator | None:
        """The workload generator, if the session owns one."""
        return self._workload

    @property
    def artifacts(self) -> ArtifactCache:
        """The artifact cache backing placement / group-index reuse."""
        return self._artifacts

    @property
    def description(self) -> str:
        """Human-readable description attached to snapshots."""
        return self._description

    @property
    def seed_provenance(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """``(entropy, spawn_key)`` of the session seed
        (see :func:`repro.rng.seed_provenance`)."""
        return self._seed_provenance

    @property
    def num_windows(self) -> int:
        """Windows served since construction or the last :meth:`reset`."""
        return self._windows

    @property
    def num_requests_served(self) -> int:
        """Requests served since construction or the last :meth:`reset`."""
        return self._total_requests

    @property
    def total_remapped(self) -> int:
        """Requests redrawn by the uncached policy so far."""
        return self._total_remapped

    def loads(self) -> IntArray:
        """Copy of the persistent per-server load vector."""
        return self._loads.readonly_array().copy()

    # ---------------------------------------------------------------- lifecycle
    @staticmethod
    def _fresh_seq(seed: np.random.SeedSequence) -> np.random.SeedSequence:
        """An unspawned copy of ``seed`` (rewinds the child-spawn counter)."""
        return np.random.SeedSequence(
            entropy=seed.entropy, spawn_key=seed.spawn_key
        )

    def reset(self) -> None:
        """Rewind the session to its freshly-opened state.

        Zeroes the load vector and counters and re-derives the workload and
        strategy RNG streams from the original seed, so the session replays
        identically.  The placement is part of the session's identity and is
        *not* redrawn.
        """
        self._loads.fill(0)
        self._max_load = 0
        self._windows = 0
        self._total_requests = 0
        self._total_hops = 0
        self._total_fallbacks = 0
        self._total_remapped = 0
        self._rng_workload = np.random.default_rng(self._fresh_seq(self._workload_seed))
        self._rng_strategy = np.random.default_rng(self._fresh_seq(self._strategy_seed))
        self._streams: tuple[np.random.Generator, np.random.Generator] | None = None

    # ----------------------------------------------------------------- workload
    def generate_workload(self) -> RequestBatch:
        """One full batch from the session's workload, uncached policy applied.

        Consumes the persistent workload stream exactly as a one-shot trial
        does (generation, then resampling of uncached requests).
        """
        batch = self._require_workload().generate(
            self._topology, self._library, self._rng_workload
        )
        batch, remapped = apply_uncached_policy(
            self._cache, batch, self._library, self._rng_workload, self._uncached_policy
        )
        self._total_remapped += remapped
        return batch

    def workload_stream(
        self, *, window_size: int | None = None, num_windows: int | None = None
    ) -> Iterator[RequestBatch]:
        """Request windows from the session's workload (persistent stream).

        Delegates to the workload's
        :meth:`~repro.workload.generators.WorkloadGenerator.iter_windows`
        using the session's workload generator state; windows are *not* yet
        uncached-resolved (serving applies the policy per window).
        """
        return self._require_workload().iter_windows(
            self._topology,
            self._library,
            self._rng_workload,
            window_size=window_size,
            num_windows=num_windows,
        )

    def _require_workload(self) -> WorkloadGenerator:
        if self._workload is None:
            raise ConfigurationError(
                "this session was opened without a workload generator; "
                "pass batches to serve()/serve_stream() directly"
            )
        return self._workload

    # ------------------------------------------------------------------ serving
    def serve(
        self, requests: RequestBatch, *, resolve_uncached: bool = True
    ) -> WindowResult:
        """Assign one request window against the persistent session state.

        ``resolve_uncached`` applies the session's uncached policy to the
        window first (consuming the persistent workload stream); pass
        ``False`` for batches that were already resolved, e.g. by
        :meth:`generate_workload`.
        """
        with Timer() as timer:
            remapped = 0
            if resolve_uncached:
                requests, remapped = apply_uncached_policy(
                    self._cache,
                    requests,
                    self._library,
                    self._rng_workload,
                    self._uncached_policy,
                )
            if self._streaming_engine:
                if self._streams is None:
                    self._streams = tuple(spawn_generators(self._rng_strategy, 2))
                signature = self._strategy.store_signature(self._topology)
                use_store = signature is not None and (
                    self._store_eligible or self._windows > 0
                )
                store = (
                    self._artifacts.group_store(self._topology, self._cache, signature)
                    if use_store
                    else None
                )
                result = self._strategy.serve(
                    self._topology,
                    self._cache,
                    requests,
                    streams=self._streams,
                    loads=self._loads,
                    store=store,
                )
            else:
                # The scalar reference engine only knows one-shot assignment;
                # a single whole-stream window keeps it usable for
                # differential testing through the session API.
                if self._windows:
                    raise StrategyError(
                        f"engine {self._strategy.engine!r} cannot serve incrementally; "
                        "open the session with a streaming-capable engine "
                        "(e.g. 'batch') for windowed serving"
                    )
                result = self._strategy.assign(
                    self._topology, self._cache, requests, seed=self._rng_strategy
                )
                self._loads += result.loads()
            # Every load bump this window happened at one of the window's
            # winning servers, so the cumulative maximum only needs an
            # O(window) pass — not an O(n) scan of the whole load vector.
            self._max_load = self._loads.max_at(result.servers, self._max_load)
        self._windows += 1
        self._total_requests += result.num_requests
        self._total_hops += result.total_hops()
        self._total_fallbacks += result.fallback_count()
        self._total_remapped += remapped
        return WindowResult(
            window_index=self._windows - 1,
            assignment=result,
            cumulative_requests=self._total_requests,
            cumulative_max_load=self._max_load,
            cumulative_hops=self._total_hops,
            cumulative_fallbacks=self._total_fallbacks,
            remapped_requests=remapped,
            elapsed_seconds=timer.elapsed,
        )

    def dispatch_batch(self, origins, files) -> AssignmentResult:
        """Assign one externally-supplied micro-batch of requests.

        The synchronous entry point the dispatch service's writer task
        drives: builds the :class:`~repro.workload.request.RequestBatch` from
        parallel origin/file arrays and serves it with the uncached policy
        skipped — clients ask for concrete files, so a request for a file no
        server cached raises :class:`~repro.exceptions.NoReplicaError`
        instead of being silently redrawn.  Because the workload stream is
        never consumed, the decision sequence is a pure function of the
        request sequence and the strategy seed: any partition of the same
        sequence into successive calls is bit-identical (the windowed-serving
        RNG contract).

        Returns this batch's :class:`~repro.strategies.base.AssignmentResult`
        (chosen server and hop distance per request, request order).
        """
        requests = RequestBatch(
            origins=np.asarray(origins, dtype=np.int64),
            files=np.asarray(files, dtype=np.int64),
            num_nodes=self._topology.n,
            num_files=self._library.num_files,
        )
        return self.serve(requests, resolve_uncached=False).assignment

    def serve_stream(
        self, windows: Iterable[RequestBatch], *, resolve_uncached: bool = True
    ) -> Iterator[WindowResult]:
        """Serve an iterator of request windows, yielding per-window results.

        Lazy by design: windows are pulled (and, for session-owned workload
        streams, generated) one at a time, so unbounded streams work with
        bounded memory.  Serving any partition of a request sequence is
        bit-identical to serving it one-shot (see the module docstring).
        """
        for window in windows:
            yield self.serve(window, resolve_uncached=resolve_uncached)

    def state_digest(self) -> str:
        """Content fingerprint of the session's full mutable state.

        Hashes the load vector, the cumulative counters and the *exact* RNG
        stream positions (the strategy pair's bit-generator states), so two
        sessions agree on the digest iff they would serve every future
        request identically.  This is what journaled crash recovery asserts:
        a replayed session matching the digest recorded at a checkpoint is
        bit-identical to the session that wrote it.
        """
        import hashlib
        import json

        digest = hashlib.sha256()
        digest.update(self._loads.readonly_array().tobytes())
        meta = {
            "windows": self._windows,
            "requests": self._total_requests,
            "hops": self._total_hops,
            "fallbacks": self._total_fallbacks,
            "remapped": self._total_remapped,
            "streams": (
                [g.bit_generator.state for g in self._streams]
                if self._streams is not None
                else None
            ),
        }
        digest.update(json.dumps(meta, sort_keys=True).encode("utf-8"))
        return digest.hexdigest()

    # ---------------------------------------------------------------- snapshots
    def snapshot(self) -> SessionSnapshot:
        """The session's cumulative state as an immutable snapshot."""
        total = self._total_requests
        return SessionSnapshot(
            loads=self._loads.readonly_array().copy(),
            num_windows=self._windows,
            num_requests=total,
            max_load=self._max_load,
            communication_cost=self._total_hops / total if total else 0.0,
            fallback_rate=self._total_fallbacks / total if total else 0.0,
            remapped_requests=self._total_remapped,
            description=self._description,
            engine=self._strategy.engine,
        )

    def __repr__(self) -> str:
        return (
            f"CacheNetworkSession(n={self._topology.n}, "
            f"K={self._library.num_files}, strategy={self._strategy.name}, "
            f"windows={self._windows}, served={self._total_requests})"
        )


def open_session(
    config: "SimulationConfig | Mapping[str, Any]",
    seed: SeedLike = None,
    *,
    assignment_engine: str | None = None,
    artifacts: ArtifactCache | None = None,
) -> CacheNetworkSession:
    """Open a :class:`CacheNetworkSession` from a declarative configuration.

    ``config`` may be a :class:`~repro.simulation.config.SimulationConfig` or
    its plain-dict form.  ``assignment_engine`` overrides the strategy's
    execution engine — any spec the backend registry resolves (``"auto"``,
    an explicit name, an :class:`~repro.backends.registry.EngineSpec`); it is
    resolved here, once, and the session pins the resolved engine for its
    lifetime (recorded in :meth:`CacheNetworkSession.snapshot`).
    ``artifacts`` shares a cache of placements and group-index precompute
    with other sessions of the same configuration.
    """
    from repro.simulation.config import SimulationConfig

    if not isinstance(config, SimulationConfig):
        config = SimulationConfig.from_dict(config)
    components = config.build()
    strategy = components["strategy"]
    if assignment_engine is not None:
        strategy = strategy.with_engine(assignment_engine)
    return CacheNetworkSession(
        topology=components["topology"],
        library=components["library"],
        placement=components["placement"],
        strategy=strategy,
        workload=components["workload"],
        seed=seed,
        uncached_policy=components["uncached_policy"],
        artifacts=artifacts,
        description=config.describe(engine=strategy.engine),
    )
