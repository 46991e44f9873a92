"""Persistent queueing (supermarket-model) sessions: serve time windows.

The dynamic counterpart of :class:`~repro.session.core.CacheNetworkSession`:
a :class:`QueueingSession` builds the expensive, load-independent parts of a
supermarket simulation point once — the placed cache state, the candidate
group index (memoised in the shared
:class:`~repro.session.artifacts.ArtifactCache`), the popularity weight
vector — and then serves the continuous timeline *incrementally*:

* :meth:`~QueueingSession.serve` advances the simulation to an absolute time
  and returns per-window plus cumulative statistics;
* :meth:`~QueueingSession.serve_windows` slices a horizon into equal windows;
* :meth:`~QueueingSession.result` / :meth:`~QueueingSession.reset` expose and
  rewind the cumulative state.

RNG contract for windowed serving
---------------------------------

A session derives the same three child seeds a one-shot
:meth:`~repro.simulation.queueing.QueueingSimulation.run` does (``placement``,
``arrivals``, ``dispatch``) and keeps alive across windows:

* the arrival stream's three child generators (gaps / origins / files, see
  :class:`~repro.workload.arrivals.PoissonArrivalStream`);
* the dispatch triple ``(rng_sample, rng_tie, rng_service)`` of the queueing
  RNG-stream contract (:mod:`repro.kernels.queueing`);
* the :class:`~repro.kernels.queueing.QueueingState` (queue lengths,
  busy-until vector, departure heap, streaming accumulators).

Every stream is consumed strictly per arrival and the clock only ever
advances to event times, so serving any window partition of ``[0, horizon)``
is **bit-identical** to ``QueueingSimulation.run(horizon)`` with the same
seed and engine — the property ``tests/test_session_queueing.py`` enforces.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator

import numpy as np

from repro.backends.registry import resolve_engine
from repro.catalog.library import FileLibrary
from repro.exceptions import ConfigurationError
from repro.kernels.queueing import (
    QueueingState,
    finalize_result_fields,
    validate_queueing_parameters,
)
from repro.placement.base import PlacementStrategy
from repro.rng import SeedLike, spawn_generators, spawn_seeds
from repro.session.artifacts import ArtifactCache
from repro.strategies.base import FallbackPolicy
from repro.topology.base import Topology
from repro.utils.timer import Timer
from repro.workload.arrivals import ArrivalProcess
from repro.workload.request import RequestBatch

if TYPE_CHECKING:  # pragma: no cover - the simulation layer imports this
    # module lazily from run(); resolve the reverse edge lazily too.
    from repro.simulation.queueing import QueueingResult

__all__ = [
    "QueueingSession",
    "QueueingWindowResult",
    "open_queueing_session",
    "utilisation_warning",
]


def utilisation_warning(arrivals: ArrivalProcess, service_rate: float) -> str | None:
    """Instability warning text when the offered load saturates the servers.

    Returns ``None`` for stable (or unknown-rate) processes; the caller emits
    the warning so it points at user code.
    """
    rate = getattr(arrivals, "rate_per_node", None)
    if rate is None or rate < service_rate:
        return None
    return (
        f"per-server arrival rate {rate:g} >= service rate {service_rate:g}: "
        "utilisation is at or above 1, queues grow without bound and "
        "horizon-dependent statistics will not stabilise"
    )


@dataclass(frozen=True)
class QueueingWindowResult:
    """Outcome of serving one time window of a queueing session.

    ``result`` is the *cumulative* :class:`~repro.simulation.queueing.
    QueueingResult` over ``[0, window_end)`` — the windowed analogue of the
    static session's cumulative metrics; the ``window_*`` fields describe
    this window alone.
    """

    window_index: int
    window_start: float
    window_end: float
    window_arrivals: int
    window_completed: int
    result: "QueueingResult"
    elapsed_seconds: float

    def summary(self) -> dict[str, float]:
        """Compact dictionary used by the CLI supermarket report."""
        return {
            "window": float(self.window_index),
            "window_start": self.window_start,
            "window_end": self.window_end,
            "window_arrivals": float(self.window_arrivals),
            "window_completed": float(self.window_completed),
            **self.result.summary(),
        }

    def __repr__(self) -> str:
        return (
            f"QueueingWindowResult(w={self.window_index}, "
            f"[{self.window_start:g}, {self.window_end:g}), "
            f"arrivals={self.window_arrivals}, "
            f"Q={self.result.max_queue_length})"
        )


class QueueingSession:
    """A persistent, streaming view of one supermarket simulation point.

    Parameters
    ----------
    topology, library, placement:
        The cache network; the placement is run (or fetched from
        ``artifacts``) once at construction.
    arrivals:
        Arrival process; must support :meth:`~repro.workload.arrivals.
        ArrivalProcess.stream`.
    service_rate, radius, num_choices:
        The supermarket parameters ``mu``, ``r`` and ``d``.
    candidate_weights:
        ``"uniform"`` (the paper's draw) or ``"popularity"``, which biases
        the ``d``-choice draw towards servers caching more popularity mass.
    engine:
        Execution-engine spec, resolved once through the backend registry
        (family ``"queueing"``): ``"auto"`` (default, fastest available),
        an explicit name (``"batch"``, ``"reference"``, ``"numba"``), or an
        :class:`~repro.backends.registry.EngineSpec`.  The session pins the
        resolved engine for its lifetime; all engines support windowed
        serving and are bit-identical for any seed.
    seed:
        Parent seed, spawned exactly as
        :meth:`~repro.simulation.queueing.QueueingSimulation.run` spawns it.
    artifacts:
        Shared :class:`~repro.session.artifacts.ArtifactCache`; a private
        one is created when omitted.
    """

    def __init__(
        self,
        topology: Topology,
        library: FileLibrary,
        placement: PlacementStrategy,
        arrivals: ArrivalProcess,
        *,
        service_rate: float = 1.0,
        radius: float = np.inf,
        num_choices: int = 2,
        candidate_weights: str = "uniform",
        engine: str = "auto",
        seed: SeedLike = None,
        artifacts: ArtifactCache | None = None,
    ) -> None:
        validate_queueing_parameters(service_rate, radius, num_choices, candidate_weights)
        engine_info = resolve_engine(engine, "queueing")
        message = utilisation_warning(arrivals, service_rate)
        if message is not None:
            import warnings

            warnings.warn(message, UserWarning, stacklevel=2)

        self._topology = topology
        self._library = library
        self._arrivals = arrivals
        self._service_rate = float(service_rate)
        self._radius = float(radius)
        self._num_choices = int(num_choices)
        self._candidate_weights = candidate_weights
        self._engine = engine_info.name
        self._window_fn = engine_info.commit_fns["window"]
        self._artifacts = artifacts if artifacts is not None else ArtifactCache()

        placement_seed, arrivals_seed, dispatch_seed = spawn_seeds(seed, 3)
        self._arrivals_seed = arrivals_seed
        self._dispatch_seed = dispatch_seed
        self._cache = self._artifacts.placement(
            placement, topology, library, placement_seed
        )
        unconstrained = np.isinf(self._radius) or self._radius >= topology.diameter
        # One store signature per candidate structure, unconstrained runs
        # included: (radius, fallback, need_dists) = (inf, NEAREST, False)
        # keys the shared-CSR structure so radius = inf sweep points reuse
        # one GroupStore slot instead of rebuilding per point.
        signature = (
            self._radius,
            FallbackPolicy.NEAREST.value,
            bool(not unconstrained),
        )
        self._store = self._artifacts.group_store(topology, self._cache, signature)
        self._node_weights: np.ndarray | None = None
        if candidate_weights == "popularity":
            indptr, nodes = self._cache.file_index()
            entry_files = np.repeat(
                np.arange(library.num_files, dtype=np.int64), np.diff(indptr)
            )
            pmf = library.popularity_vector()
            self._node_weights = np.bincount(
                nodes, weights=pmf[entry_files], minlength=topology.n
            )
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
    def cache(self):
        """The placed cache state (fixed for the session's lifetime)."""
        return self._cache

    @property
    def artifacts(self) -> ArtifactCache:
        """The artifact cache backing placement / group-index reuse."""
        return self._artifacts

    @property
    def engine(self) -> str:
        """Resolved execution-engine name, pinned for the session's lifetime."""
        return self._engine

    @property
    def served_until(self) -> float:
        """Absolute time the session has been served up to (exclusive)."""
        return self._served_until

    @property
    def num_windows(self) -> int:
        """Windows served since construction or the last :meth:`reset`."""
        return self._windows

    @property
    def num_arrivals_served(self) -> int:
        """Arrivals dispatched since construction or the last :meth:`reset`."""
        return self._state.num_arrivals

    def queue_lengths(self) -> np.ndarray:
        """Copy of the current per-server queue lengths."""
        return np.asarray(self._state.queue_lengths, dtype=np.int64)

    def busy_until(self) -> np.ndarray:
        """Copy of the current per-server busy-until times."""
        return np.asarray(self._state.busy_until, dtype=np.float64)

    # ---------------------------------------------------------------- lifecycle
    @staticmethod
    def _fresh_seq(seed: np.random.SeedSequence) -> np.random.SeedSequence:
        """An unspawned copy of ``seed`` (rewinds the child-spawn counter)."""
        return np.random.SeedSequence(entropy=seed.entropy, spawn_key=seed.spawn_key)

    def reset(self) -> None:
        """Rewind to the freshly-opened state (time zero, empty system).

        Re-derives the arrival and dispatch streams from the original seed so
        the session replays identically; the placement (and the memoised
        group rows keyed on it) is kept.
        """
        self._state = QueueingState.fresh(self._topology.n)
        self._streams = tuple(
            spawn_generators(self._fresh_seq(self._dispatch_seed), 3)
        )
        self._arrival_stream = self._arrivals.stream(
            self._topology, self._library, self._fresh_seq(self._arrivals_seed)
        )
        self._served_until = 0.0
        self._windows = 0

    # ------------------------------------------------------------------ serving
    def serve(self, until: float) -> QueueingWindowResult:
        """Advance the simulation to absolute time ``until`` (exclusive).

        Serves every arrival in ``[served_until, until)`` against the
        persistent queue state and drains departures due by ``until``.
        """
        until = float(until)
        if not np.isfinite(until) or until <= self._served_until:
            raise ConfigurationError(
                f"serve(until) needs a finite time beyond {self._served_until:g}, "
                f"got {until}"
            )
        with Timer() as timer:
            times, origins, files = self._arrival_stream.take_until(until)
            requests = RequestBatch(
                origins=origins,
                files=files,
                num_nodes=self._topology.n,
                num_files=self._library.num_files,
            )
            before_arrivals = self._state.num_arrivals
            before_completed = self._state.completed
            self._window_fn(
                self._topology,
                self._cache,
                self._state,
                requests,
                times,
                self._streams,
                radius=self._radius,
                num_choices=self._num_choices,
                service_rate=self._service_rate,
                window_end=until,
                store=self._store,
                node_weights=self._node_weights,
            )
        window_start = self._served_until
        self._served_until = until
        self._windows += 1
        return QueueingWindowResult(
            window_index=self._windows - 1,
            window_start=window_start,
            window_end=until,
            window_arrivals=self._state.num_arrivals - before_arrivals,
            window_completed=self._state.completed - before_completed,
            result=self.result(),
            elapsed_seconds=timer.elapsed,
        )

    def dispatch_batch(
        self,
        origins,
        files,
        times=None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Dispatch one externally-supplied micro-batch of arrivals.

        The synchronous entry point the dispatch service's writer task
        drives: unlike :meth:`serve`, which draws arrivals from the
        session's own arrival stream, the caller supplies the arrivals
        (``origins``/``files`` plus optional absolute ``times``).  ``times``
        must be finite, non-decreasing and start at or beyond
        :attr:`served_until`; omitting it places every arrival at
        ``served_until`` (zero inter-arrival gaps).  The batch advances the
        clock to the last arrival's time, so — by the per-arrival RNG
        contract of :mod:`repro.kernels.queueing` — any partition of the
        same timed sequence into successive calls yields bit-identical
        decisions.

        Returns the per-arrival dispatch decisions ``(servers, hops)``,
        both ``int64`` in arrival order.
        """
        requests = RequestBatch(
            origins=np.asarray(origins, dtype=np.int64),
            files=np.asarray(files, dtype=np.int64),
            num_nodes=self._topology.n,
            num_files=self._library.num_files,
        )
        m = requests.num_requests
        if times is None:
            times_arr = np.full(m, self._served_until, dtype=np.float64)
        else:
            times_arr = np.asarray(times, dtype=np.float64)
            if times_arr.shape != (m,):
                raise ConfigurationError(
                    f"times must match the batch length {m}, got shape "
                    f"{times_arr.shape}"
                )
            if m and not np.all(np.isfinite(times_arr)):
                raise ConfigurationError("arrival times must be finite")
            if m and np.any(np.diff(times_arr) < 0):
                raise ConfigurationError("arrival times must be non-decreasing")
            if m and times_arr[0] < self._served_until:
                raise ConfigurationError(
                    f"arrival times must not precede served_until="
                    f"{self._served_until:g}, got {times_arr[0]:g}"
                )
        window_end = float(times_arr[-1]) if m else self._served_until
        decisions = self._window_fn(
            self._topology,
            self._cache,
            self._state,
            requests,
            times_arr,
            self._streams,
            radius=self._radius,
            num_choices=self._num_choices,
            service_rate=self._service_rate,
            window_end=window_end,
            store=self._store,
            node_weights=self._node_weights,
        )
        self._served_until = window_end
        self._windows += 1
        return decisions

    def serve_windows(
        self, window: float, num_windows: int
    ) -> Iterator[QueueingWindowResult]:
        """Serve ``num_windows`` consecutive windows of length ``window``.

        Lazy: each window is generated and served on demand, so unbounded
        horizons stream with bounded memory.
        """
        if window <= 0:
            raise ConfigurationError(f"window must be positive, got {window}")
        if num_windows <= 0:
            raise ConfigurationError(f"num_windows must be positive, got {num_windows}")
        start = self._served_until
        for index in range(1, num_windows + 1):
            yield self.serve(start + index * window)

    # ------------------------------------------------------------------ results
    def result(self) -> "QueueingResult":
        """Cumulative :class:`QueueingResult` over ``[0, served_until)``."""
        from repro.simulation.queueing import QueueingResult

        return QueueingResult(**finalize_result_fields(self._state, self._served_until))

    def snapshot(self) -> dict[str, float | str]:
        """Cumulative state plus provenance (resolved engine, windows served).

        The dynamic counterpart of :meth:`~repro.session.core.
        CacheNetworkSession.snapshot`: the result fields over
        ``[0, served_until)`` with the session's pinned engine name recorded,
        so artifacts derived from a session are self-describing.
        """
        return {
            "engine": self._engine,
            "num_windows": float(self._windows),
            "served_until": float(self._served_until),
            **finalize_result_fields(self._state, self._served_until),
        }

    def state_digest(self) -> str:
        """Content fingerprint of the session's full mutable state.

        Hashes the queue/busy vectors, the pending departure events, every
        streaming accumulator and the *exact* RNG stream positions (all
        three dispatch generators), so two sessions agree on the digest iff
        they would dispatch every future arrival identically — the equality
        journaled crash recovery asserts at checkpoints.
        """
        import hashlib
        import json

        state = self._state
        digest = hashlib.sha256()
        digest.update(np.asarray(state.queue_lengths, dtype=np.int64).tobytes())
        digest.update(np.asarray(state.busy_until, dtype=np.float64).tobytes())
        meta = {
            "events": sorted(state.events),
            "next_event_id": state.next_event_id,
            "clock": state.clock,
            "in_system": state.in_system,
            "num_arrivals": state.num_arrivals,
            "completed": state.completed,
            "max_queue": state.max_queue,
            "area_queue": state.area_queue,
            "sum_wait": state.sum_wait,
            "sum_sojourn": state.sum_sojourn,
            "sum_hops": state.sum_hops,
            "served_until": self._served_until,
            "streams": [g.bit_generator.state for g in self._streams],
        }
        digest.update(json.dumps(meta, sort_keys=True).encode("utf-8"))
        return digest.hexdigest()

    def __repr__(self) -> str:
        radius = "inf" if np.isinf(self._radius) else f"{self._radius:g}"
        return (
            f"QueueingSession(n={self._topology.n}, mu={self._service_rate:g}, "
            f"r={radius}, d={self._num_choices}, engine={self._engine}, "
            f"served_until={self._served_until:g})"
        )


def open_queueing_session(
    topology: Topology,
    library: FileLibrary,
    placement: PlacementStrategy,
    arrivals: ArrivalProcess,
    seed: SeedLike = None,
    **kwargs,
) -> QueueingSession:
    """Open a :class:`QueueingSession` over the given components.

    Keyword arguments (``service_rate``, ``radius``, ``num_choices``,
    ``candidate_weights``, ``engine``, ``artifacts``) are forwarded to the
    session constructor.
    """
    return QueueingSession(topology, library, placement, arrivals, seed=seed, **kwargs)
