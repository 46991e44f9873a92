"""Server-side state plumbing: published snapshots + the micro-batch queue.

Two invariants keep the service honest under concurrency:

* **Single writer.**  The session (static or queueing) is only ever advanced
  by the server's one writer task.  Handlers never touch it — they enqueue a
  :class:`PendingDispatch` on the :class:`MicroBatchQueue` and await its
  future, which resolves to the unit's :class:`CommittedUnit`.  The queue
  coalesces whatever arrived within a flush interval (or up to a maximum
  size) into one kernel-sized batch, so fifty concurrent clients cost one
  commit, not fifty.
* **Read endpoints serve published snapshots.**  ``GET /snapshot`` never
  reads live session state; it returns the latest :class:`StateSnapshot`
  published by :class:`SnapshotPublisher`.  Snapshots carry a monotonically
  increasing ``version`` and their publication time, so clients observe
  *explicit* staleness (``age_seconds``) instead of racing the writer.

Both pieces are plain asyncio objects so they can be driven (and tested)
without any HTTP in sight.
"""

from __future__ import annotations

import asyncio
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Callable, NamedTuple

import numpy as np

from repro.service.protocol import SnapshotResponse
from repro.session.core import CacheNetworkSession
from repro.session.queueing import QueueingSession
from repro.strategies.base import AssignmentResult

__all__ = [
    "CommittedUnit",
    "IdempotencyIndex",
    "MicroBatchQueue",
    "PendingDispatch",
    "Request",
    "SnapshotPublisher",
    "StateSnapshot",
    "session_kind",
    "session_state_payload",
]


def session_kind(session: CacheNetworkSession | QueueingSession) -> str:
    """The engine family a session dispatches for."""
    if isinstance(session, CacheNetworkSession):
        return "assignment"
    if isinstance(session, QueueingSession):
        return "queueing"
    raise TypeError(
        f"expected a CacheNetworkSession or QueueingSession, got {type(session).__name__}"
    )


def session_state_payload(
    session: CacheNetworkSession | QueueingSession,
) -> dict[str, Any]:
    """A JSON-safe summary of a session's cumulative state.

    Static sessions report the load-vector summary of
    :meth:`~repro.session.core.CacheNetworkSession.snapshot`; queueing
    sessions report the result fields of
    :meth:`~repro.session.queueing.QueueingSession.snapshot` plus the
    *current* queue occupancy (the historical ``max_queue_length`` alone
    says nothing about what the system looks like right now).
    """
    if isinstance(session, CacheNetworkSession):
        snapshot = session.snapshot()
        loads = snapshot.loads
        payload: dict[str, Any] = dict(snapshot.summary())
        payload["num_nodes"] = int(loads.size)
        payload["mean_load"] = float(loads.mean()) if loads.size else 0.0
        return payload
    queues = session.queue_lengths()
    payload = {
        key: value
        for key, value in session.snapshot().items()
        if key != "engine"  # the publisher records the engine once, top level
    }
    payload["num_nodes"] = int(queues.size)
    payload["queue_now_max"] = int(queues.max()) if queues.size else 0
    payload["queue_now_total"] = int(queues.sum())
    return payload


@dataclass(frozen=True)
class StateSnapshot:
    """One immutable, versioned publication of session state."""

    version: int
    published_at: float  # monotonic clock of the publisher
    wall_time: float  # unix timestamp, informational
    engine: str
    kind: str
    state: dict[str, Any]

    def age(self, now: float) -> float:
        """Seconds since publication at monotonic time ``now``."""
        return max(0.0, now - self.published_at)

    def response(self, now: float) -> SnapshotResponse:
        """The wire form served by ``GET /snapshot``."""
        return SnapshotResponse(
            version=self.version,
            age_seconds=self.age(now),
            engine=self.engine,
            kind=self.kind,
            state=dict(self.state, wall_time=self.wall_time),
        )


class SnapshotPublisher:
    """Periodically publishes immutable snapshots of one session.

    ``refresh()`` is synchronous and cheap (one pass over the load/queue
    vector); the server calls it from a timer task every
    ``snapshot_interval`` seconds.  ``clock`` is injectable so staleness
    semantics are testable without sleeping.
    """

    def __init__(
        self,
        session: CacheNetworkSession | QueueingSession,
        *,
        clock: Callable[[], float] | None = None,
    ) -> None:
        self._session = session
        self._kind = session_kind(session)
        self._engine = (
            session.strategy.engine
            if isinstance(session, CacheNetworkSession)
            else session.engine
        )
        self._clock = clock if clock is not None else time.monotonic
        self._version = 0
        self._current = self.refresh()

    @property
    def kind(self) -> str:
        """The session's engine family (``assignment`` or ``queueing``)."""
        return self._kind

    @property
    def engine(self) -> str:
        """The session's resolved engine name."""
        return self._engine

    @property
    def current(self) -> StateSnapshot:
        """The latest published snapshot (never ``None``)."""
        return self._current

    def now(self) -> float:
        """The publisher's monotonic clock (shared with its snapshots)."""
        return self._clock()

    def refresh(self) -> StateSnapshot:
        """Publish a fresh snapshot; versions increase strictly monotonically."""
        self._version += 1
        snapshot = StateSnapshot(
            version=self._version,
            published_at=self._clock(),
            wall_time=time.time(),
            engine=self._engine,
            kind=self._kind,
            state=session_state_payload(self._session),
        )
        self._current = snapshot
        return snapshot


@dataclass
class PendingDispatch:
    """One enqueued dispatch unit (a single request or a client batch).

    ``key`` carries the client's idempotency key (if any) so the writer can
    journal it with the committed batch and recovery can repopulate the
    dedup index.
    """

    origins: np.ndarray
    files: np.ndarray
    times: np.ndarray | None
    future: asyncio.Future
    enqueued_at: float = field(default=0.0)
    key: str | None = None

    def __len__(self) -> int:
        return int(self.origins.size)


#: The ``(origins, files)`` int64 arrays of one keyed dispatch unit.
Request = tuple[np.ndarray, np.ndarray]


class CommittedUnit(NamedTuple):
    """The committed decisions of one dispatch unit.

    ``seq`` is the commit-order index of the unit's first request; the
    arrays hold, per request, the chosen server, its hop distance, whether
    the ball ``B_r(origin)`` held no replica (the fallback), and the
    committed arrival time (queueing only).  The writer resolves each
    :class:`PendingDispatch` with one, the :class:`IdempotencyIndex` holds
    them, journal recovery rebuilds them, and each HTTP handler shapes its
    response document from one.
    """

    seq: int
    servers: np.ndarray
    distances: np.ndarray
    fallbacks: np.ndarray
    times: np.ndarray | None

    @classmethod
    def sliced(
        cls, result: AssignmentResult, times, first_seq: int, start: int, size: int
    ) -> "CommittedUnit":
        """Views of the ``size`` requests from position ``start`` of one
        ``dispatch_batch`` call (``times`` its arrival times, or ``None``)
        whose first request got seq ``first_seq``."""
        window = slice(start, start + size)
        arrays = (result.servers, result.distances, result.fallback_mask, times)
        return cls(first_seq + start, *(a if a is None else a[window] for a in arrays))

    def copy(self) -> "CommittedUnit":
        """The unit with arrays of its own (a view pins its whole batch)."""
        arrays = (a if a is None else a.copy() for a in self[1:])
        return CommittedUnit(self.seq, *arrays)


class IdempotencyIndex:
    """Bounded LRU of idempotency keys → :class:`CommittedUnit`.

    The server consults this before enqueueing: a key seen before returns
    either the committed unit (``done``) or a future the duplicate can await
    (``pending``, the original is still in flight), together with the
    ``(origins, files)`` of the request that first used the key, so a retry
    can be told from a different request under a reused key.  Duplicates are
    therefore answered without ever reaching the session, so retried
    deliveries cannot double-commit or advance strategy RNG streams.

    Capacity is enforced by evicting the oldest *resolved* entry; pending
    entries are never evicted (evicting one would let a concurrent duplicate
    of an in-flight request re-commit).  The index is asyncio-single-thread
    safe: all mutation happens on the event loop.
    """

    def __init__(self, capacity: int = 4096) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self._capacity = int(capacity)
        # key -> ("pending", Future[unit], request) | ("done", unit, request)
        self._entries: "OrderedDict[str, tuple[str, Any, Request]]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def capacity(self) -> int:
        return self._capacity

    def lookup(self, key: str) -> tuple[str, Any, Request] | None:
        """``(state, unit or future, request)`` for ``key`` (refreshing its
        recency), or ``None``."""
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
        return entry

    def begin(self, key: str, request: Request) -> asyncio.Future:
        """Register the in-flight ``request`` (its origins and files) under ``key``.

        Returns the unit future duplicates will await; the caller must
        eventually :meth:`finish`, :meth:`fail`, or :meth:`forget` the key.
        """
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        self._entries[key] = ("pending", future, request)
        self._entries.move_to_end(key)
        self._evict()
        return future

    def finish(self, key: str, unit: CommittedUnit) -> None:
        """Commit ``key``: resolve its pending future and store the unit."""
        _, future, request = self._entries[key]
        self._entries[key] = ("done", unit, request)
        self._entries.move_to_end(key)
        if not future.done():
            future.set_result(unit)
        self._evict()

    def fail(self, key: str, exc: BaseException) -> None:
        """Drop ``key`` after a failed commit so a retry can re-attempt it."""
        entry = self._entries.pop(key, None)
        if entry is not None and entry[0] == "pending" and not entry[1].done():
            entry[1].set_exception(exc)
            # Mark retrieved: duplicates may have already given up waiting.
            entry[1].exception()

    def forget(self, key: str) -> None:
        """Drop ``key`` without resolving (cancelled before commit)."""
        entry = self._entries.pop(key, None)
        if entry is not None and entry[0] == "pending" and not entry[1].done():
            entry[1].cancel()

    def preload(self, entries: "list[tuple[str, CommittedUnit, Request]]") -> None:
        """Bulk-insert recovered ``(key, unit, request)`` triples in journal order."""
        for key, unit, request in entries:
            self._entries[key] = ("done", unit, request)
            self._entries.move_to_end(key)
        self._evict()

    def _evict(self) -> None:
        while len(self._entries) > self._capacity:
            victim = next(
                (k for k, (state, _, _) in self._entries.items() if state == "done"),
                None,
            )
            if victim is None:
                break  # everything in flight; allow temporary overshoot
            del self._entries[victim]


class MicroBatchQueue:
    """Coalesces concurrent dispatch units into kernel-sized batches.

    ``collect()`` (called only by the writer task) blocks for the first
    pending unit, then keeps gathering until either ``flush_max`` requests
    are in hand or ``flush_interval`` seconds have passed since the first —
    the knob trading per-request latency against batch efficiency.  After
    :meth:`close`, queued units are still drained batch by batch;
    ``collect()`` returns ``None`` once everything was handed out, which is
    the writer's signal to exit.  ``put`` after close raises, so shutdown
    never strands an accepted request.
    """

    _CLOSE = object()

    def __init__(self, *, flush_interval: float = 0.002, flush_max: int = 512) -> None:
        if flush_interval < 0:
            raise ValueError(f"flush_interval must be >= 0, got {flush_interval}")
        if flush_max < 1:
            raise ValueError(f"flush_max must be >= 1, got {flush_max}")
        self._flush_interval = float(flush_interval)
        self._flush_max = int(flush_max)
        self._queue: asyncio.Queue = asyncio.Queue()
        self._closed = False
        self._pending = 0
        self._oldest_pending: float | None = None

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` was called (no further ``put`` accepted)."""
        return self._closed

    @property
    def flush_interval(self) -> float:
        return self._flush_interval

    @property
    def flush_max(self) -> int:
        return self._flush_max

    def put(self, item: PendingDispatch) -> None:
        """Enqueue one dispatch unit (raises once the queue is closed)."""
        if self._closed:
            raise RuntimeError("dispatch queue is closed")
        self._queue.put_nowait(item)
        self._pending += 1
        if self._oldest_pending is None:
            self._oldest_pending = item.enqueued_at

    def oldest_pending_age(self, now: float) -> float:
        """Seconds the oldest uncollected unit has waited (0 when empty).

        The watchdog uses this to detect a wedged writer: work is queued but
        nothing is being collected.
        """
        if self._oldest_pending is None:
            return 0.0
        return max(0.0, now - self._oldest_pending)

    def close(self) -> None:
        """Refuse new work; already-queued units will still be collected."""
        if not self._closed:
            self._closed = True
            self._queue.put_nowait(self._CLOSE)

    async def collect(self) -> list[PendingDispatch] | None:
        """The writer's blocking fetch of the next micro-batch.

        Returns the coalesced units in arrival order, or ``None`` when the
        queue is closed and fully drained.
        """
        first = await self._queue.get()
        if first is self._CLOSE:
            # The terminal signal is sticky: re-post it so any subsequent
            # collect() also returns None instead of blocking forever.
            self._queue.put_nowait(self._CLOSE)
            return None
        batch = [first]
        total = len(first)
        loop = asyncio.get_running_loop()
        deadline = loop.time() + self._flush_interval
        while total < self._flush_max:
            try:
                item = self._queue.get_nowait()
            except asyncio.QueueEmpty:
                timeout = deadline - loop.time()
                if timeout <= 0:
                    break
                try:
                    item = await asyncio.wait_for(self._queue.get(), timeout)
                except asyncio.TimeoutError:
                    break
            if item is self._CLOSE:
                # Re-post the close marker so the next collect() sees it
                # after this batch was flushed.
                self._queue.put_nowait(self._CLOSE)
                break
            batch.append(item)
            total += len(item)
        self._pending -= len(batch)
        # Anything still queued arrived after the units just collected, so
        # "now" under-estimates its wait — conservative for the watchdog.
        self._oldest_pending = None if self._pending <= 0 else loop.time()
        return batch
