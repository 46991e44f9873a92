"""The asyncio HTTP dispatch server (``repro serve``).

A :class:`DispatchServer` wraps one live session — a
:class:`~repro.session.core.CacheNetworkSession` (static d-choice dispatch)
or a :class:`~repro.session.queueing.QueueingSession` (supermarket dispatch)
— in a long-lived HTTP/1.1 service answering "which cache gets this
request?".  Everything is stdlib asyncio: ``asyncio.start_server`` plus a
small hand-rolled HTTP layer (request line, headers, ``Content-Length``
bodies, keep-alive), no dependencies.

Endpoints
---------

``POST /dispatch``
    One request (``{"origin": u, "file": f}``) → the chosen cache, its hop
    distance, the request's global commit-order ``seq`` and its
    ``fallback`` flag (the ball ``B_r(u)`` held no replica).
``POST /dispatch/batch``
    A client-side micro-batch (parallel arrays) committed as one window.
``GET /snapshot``
    The latest *published* state snapshot (version + age; see
    :mod:`repro.service.state` for the staleness semantics).
``GET /healthz``
    Liveness plus the session shape (n, K, engine, kind) and the
    machine-readable engine availability of ``repro engines --json``.
``GET /metrics``
    Request counters, dispatch-latency histogram (p50/p90/p99) and
    micro-batch size statistics.

Concurrency model
-----------------

Both dispatch handlers parse their request and hand it to one shared
validate-and-enqueue path; the single **writer task** owns the session.  It
collects everything that arrived within ``flush_interval`` seconds (or up to
``flush_max`` requests) into one batch, commits it through the session's
synchronous :meth:`dispatch_batch` entry point — both session kinds return
an :class:`~repro.strategies.base.AssignmentResult` — stamps global sequence
numbers in commit order and resolves each unit's future with its
:class:`~repro.service.state.CommittedUnit`.  Each handler shapes its own
response document from that unit; nothing else builds one.  Because both
session stacks consume randomness strictly per request, the decision stream
is a pure function of the commit order and the server's seed — replaying the
requests in ``seq`` order through an offline session reproduces every
decision bit for bit, which is exactly what the service test suite asserts.

Queueing sessions need arrival *times*: the server keeps a virtual clock
that advances ``tick`` simulated seconds per arrival; clients may pin
explicit finite times, which are clamped to be non-decreasing (a request
cannot arrive in the simulated past) and echoed back in the response.

Graceful shutdown: :meth:`shutdown` stops accepting connections, closes the
micro-batch queue (new dispatches get 503), lets the writer drain every
in-flight request, waits for their responses to be written, then tears the
connections down.

Fault tolerance (PR 8)
----------------------

* **Journal-before-ack.**  With a :class:`~repro.service.journal.
  DispatchJournal` attached, the writer appends every committed micro-batch
  (seq, request arrays, committed times, idempotency keys) *before* any
  client future resolves — an acknowledged decision is always durable under
  the journal's fsync policy, and ``repro serve --recover`` rebuilds the
  session bit-identically by replay.
* **Idempotency.**  Requests carrying a ``key`` are deduplicated through a
  bounded LRU of committed units: a duplicate of a committed request gets
  the original decision back, shaped for the endpoint the duplicate arrived
  on; a duplicate of an in-flight request awaits the original — the session
  (and its RNG streams) never sees the duplicate.
* **Graceful degradation.**  A watchdog monitors the writer; if a flush (or
  the queue's oldest pending unit) stalls past the deadline the server
  degrades to snapshot-only reads — dispatches get 503 with ``Retry-After``,
  ``/healthz`` reports ``degraded`` — instead of hanging connections.  The
  next completed flush clears the condition.
"""

from __future__ import annotations

import asyncio
import math
from typing import Any, Sequence

import numpy as np

from repro.backends.registry import engines_payload
from repro.exceptions import NoReplicaError, ReproError
from repro.service.metrics import ServiceMetrics
from repro.service.protocol import (
    BatchDispatchRequest,
    BatchDispatchResponse,
    DispatchRequest,
    DispatchResponse,
    ErrorResponse,
    ProtocolError,
    decode,
    encode,
)
from repro.service.state import (
    CommittedUnit,
    IdempotencyIndex,
    MicroBatchQueue,
    PendingDispatch,
    SnapshotPublisher,
    session_kind,
)
from repro.session.core import CacheNetworkSession
from repro.session.queueing import QueueingSession

__all__ = ["DispatchServer"]

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
}

#: Largest accepted request body (1 MiB ≈ a 40k-request batch).
MAX_BODY_BYTES = 1 << 20


class _HttpError(Exception):
    """Internal: maps a handler failure to an HTTP status + error document."""

    def __init__(
        self,
        status: int,
        error: str,
        detail: str = "",
        *,
        headers: dict[str, str] | None = None,
    ) -> None:
        super().__init__(detail or error)
        self.status = status
        self.response = ErrorResponse(error=error, detail=detail)
        self.headers = headers or {}


class DispatchServer:
    """Serve d-choice placement decisions from one live session over HTTP.

    Parameters
    ----------
    session:
        The live :class:`CacheNetworkSession` or :class:`QueueingSession`;
        the server becomes its single writer — do not advance it elsewhere
        while the server runs.
    host, port:
        Bind address; ``port=0`` picks an ephemeral port (see
        :attr:`address` after :meth:`start`).
    flush_interval, flush_max:
        Micro-batch coalescing knobs (seconds of patience after the first
        pending request / maximum requests per commit).
    snapshot_interval:
        Seconds between snapshot publications; also the staleness bound
        ``GET /snapshot`` clients observe.
    tick:
        Queueing sessions only: simulated seconds the virtual arrival clock
        advances per dispatched request.
    journal:
        An open :class:`~repro.service.journal.DispatchJournal`; every
        committed micro-batch is appended *before* its futures resolve
        (journal-before-ack).  Closed by :meth:`shutdown`.
    initial_seq:
        First ``seq`` to assign — a recovered server continues the crashed
        server's commit order instead of restarting at zero.
    idempotency_capacity:
        Bound of the key → committed-unit LRU deduplicating retried
        deliveries.
    watchdog:
        Seconds a flush (or the oldest queued unit) may stall before the
        server degrades to snapshot-only reads; ``None`` disables the
        watchdog.
    chaos:
        Optional fault injector (see :mod:`repro.service.chaos`): awaited
        before each flush (``before_flush``) and called after each journal
        append (``after_journal``).  Test-only.
    """

    def __init__(
        self,
        session: CacheNetworkSession | QueueingSession,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        flush_interval: float = 0.002,
        flush_max: int = 512,
        snapshot_interval: float = 0.05,
        tick: float = 0.001,
        journal=None,
        initial_seq: int = 0,
        idempotency_capacity: int = 4096,
        watchdog: float | None = None,
        chaos=None,
    ) -> None:
        if snapshot_interval <= 0:
            raise ValueError(f"snapshot_interval must be positive, got {snapshot_interval}")
        if tick <= 0:
            raise ValueError(f"tick must be positive, got {tick}")
        if initial_seq < 0:
            raise ValueError(f"initial_seq must be >= 0, got {initial_seq}")
        if watchdog is not None and watchdog <= 0:
            raise ValueError(f"watchdog must be positive, got {watchdog}")
        self._session = session
        self._kind = session_kind(session)
        self._host = host
        self._port = port
        self._queue = MicroBatchQueue(flush_interval=flush_interval, flush_max=flush_max)
        self._publisher = SnapshotPublisher(session)
        self._metrics = ServiceMetrics()
        self._snapshot_interval = float(snapshot_interval)
        self._tick = float(tick)
        self._num_nodes = session.topology.n
        self._num_files = session.library.num_files
        # Files cached nowhere can never be dispatched; rejecting them at the
        # door (400) keeps NoReplicaError out of the writer and the decision
        # stream a pure function of the accepted request sequence.
        self._uncached = frozenset(int(f) for f in session.cache.uncached_files())
        if self._kind == "queueing":
            self._virtual_time = float(session.served_until)
        else:
            self._virtual_time = 0.0
        self._seq = int(initial_seq)
        self._journal = journal
        self._idempotency = IdempotencyIndex(idempotency_capacity)
        self._watchdog = float(watchdog) if watchdog is not None else None
        self._chaos = chaos
        self._degraded = False
        self._flush_index = 0
        self._writer_busy_since: float | None = None
        self._server: asyncio.base_events.Server | None = None
        self._writer_task: asyncio.Task | None = None
        self._refresh_task: asyncio.Task | None = None
        self._watchdog_task: asyncio.Task | None = None
        self._conn_tasks: set[asyncio.Task] = set()
        self._inflight = 0
        self._closing = False
        self._started_at: float | None = None

    # -------------------------------------------------------------- properties
    @property
    def session(self) -> CacheNetworkSession | QueueingSession:
        """The wrapped session (owned by the writer task while serving)."""
        return self._session

    @property
    def kind(self) -> str:
        """``"assignment"`` (static) or ``"queueing"`` (supermarket)."""
        return self._kind

    @property
    def publisher(self) -> SnapshotPublisher:
        """The snapshot publisher backing ``GET /snapshot``."""
        return self._publisher

    @property
    def metrics(self) -> ServiceMetrics:
        """The accumulators backing ``GET /metrics``."""
        return self._metrics

    @property
    def requests_dispatched(self) -> int:
        """Requests committed so far (the next ``seq`` to be assigned)."""
        return self._seq

    @property
    def idempotency(self) -> IdempotencyIndex:
        """The key → committed-unit dedup index (preloadable after recovery)."""
        return self._idempotency

    @property
    def journal(self):
        """The attached write-ahead journal, or ``None``."""
        return self._journal

    @property
    def degraded(self) -> bool:
        """Whether the watchdog put the server in snapshot-only read mode."""
        return self._degraded

    @property
    def address(self) -> tuple[str, int]:
        """``(host, port)`` actually bound (resolves ``port=0``)."""
        if self._server is None or not self._server.sockets:
            raise RuntimeError("server is not started")
        return self._server.sockets[0].getsockname()[:2]

    # --------------------------------------------------------------- lifecycle
    async def start(self) -> "DispatchServer":
        """Bind, start the writer and snapshot-refresh tasks."""
        if self._server is not None:
            raise RuntimeError("server is already started")
        self._server = await asyncio.start_server(
            self._handle_connection, self._host, self._port
        )
        loop = asyncio.get_running_loop()
        self._started_at = loop.time()
        self._writer_task = asyncio.create_task(self._writer_loop())
        self._refresh_task = asyncio.create_task(self._refresh_loop())
        if self._watchdog is not None:
            self._watchdog_task = asyncio.create_task(self._watchdog_loop())
        return self

    async def serve_forever(self) -> None:
        """Block until cancelled (then shut down gracefully)."""
        if self._server is None:
            await self.start()
        assert self._server is not None
        try:
            await self._server.serve_forever()
        except asyncio.CancelledError:
            pass
        finally:
            await self.shutdown()

    async def shutdown(self) -> None:
        """Drain in-flight requests, then stop.

        New connections are refused and new dispatches answered 503 the
        moment shutdown begins; every request already accepted into the
        micro-batch queue is committed and answered before the connections
        close.
        """
        if self._server is None or self._closing:
            return
        self._closing = True
        self._server.close()
        self._queue.close()
        if self._writer_task is not None:
            await self._writer_task
        # The writer resolved every pending future; give the handlers the
        # loop time to write their responses out before tearing down.
        loop = asyncio.get_running_loop()
        deadline = loop.time() + 5.0
        while self._inflight > 0 and loop.time() < deadline:
            await asyncio.sleep(0.005)
        for timer in (self._refresh_task, self._watchdog_task):
            if timer is not None:
                timer.cancel()
                try:
                    await timer
                except asyncio.CancelledError:
                    pass
        if self._journal is not None:
            self._journal.close()
        for task in list(self._conn_tasks):
            task.cancel()
        if self._conn_tasks:
            await asyncio.gather(*self._conn_tasks, return_exceptions=True)
        await self._server.wait_closed()

    async def __aenter__(self) -> "DispatchServer":
        return await self.start()

    async def __aexit__(self, *exc_info) -> None:
        await self.shutdown()

    # ------------------------------------------------------------- writer task
    async def _writer_loop(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            batch = await self._queue.collect()
            if batch is None:
                return
            self._writer_busy_since = loop.time()
            try:
                if self._chaos is not None:
                    # The injection point for writer-stall scenarios: the
                    # real flush below is synchronous, so only an awaited
                    # hook can make the writer observably wedged.
                    await self._chaos.before_flush(self._flush_index)
                self._flush(batch)
            finally:
                self._flush_index += 1
                self._writer_busy_since = None
            # A completed flush is proof the writer is healthy again.
            self._degraded = False

    async def _watchdog_loop(self) -> None:
        assert self._watchdog is not None
        interval = self._watchdog / 4.0
        loop = asyncio.get_running_loop()
        while True:
            await asyncio.sleep(interval)
            now = loop.time()
            stalled_flush = (
                self._writer_busy_since is not None
                and now - self._writer_busy_since > self._watchdog
            )
            stalled_queue = self._queue.oldest_pending_age(now) > self._watchdog
            if stalled_flush or stalled_queue:
                self._degraded = True

    def _flush(self, batch: list[PendingDispatch]) -> None:
        """Commit one coalesced micro-batch and resolve its futures."""
        loop = asyncio.get_running_loop()
        origins = np.concatenate([item.origins for item in batch])
        files = np.concatenate([item.files for item in batch])
        total = int(origins.size)
        times: np.ndarray | None = None
        try:
            if self._kind == "queueing":
                times = self._assign_times(batch, total)
                result = self._session.dispatch_batch(origins, files, times)
            else:
                result = self._session.dispatch_batch(origins, files)
        except Exception as exc:  # resolve every waiter; the writer survives
            for item in batch:
                if not item.future.done():
                    item.future.set_exception(exc)
            # Consume the exceptions of abandoned futures (disconnected
            # clients) so the loop does not log them as unretrieved.
            for item in batch:
                if item.future.cancelled():
                    continue
                item.future.exception()
            return
        seq_start = self._seq
        if self._journal is not None:
            # Journal-before-ack: the batch becomes durable (under the
            # journal's fsync policy) before any client future resolves, so
            # a crash can only lose work nobody was told succeeded.
            self._journal.append_batch(
                seq_start,
                origins,
                files,
                times,
                [(len(item), item.key) for item in batch],
            )
            self._metrics.record_journal_batch()
            if self._chaos is not None:
                self._chaos.after_journal(self._metrics.journal_batches)
            if self._journal.checkpoint_due:
                self._journal.append_checkpoint(
                    seq_start + total,
                    self._session.state_digest(),
                    self._virtual_time,
                )
        self._seq += total
        offset = 0
        now = loop.time()
        for item in batch:
            size = len(item)
            if not item.future.done():
                unit = CommittedUnit.sliced(result, times, seq_start, offset, size)
                item.future.set_result(unit)
            self._metrics.dispatch_latency.record(max(0.0, now - item.enqueued_at))
            offset += size
        self._metrics.record_flush(total)

    def _assign_times(self, batch: list[PendingDispatch], total: int) -> np.ndarray:
        """Arrival times for a queueing batch from the virtual clock.

        Untimed requests advance the clock by ``tick`` each; explicit client
        times are honoured but clamped to be non-decreasing across the
        commit order (the simulated clock cannot run backwards).
        """
        times = np.empty(total, dtype=np.float64)
        cursor = self._virtual_time
        position = 0
        for item in batch:
            for index in range(len(item)):
                if item.times is not None:
                    cursor = max(cursor, float(item.times[index]))
                else:
                    cursor += self._tick
                times[position] = cursor
                position += 1
        self._virtual_time = cursor
        return times

    async def _refresh_loop(self) -> None:
        while True:
            await asyncio.sleep(self._snapshot_interval)
            self._publisher.refresh()

    # ---------------------------------------------------------------- dispatch
    def _validate_request(self, origin: int, file_id: int) -> None:
        if origin >= self._num_nodes:
            raise _HttpError(
                400, "invalid origin", f"origin {origin} >= n={self._num_nodes}"
            )
        if file_id >= self._num_files:
            raise _HttpError(
                400, "invalid file", f"file {file_id} >= K={self._num_files}"
            )
        if file_id in self._uncached:
            raise _HttpError(
                400,
                "uncached file",
                f"file {file_id} is cached on no server; dispatch is impossible",
            )

    async def _dispatch(
        self,
        origins: Sequence[int],
        files: Sequence[int],
        times: Sequence[float] | None,
        key: str | None,
    ) -> CommittedUnit:
        """Commit one unit exactly once per idempotency key.

        The path both dispatch endpoints share.  A duplicate of a committed
        key gets the stored unit; a duplicate racing the original awaits the
        original's unit future.  Either way the duplicate never reaches the
        queue, so it cannot double-commit or advance the session's RNG
        streams.  A key reused for different origins or files is a 400
        ``idempotency key mismatch``.  A *failed* commit drops the key, so a
        retry after an error re-attempts cleanly.
        """
        if key is None:
            return await self._commit(origins, files, times, key)
        request = (np.asarray(origins, dtype=np.int64), np.asarray(files, dtype=np.int64))
        entry = self._idempotency.lookup(key)
        if entry is not None:
            state, value, (first_origins, first_files) = entry
            if not (
                np.array_equal(first_origins, request[0])
                and np.array_equal(first_files, request[1])
            ):
                detail = f"key {key!r} was first used for a different request"
                raise _HttpError(400, "idempotency key mismatch", detail)
            self._metrics.record_duplicate()
            return value if state == "done" else await asyncio.shield(value)
        self._idempotency.begin(key, request)
        try:
            unit = await self._commit(origins, files, times, key)
        except asyncio.CancelledError:
            self._idempotency.forget(key)
            raise
        except BaseException as exc:
            self._idempotency.fail(key, exc)
            raise
        # The writer's unit slices the whole flush; the index keeps a copy.
        self._idempotency.finish(key, unit.copy())
        return unit

    async def _commit(
        self,
        origins: Sequence[int],
        files: Sequence[int],
        times: Sequence[float] | None,
        key: str | None,
    ) -> CommittedUnit:
        """Validate one unit, enqueue it and await its committed decisions."""
        for origin, file_id in zip(origins, files):
            self._validate_request(origin, file_id)
        time_array = None
        if times is not None:
            time_array = np.asarray(times, dtype=np.float64)
            if np.any(np.diff(time_array) < 0):
                raise _HttpError(
                    400, "invalid times", "batch times must be non-decreasing"
                )
        if self._closing or self._queue.closed:
            raise _HttpError(503, "shutting down", "server is draining; retry elsewhere")
        if self._degraded:
            self._metrics.record_degraded()
            retry_after = max(1, math.ceil(self._watchdog or 1.0))
            raise _HttpError(
                503,
                "degraded",
                "writer stalled past the watchdog deadline; "
                "serving snapshots only — retry later",
                headers={"retry-after": str(retry_after)},
            )
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        self._queue.put(
            PendingDispatch(
                origins=np.asarray(origins, dtype=np.int64),
                files=np.asarray(files, dtype=np.int64),
                times=time_array,
                future=future,
                enqueued_at=loop.time(),
                key=key,
            )
        )
        try:
            return await future
        except NoReplicaError as exc:
            raise _HttpError(400, "no replica", str(exc)) from exc
        except ReproError as exc:
            raise _HttpError(400, "dispatch rejected", str(exc)) from exc

    async def _handle_dispatch(self, body: bytes) -> dict[str, Any]:
        request = DispatchRequest.from_payload(decode(body))
        unit = await self._dispatch(
            (request.origin,),
            (request.file,),
            None if request.time is None else (request.time,),
            request.key,
        )
        return DispatchResponse(
            server=int(unit.servers[0]),
            distance=int(unit.distances[0]),
            seq=unit.seq,
            fallback=bool(unit.fallbacks[0]),
            time=None if unit.times is None else float(unit.times[0]),
        ).to_payload()

    async def _handle_dispatch_batch(self, body: bytes) -> dict[str, Any]:
        request = BatchDispatchRequest.from_payload(decode(body))
        unit = await self._dispatch(
            request.origins, request.files, request.times, request.key
        )
        return BatchDispatchResponse(
            servers=tuple(unit.servers.tolist()),
            distances=tuple(unit.distances.tolist()),
            fallbacks=tuple(unit.fallbacks.tolist()),
            seq_start=unit.seq,
            times=None if unit.times is None else tuple(unit.times.tolist()),
        ).to_payload()

    # ------------------------------------------------------------------- reads
    def _handle_snapshot(self) -> dict[str, Any]:
        return self._publisher.current.response(self._publisher.now()).to_payload()

    def _handle_healthz(self) -> dict[str, Any]:
        loop = asyncio.get_running_loop()
        uptime = loop.time() - self._started_at if self._started_at is not None else 0.0
        if self._closing:
            status = "draining"
        elif self._degraded:
            status = "degraded"
        else:
            status = "ok"
        payload: dict[str, Any] = {
            "status": status,
            "kind": self._kind,
            "engine": self._publisher.engine,
            "nodes": self._num_nodes,
            "files": self._num_files,
            "dispatched": self._seq,
            "uptime_seconds": uptime,
            "snapshot_version": self._publisher.current.version,
            "engines": engines_payload(),
        }
        if self._kind == "queueing":
            payload["served_until"] = self._virtual_time
        if self._journal is not None:
            payload["journal"] = self._journal.path
        return payload

    # -------------------------------------------------------------------- http
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        assert task is not None
        self._conn_tasks.add(task)
        try:
            while True:
                try:
                    parsed = await self._read_request(reader)
                except _HttpError as exc:
                    self._metrics.record_error(exc.status)
                    self._write_response(
                        writer, exc.status, exc.response.to_payload(), keep_alive=False
                    )
                    await writer.drain()
                    break
                except (
                    asyncio.IncompleteReadError,
                    ConnectionResetError,
                    ValueError,
                ):
                    break
                if parsed is None:
                    break
                method, path, headers, body = parsed
                keep_alive = headers.get("connection", "keep-alive").lower() != "close"
                self._inflight += 1
                extra_headers: dict[str, str] = {}
                try:
                    status, payload = await self._route(method, path, body)
                except _HttpError as exc:
                    status, payload = exc.status, exc.response.to_payload()
                    extra_headers = exc.headers
                except ProtocolError as exc:
                    status = 400
                    payload = ErrorResponse("protocol error", str(exc)).to_payload()
                except asyncio.CancelledError:
                    raise
                except Exception as exc:  # defensive: never kill the connection loop
                    status = 500
                    payload = ErrorResponse("internal error", str(exc)).to_payload()
                finally:
                    self._inflight -= 1
                self._metrics.record_request(path)
                if status >= 400:
                    self._metrics.record_error(status)
                try:
                    self._write_response(
                        writer,
                        status,
                        payload,
                        keep_alive=keep_alive,
                        extra_headers=extra_headers,
                    )
                    await writer.drain()
                except (ConnectionResetError, BrokenPipeError):
                    break
                if not keep_alive:
                    break
        except asyncio.CancelledError:
            pass
        finally:
            self._conn_tasks.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _route(
        self, method: str, path: str, body: bytes
    ) -> tuple[int, dict[str, Any]]:
        if path == "/dispatch":
            if method != "POST":
                raise _HttpError(405, "method not allowed", "POST /dispatch")
            return 200, await self._handle_dispatch(body)
        if path == "/dispatch/batch":
            if method != "POST":
                raise _HttpError(405, "method not allowed", "POST /dispatch/batch")
            return 200, await self._handle_dispatch_batch(body)
        if path == "/snapshot":
            if method != "GET":
                raise _HttpError(405, "method not allowed", "GET /snapshot")
            return 200, self._handle_snapshot()
        if path == "/healthz":
            if method != "GET":
                raise _HttpError(405, "method not allowed", "GET /healthz")
            return 200, self._handle_healthz()
        if path == "/metrics":
            if method != "GET":
                raise _HttpError(405, "method not allowed", "GET /metrics")
            return 200, self._metrics.payload()
        raise _HttpError(404, "not found", f"unknown path {path!r}")

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> tuple[str, str, dict[str, str], bytes] | None:
        request_line = await reader.readline()
        if not request_line:
            return None
        parts = request_line.decode("latin-1").strip().split()
        if len(parts) != 3 or not parts[2].startswith("HTTP/"):
            raise _HttpError(400, "malformed request line", request_line.decode("latin-1", "replace").strip())
        method, path, _version = parts
        headers: dict[str, str] = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n"):
                break
            if not line:
                return None
            if len(headers) > 64:
                raise _HttpError(400, "too many headers")
            name, sep, value = line.decode("latin-1").partition(":")
            if not sep:
                raise _HttpError(400, "malformed header", name.strip())
            headers[name.strip().lower()] = value.strip()
        length_text = headers.get("content-length", "0")
        try:
            length = int(length_text)
        except ValueError:
            raise _HttpError(400, "malformed content-length", length_text) from None
        if length < 0:
            raise _HttpError(400, "malformed content-length", length_text)
        if length > MAX_BODY_BYTES:
            raise _HttpError(413, "payload too large", f"{length} > {MAX_BODY_BYTES}")
        body = await reader.readexactly(length) if length else b""
        return method.upper(), path, headers, body

    @staticmethod
    def _write_response(
        writer: asyncio.StreamWriter,
        status: int,
        payload: dict[str, Any],
        *,
        keep_alive: bool,
        extra_headers: dict[str, str] | None = None,
    ) -> None:
        body = encode(payload)
        head = (
            f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}\r\n"
            f"content-type: application/json\r\n"
            f"content-length: {len(body)}\r\n"
            f"connection: {'keep-alive' if keep_alive else 'close'}\r\n"
        )
        for name, value in (extra_headers or {}).items():
            head += f"{name}: {value}\r\n"
        head += "\r\n"
        writer.write(head.encode("latin-1") + body)
