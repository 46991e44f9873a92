"""Write-ahead dispatch journal: durable commit log + deterministic recovery.

The dispatch service's bit-identity contract (PR 7) makes crash recovery an
*equality assertion* instead of a best effort: served decisions are a pure
function of the commit order and the session seed, so journaling the
committed request stream is enough to reconstruct the exact live session by
replay.  This module owns that journal:

* :class:`DispatchJournal` — an append-only JSONL log the server writes one
  record per committed micro-batch (commit-order ``seq``, the request
  payloads, the committed arrival times, and the per-unit idempotency keys)
  plus periodic checkpoint records carrying the session's
  :meth:`state_digest` fingerprint.  Durability is tunable via the fsync
  policy (``always`` / ``interval`` / ``never``).
* :func:`read_journal` — torn-tail-tolerant reader: a truncated final line
  (the expected artifact of a crash mid-append) is silently dropped;
  corruption *followed by* valid records, or a gap in the commit sequence,
  raises :class:`~repro.exceptions.JournalError`.
* :func:`recover_session` — rebuilds the live session by deterministic
  replay of the journaled requests (same commit order, same committed
  times), one ``dispatch_batch`` call per checkpoint segment rather than
  one per journaled batch, and asserts every checkpoint fingerprint along
  the way, so a recovered session is *provably* bit-identical to the
  crashed one up to the last durable batch.  Each keyed unit's committed
  decisions are sliced back out of the replay as a
  :class:`~repro.service.state.CommittedUnit`, so the server's dedup index
  survives the crash too.

Record format (one JSON object per line)::

    {"type": "header", "version": 1, "kind": ..., "spec": ..., "seed": ...}
    {"type": "batch", "seq": 0, "origins": [...], "files": [...],
     "times": [...] | null, "units": [[size, key | null], ...]}
    {"type": "checkpoint", "seq": 128, "digest": "...", "virtual_time": ...}

``spec`` is the declarative session description written by ``repro serve
--journal`` (see :func:`build_session_from_spec`); in-process users may
journal with ``spec=None`` and hand :func:`recover_session` an explicitly
rebuilt session instead.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from itertools import accumulate, chain
from typing import Any, Mapping, Sequence

import numpy as np

from repro.exceptions import JournalError
from repro.service.state import CommittedUnit, Request, session_kind
from repro.session.core import CacheNetworkSession
from repro.session.queueing import QueueingSession

__all__ = [
    "FSYNC_POLICIES",
    "JOURNAL_VERSION",
    "DispatchJournal",
    "JournalBatch",
    "JournalCheckpoint",
    "JournalContents",
    "RecoveredSession",
    "build_session_from_spec",
    "read_journal",
    "recover_session",
]

JOURNAL_VERSION = 1

#: Most requests one replay call carries.  A checkpoint segment holding more
#: replays in several calls, split on batch boundaries, so a journal written
#: with a long checkpoint cadence never replays in one unbounded call.
_REPLAY_REQUESTS = 1 << 16

#: Durability knobs: ``always`` fsyncs after every batch (a crash loses at
#: most unacked work), ``interval`` fsyncs at checkpoints (bounded loss,
#: cheap), ``never`` leaves flushing to the OS (fastest, weakest).
FSYNC_POLICIES = ("always", "interval", "never")


# ------------------------------------------------------------------- records
@dataclass(frozen=True)
class JournalBatch:
    """One committed micro-batch: the requests at ``[seq, seq + total)``."""

    seq: int
    origins: tuple[int, ...]
    files: tuple[int, ...]
    times: tuple[float, ...] | None
    units: tuple[tuple[int, str | None], ...]

    @property
    def total(self) -> int:
        return len(self.origins)


@dataclass(frozen=True)
class JournalCheckpoint:
    """A recorded session fingerprint after ``seq`` committed requests."""

    seq: int
    digest: str
    virtual_time: float


@dataclass(frozen=True)
class JournalContents:
    """Everything :func:`read_journal` parsed out of one journal file."""

    header: dict[str, Any]
    records: tuple[JournalBatch | JournalCheckpoint, ...]
    clean_size: int  # byte length of the parseable prefix (torn tail excluded)

    @property
    def batches(self) -> tuple[JournalBatch, ...]:
        return tuple(r for r in self.records if isinstance(r, JournalBatch))

    @property
    def checkpoints(self) -> tuple[JournalCheckpoint, ...]:
        return tuple(r for r in self.records if isinstance(r, JournalCheckpoint))

    @property
    def next_seq(self) -> int:
        """The commit-order seq the next accepted request will receive."""
        batches = self.batches
        return batches[-1].seq + batches[-1].total if batches else 0


# -------------------------------------------------------------------- writer
class DispatchJournal:
    """Append-only write-ahead log of the server's committed batches.

    Create a fresh journal with :meth:`create` (writes the header record) or
    continue an existing one with :meth:`open_append` (validates the header
    and truncates any torn tail).  The server appends one :meth:`append_batch`
    per committed micro-batch *before* resolving client futures, so every
    acknowledged decision is durable under the configured fsync policy.
    """

    def __init__(
        self,
        path,
        *,
        header: dict[str, Any],
        fsync: str = "interval",
        checkpoint_every: int = 16,
        _mode: str = "xb",
        _clean_size: int | None = None,
    ) -> None:
        if fsync not in FSYNC_POLICIES:
            raise ValueError(f"fsync must be one of {FSYNC_POLICIES}, got {fsync!r}")
        if checkpoint_every < 1:
            raise ValueError(f"checkpoint_every must be >= 1, got {checkpoint_every}")
        self._path = os.fspath(path)
        self._fsync = fsync
        self._checkpoint_every = int(checkpoint_every)
        self._header = header
        self._since_checkpoint = 0
        self._batches = 0
        if _mode == "append":
            # Truncate the torn tail (if any) before appending: a partial
            # final line would otherwise corrupt the first new record.
            self._file = open(self._path, "r+b")
            assert _clean_size is not None
            self._file.truncate(_clean_size)
            self._file.seek(_clean_size)
        else:
            self._file = open(self._path, "wb")
            self._write(header)
            self._sync(force=True)

    # ------------------------------------------------------------ constructors
    @classmethod
    def create(
        cls,
        path,
        *,
        kind: str,
        spec: Mapping[str, Any] | None = None,
        seed: int | None = None,
        fsync: str = "interval",
        checkpoint_every: int = 16,
    ) -> "DispatchJournal":
        """A fresh journal for one serving run (truncates ``path``)."""
        header = {
            "type": "header",
            "version": JOURNAL_VERSION,
            "kind": kind,
            "spec": dict(spec) if spec is not None else None,
            "seed": seed,
        }
        return cls(
            path,
            header=header,
            fsync=fsync,
            checkpoint_every=checkpoint_every,
            _mode="create",
        )

    @classmethod
    def open_append(
        cls,
        path,
        *,
        fsync: str = "interval",
        checkpoint_every: int = 16,
    ) -> "DispatchJournal":
        """Continue appending to an existing journal (post-recovery serving).

        Reads and validates the journal first; a torn final line is
        truncated away so appends always start on a record boundary.
        """
        contents = read_journal(path)
        return cls(
            path,
            header=contents.header,
            fsync=fsync,
            checkpoint_every=checkpoint_every,
            _mode="append",
            _clean_size=contents.clean_size,
        )

    # --------------------------------------------------------------- properties
    @property
    def path(self) -> str:
        return self._path

    @property
    def header(self) -> dict[str, Any]:
        return dict(self._header)

    @property
    def kind(self) -> str:
        return str(self._header.get("kind", ""))

    @property
    def fsync_policy(self) -> str:
        return self._fsync

    @property
    def checkpoint_every(self) -> int:
        return self._checkpoint_every

    @property
    def batches_written(self) -> int:
        """Batch records appended by *this* handle (not the whole file)."""
        return self._batches

    @property
    def checkpoint_due(self) -> bool:
        """Whether ``checkpoint_every`` batches landed since the last one."""
        return self._since_checkpoint >= self._checkpoint_every

    # ------------------------------------------------------------------ appends
    def append_batch(
        self,
        seq: int,
        origins,
        files,
        times,
        units: Sequence[tuple[int, str | None]],
    ) -> None:
        """Journal one committed micro-batch (call before resolving futures)."""
        record = {
            "type": "batch",
            "seq": int(seq),
            "origins": [int(o) for o in origins],
            "files": [int(f) for f in files],
            "times": [float(t) for t in times] if times is not None else None,
            "units": [[int(size), key] for size, key in units],
        }
        self._write(record)
        self._batches += 1
        self._since_checkpoint += 1
        self._sync(force=self._fsync == "always")

    def append_checkpoint(self, seq: int, digest: str, virtual_time: float) -> None:
        """Record the session fingerprint after ``seq`` committed requests."""
        record = {
            "type": "checkpoint",
            "seq": int(seq),
            "digest": str(digest),
            "virtual_time": float(virtual_time),
        }
        self._write(record)
        self._since_checkpoint = 0
        # Checkpoints are the durability boundary of the "interval" policy.
        self._sync(force=self._fsync in ("always", "interval"))

    def close(self) -> None:
        if self._file.closed:
            return
        self._sync(force=self._fsync != "never")
        self._file.close()

    def __enter__(self) -> "DispatchJournal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ----------------------------------------------------------------- internal
    def _write(self, record: Mapping[str, Any]) -> None:
        self._file.write(json.dumps(record, separators=(",", ":")).encode("utf-8"))
        self._file.write(b"\n")

    def _sync(self, *, force: bool) -> None:
        self._file.flush()
        if force:
            os.fsync(self._file.fileno())


# -------------------------------------------------------------------- reader
def _parse_batch(payload: Mapping[str, Any], line_no: int) -> JournalBatch:
    try:
        origins = tuple(int(o) for o in payload["origins"])
        files = tuple(int(f) for f in payload["files"])
        raw_times = payload.get("times")
        times = tuple(float(t) for t in raw_times) if raw_times is not None else None
        units = tuple(
            (int(size), None if key is None else str(key))
            for size, key in payload.get("units", [])
        )
        seq = int(payload["seq"])
    except (KeyError, TypeError, ValueError) as exc:
        raise JournalError(f"malformed batch record at line {line_no}: {exc}") from exc
    if len(origins) != len(files):
        raise JournalError(
            f"batch record at line {line_no} has {len(origins)} origins but "
            f"{len(files)} files"
        )
    if times is not None and len(times) != len(origins):
        raise JournalError(
            f"batch record at line {line_no} has {len(times)} times for "
            f"{len(origins)} requests"
        )
    if units and sum(size for size, _ in units) != len(origins):
        raise JournalError(
            f"batch record at line {line_no}: unit sizes do not sum to the "
            f"batch length {len(origins)}"
        )
    return JournalBatch(seq=seq, origins=origins, files=files, times=times, units=units)


def _parse_checkpoint(payload: Mapping[str, Any], line_no: int) -> JournalCheckpoint:
    try:
        return JournalCheckpoint(
            seq=int(payload["seq"]),
            digest=str(payload["digest"]),
            virtual_time=float(payload.get("virtual_time", 0.0)),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise JournalError(
            f"malformed checkpoint record at line {line_no}: {exc}"
        ) from exc


def read_journal(path) -> JournalContents:
    """Parse a dispatch journal, tolerating a torn (crash-truncated) tail.

    The final line may be incomplete — a crash mid-append leaves exactly
    that — and is dropped; its byte offset becomes ``clean_size`` so
    :meth:`DispatchJournal.open_append` can truncate it away.  An
    unparseable line *followed by further records*, a missing or invalid
    header, or a gap in the batch commit sequence is real corruption and
    raises :class:`~repro.exceptions.JournalError`.
    """
    with open(path, "rb") as handle:
        raw = handle.read()
    if not raw:
        raise JournalError(f"journal {path!r} is empty")
    lines = raw.split(b"\n")
    # A file ending in "\n" splits into [..., b""]; anything else means the
    # final line never got its newline — a torn tail candidate.
    torn_fragment = lines.pop() if lines and lines[-1] != b"" else (lines.pop(), b"")[1]

    header: dict[str, Any] | None = None
    records: list[JournalBatch | JournalCheckpoint] = []
    expected_seq = 0
    clean_size = 0
    for index, line in enumerate(lines):
        line_no = index + 1
        try:
            payload = json.loads(line.decode("utf-8"))
            if not isinstance(payload, dict):
                raise ValueError(f"expected a JSON object, got {type(payload).__name__}")
        except (UnicodeDecodeError, ValueError) as exc:
            if index == len(lines) - 1 and torn_fragment == b"":
                # The last complete-looking line is itself unparseable only
                # when the crash landed inside the final record's bytes but
                # after a stray newline; treat it as the torn tail.
                break
            raise JournalError(
                f"corrupt journal record at line {line_no}: {exc}"
            ) from exc
        kind = payload.get("type")
        if index == 0:
            if kind != "header":
                raise JournalError(
                    f"journal {path!r} does not start with a header record"
                )
            version = payload.get("version")
            if version != JOURNAL_VERSION:
                raise JournalError(
                    f"unsupported journal version {version!r} "
                    f"(this reader speaks {JOURNAL_VERSION})"
                )
            header = payload
        elif kind == "batch":
            batch = _parse_batch(payload, line_no)
            if batch.seq != expected_seq:
                raise JournalError(
                    f"commit sequence gap at line {line_no}: expected seq "
                    f"{expected_seq}, found {batch.seq}"
                )
            expected_seq += batch.total
            records.append(batch)
        elif kind == "checkpoint":
            records.append(_parse_checkpoint(payload, line_no))
        else:
            raise JournalError(
                f"unknown record type {kind!r} at line {line_no}"
            )
        clean_size += len(line) + 1
    if header is None:
        raise JournalError(f"journal {path!r} holds no complete header record")
    return JournalContents(
        header=header, records=tuple(records), clean_size=clean_size
    )


# ----------------------------------------------------------- session building
def build_session_from_spec(
    spec: Mapping[str, Any] | None,
) -> CacheNetworkSession | QueueingSession:
    """Rebuild the live session a journal header (or ``repro serve``) describes.

    ``spec`` is the declarative dict the CLI journals: topology/library/
    placement shape, strategy parameters, seed and engine.  ``repro serve``
    builds its live session through this function too, so a recovered
    session is assembled exactly as the served one was.  Static specs go
    through :class:`~repro.simulation.config.SimulationConfig`; queueing
    specs through :func:`~repro.session.queueing.open_queueing_session`.
    """
    if spec is None:
        raise JournalError(
            "journal header carries no session spec; pass the rebuilt "
            "session to recover_session(..., session=...) explicitly"
        )
    kind = spec.get("kind")
    seed = spec.get("seed", 0)
    engine = spec.get("engine", "auto")
    if kind == "queueing":
        from repro.catalog.library import FileLibrary
        from repro.catalog.popularity import create_popularity
        from repro.placement.factory import create_placement
        from repro.session.queueing import open_queueing_session
        from repro.topology.factory import create_topology
        from repro.workload import PoissonArrivalProcess

        popularity_params: dict[str, Any] = {}
        if spec.get("popularity") == "zipf":
            popularity_params["gamma"] = spec["gamma"]
        radius = spec.get("radius")
        return open_queueing_session(
            create_topology(spec.get("topology", "torus"), spec["nodes"]),
            FileLibrary(
                spec["files"],
                create_popularity(
                    spec.get("popularity", "uniform"),
                    spec["files"],
                    **popularity_params,
                ),
            ),
            create_placement(spec.get("placement", "proportional"), spec["cache"]),
            # The service drives arrival times itself (the virtual clock); the
            # process here only parameterises the utilisation warning.
            PoissonArrivalProcess(rate_per_node=0.5),
            seed=seed,
            service_rate=spec.get("mu", 1.0),
            radius=np.inf if radius is None else float(radius),
            num_choices=spec.get("choices", 2),
            engine=engine,
        )
    if kind == "assignment":
        from repro.session.core import open_session
        from repro.simulation.config import SimulationConfig
        from repro.strategies.factory import resolve_strategy_name

        strategy = resolve_strategy_name(spec.get("strategy", "proximity_two_choice"))
        strategy_params: dict[str, Any] = {}
        if strategy != "nearest_replica":
            strategy_params["radius"] = spec.get("radius")
            if strategy in ("proximity_two_choice", "threshold_hybrid"):
                strategy_params["num_choices"] = spec.get("choices", 2)
        popularity_params = {}
        if spec.get("popularity") == "zipf":
            popularity_params["gamma"] = spec["gamma"]
        config = SimulationConfig(
            num_nodes=spec["nodes"],
            num_files=spec["files"],
            cache_size=spec["cache"],
            topology=spec.get("topology", "torus"),
            popularity=spec.get("popularity", "uniform"),
            popularity_params=popularity_params,
            placement=spec.get("placement", "proportional"),
            strategy=spec.get("strategy", "proximity_two_choice"),
            strategy_params=strategy_params,
            num_requests=None,
        )
        return open_session(config, seed=seed, assignment_engine=engine)
    raise JournalError(f"session spec has unknown kind {kind!r}")


# ------------------------------------------------------------------ recovery
@dataclass
class RecoveredSession:
    """What deterministic journal replay reconstructed.

    ``session`` is live and positioned exactly where the crashed server's
    was after its last durable batch; ``next_seq`` is the commit-order seq
    the next accepted request must receive; ``idempotency`` lists every
    journaled idempotency key, in journal order, as ``(key, unit,
    (origins, files))``: its unit's committed decisions (a
    :class:`~repro.service.state.CommittedUnit`) and the request that
    committed them, each holding its own arrays, so the server's dedup
    index survives the crash and still refuses a reused key.
    """

    session: CacheNetworkSession | QueueingSession
    kind: str
    next_seq: int
    virtual_time: float
    batches: int
    requests: int
    checkpoints_verified: int
    idempotency: list[tuple[str, CommittedUnit, Request]] = field(default_factory=list)


def _replay(
    session: CacheNetworkSession | QueueingSession,
    segment: Sequence[JournalBatch],
) -> list[tuple[str, CommittedUnit, Request]]:
    """Replay consecutive journaled batches in one ``dispatch_batch`` call.

    The call counts as ``len(segment)`` windows.  An untimed queueing batch
    arrives at the running ``served_until`` — the last time of the segment's
    previous timed batch, or the session's clock before the call — which is
    exactly where ``dispatch_batch(times=None)`` would have put it.  Returns
    the keyed units, each sliced (and copied) out of the call's decisions,
    with copies of their origins and files.
    """
    starts = [0, *accumulate(batch.total for batch in segment)]
    total = starts[-1]
    origins = np.fromiter(
        chain.from_iterable(batch.origins for batch in segment),
        dtype=np.int64,
        count=total,
    )
    files = np.fromiter(
        chain.from_iterable(batch.files for batch in segment),
        dtype=np.int64,
        count=total,
    )
    times = None
    if session_kind(session) == "queueing":
        times = np.empty(total, dtype=np.float64)
        clock = session.served_until
        for batch, start, stop in zip(segment, starts, starts[1:]):
            if batch.times is None:
                times[start:stop] = clock
            elif batch.times:
                times[start:stop] = batch.times
                clock = batch.times[-1]
        result = session.dispatch_batch(origins, files, times, windows=len(segment))
    else:
        result = session.dispatch_batch(origins, files, windows=len(segment))
    units: list[tuple[str, CommittedUnit, Request]] = []
    for batch, offset in zip(segment, starts):
        for size, key in batch.units:
            if key is not None:
                unit = CommittedUnit.sliced(result, times, segment[0].seq, offset, size)
                window = slice(offset, offset + size)
                request = (origins[window].copy(), files[window].copy())
                units.append((key, unit.copy(), request))
            offset += size
    return units


def recover_session(
    path,
    *,
    session: CacheNetworkSession | QueueingSession | None = None,
) -> RecoveredSession:
    """Rebuild a live session from its journal by deterministic replay.

    Replays every durable request through :meth:`dispatch_batch` in the
    writer's commit order with its committed times, and asserts the session
    fingerprint against every checkpoint record at the seq it was written.
    The batches between two checkpoints (and after the last one) replay in
    one call, or in several of at most ``_REPLAY_REQUESTS`` requests each
    (a single larger batch gets a call of its own); the calls count one
    window per journaled batch.  By the windowed-serving RNG contract any
    partition of the commit stream gives the same decisions, so the result
    is bit-identical to the crashed server's session after its last durable
    batch; a fingerprint mismatch (a tampered or mismatched journal, a
    different code version) raises :class:`~repro.exceptions.JournalError`
    instead of serving wrong decisions silently.
    """
    contents = read_journal(path)
    kind = str(contents.header.get("kind", ""))
    if session is None:
        session = build_session_from_spec(contents.header.get("spec"))
    expected_kind = session_kind(session)
    if kind and kind != expected_kind:
        raise JournalError(
            f"journal records a {kind!r} session but a {expected_kind!r} "
            "session was supplied"
        )
    idempotency: list[tuple[str, CommittedUnit, Request]] = []
    batches = 0
    requests = 0
    verified = 0
    virtual_time = 0.0
    segment: list[JournalBatch] = []
    pending = 0  # requests in ``segment``
    for record in contents.records:
        if isinstance(record, JournalBatch):
            if segment and pending + record.total > _REPLAY_REQUESTS:
                idempotency.extend(_replay(session, segment))
                segment, pending = [], 0
            segment.append(record)
            pending += record.total
            if record.times:
                virtual_time = float(record.times[-1])
            batches += 1
            requests += record.total
        else:
            if segment:
                idempotency.extend(_replay(session, segment))
                segment, pending = [], 0
            digest = session.state_digest()
            if digest != record.digest:
                raise JournalError(
                    f"recovery fingerprint mismatch at seq {record.seq}: "
                    f"journal recorded {record.digest[:16]}…, replay produced "
                    f"{digest[:16]}… — the journal does not belong to this "
                    "session (different seed, spec, or code version)"
                )
            verified += 1
            virtual_time = max(virtual_time, record.virtual_time)
    if segment:
        idempotency.extend(_replay(session, segment))
    if expected_kind == "queueing":
        virtual_time = max(virtual_time, float(session.served_until))
    return RecoveredSession(
        session=session,
        kind=expected_kind,
        next_seq=contents.next_seq,
        virtual_time=virtual_time,
        batches=batches,
        requests=requests,
        checkpoints_verified=verified,
        idempotency=idempotency,
    )
