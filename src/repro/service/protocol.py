"""Wire protocol of the dispatch service: typed messages + JSON (de)serde.

One module owns every request/response shape so the server, the asyncio
client and the load generator cannot drift apart.  All messages are frozen
dataclasses with a ``to_payload``/``from_payload`` pair; :func:`encode` and
:func:`decode` handle the byte level.  Anything malformed — invalid JSON, a
missing field, a wrong type (``bool`` is *not* an ``int`` here), a negative
id — raises :class:`ProtocolError`, which the server maps to HTTP 400.

Endpoints
---------

``POST /dispatch``
    :class:`DispatchRequest` → :class:`DispatchResponse`.  ``time`` is only
    meaningful against a queueing session (the arrival's absolute simulated
    time); static sessions ignore it.  It must be finite: JSON ``1e999`` or
    ``NaN`` would move the virtual clock where no later arrival can follow.
``POST /dispatch/batch``
    :class:`BatchDispatchRequest` → :class:`BatchDispatchResponse` (parallel
    arrays, one commit per micro-batch; ``times`` as above).
``GET /snapshot``
    :class:`SnapshotResponse` — the periodically-published state snapshot
    with its version and age, so clients can see staleness explicitly.
``GET /healthz`` / ``GET /metrics``
    Plain JSON documents (health includes the machine-readable engine
    availability of ``repro engines --json``).

``seq`` in dispatch responses is the request's global index in the server's
commit order; replaying the requests in ``seq`` order through an offline
session with the server's seed reproduces every decision bit for bit.
``fallback`` (``fallbacks`` in a batch) marks a request whose ball
``B_r(origin)`` held no replica: it went to the nearest replica outside the
ball and paid more than ``r`` hops.  Both session kinds report it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Any, Mapping, Sequence

__all__ = [
    "MAX_KEY_LENGTH",
    "ProtocolError",
    "DispatchRequest",
    "DispatchResponse",
    "BatchDispatchRequest",
    "BatchDispatchResponse",
    "SnapshotResponse",
    "ErrorResponse",
    "encode",
    "decode",
]


class ProtocolError(ValueError):
    """A message violates the wire protocol (HTTP 400 at the server)."""


def encode(payload: Mapping[str, Any]) -> bytes:
    """Serialise a JSON payload to compact UTF-8 bytes."""
    return json.dumps(payload, separators=(",", ":")).encode("utf-8")


def decode(body: bytes) -> dict[str, Any]:
    """Parse a JSON object from request/response bytes."""
    try:
        payload = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"body is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ProtocolError(
            f"expected a JSON object, got {type(payload).__name__}"
        )
    return payload


def _require_int(payload: Mapping[str, Any], key: str, *, minimum: int = 0) -> int:
    if key not in payload:
        raise ProtocolError(f"missing field {key!r}")
    value = payload[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise ProtocolError(f"field {key!r} must be an integer, got {value!r}")
    if value < minimum:
        raise ProtocolError(f"field {key!r} must be >= {minimum}, got {value}")
    return value


def _finite_time(value: Any, key: str) -> float:
    """One arrival time: a JSON number that is finite as a float."""
    if not isinstance(value, bool) and isinstance(value, (int, float)):
        try:
            time = float(value)
        except OverflowError:  # an integer literal beyond the float range
            time = math.inf
        if math.isfinite(time):
            return time
    raise ProtocolError(f"field {key!r}: expected a finite number, got {value!r}")


def _optional_time(payload: Mapping[str, Any], key: str = "time") -> float | None:
    value = payload.get(key)
    return None if value is None else _finite_time(value, key)


#: Idempotency keys are bounded so the server's dedup index cannot be used
#: to balloon journal records or response caches.
MAX_KEY_LENGTH = 128


def _validate_key(value: Any) -> str | None:
    if value is None:
        return None
    if not isinstance(value, str):
        raise ProtocolError(f"field 'key' must be a string, got {value!r}")
    if not value:
        raise ProtocolError("field 'key' must be non-empty when present")
    if len(value) > MAX_KEY_LENGTH:
        raise ProtocolError(
            f"field 'key' must be at most {MAX_KEY_LENGTH} characters, "
            f"got {len(value)}"
        )
    return value


def _int_sequence(payload: Mapping[str, Any], key: str) -> tuple[int, ...]:
    if key not in payload:
        raise ProtocolError(f"missing field {key!r}")
    value = payload[key]
    if not isinstance(value, (list, tuple)):
        raise ProtocolError(f"field {key!r} must be an array, got {value!r}")
    out = []
    for item in value:
        if isinstance(item, bool) or not isinstance(item, int) or item < 0:
            raise ProtocolError(
                f"field {key!r} must hold non-negative integers, got {item!r}"
            )
        out.append(item)
    return tuple(out)


# ------------------------------------------------------------------ dispatch
@dataclass(frozen=True)
class DispatchRequest:
    """One placement question: which cache serves ``file`` for ``origin``?

    ``key`` is an optional client-generated idempotency key: the server
    deduplicates retried or duplicated deliveries carrying the same key and
    returns the original committed decision instead of committing twice.
    """

    origin: int
    file: int
    time: float | None = None
    key: str | None = None

    def __post_init__(self) -> None:
        if self.origin < 0 or self.file < 0:
            raise ProtocolError("origin and file must be non-negative")
        object.__setattr__(self, "key", _validate_key(self.key))

    def to_payload(self) -> dict[str, Any]:
        payload: dict[str, Any] = {"origin": self.origin, "file": self.file}
        if self.time is not None:
            payload["time"] = self.time
        if self.key is not None:
            payload["key"] = self.key
        return payload

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any]) -> "DispatchRequest":
        return cls(
            origin=_require_int(payload, "origin"),
            file=_require_int(payload, "file"),
            time=_optional_time(payload),
            key=_validate_key(payload.get("key")),
        )


@dataclass(frozen=True)
class DispatchResponse:
    """The placement decision for one request.

    ``server`` is the chosen cache, ``distance`` the hop cost from the
    origin, ``seq`` the request's global index in the server's commit order,
    ``fallback`` whether the origin's ball held no replica (so ``distance``
    exceeds ``r``), and ``time`` the simulated arrival time the decision was
    committed at (queueing sessions only).
    """

    server: int
    distance: int
    seq: int
    fallback: bool = False
    time: float | None = None

    def to_payload(self) -> dict[str, Any]:
        payload: dict[str, Any] = {
            "server": self.server,
            "distance": self.distance,
            "seq": self.seq,
            "fallback": self.fallback,
        }
        if self.time is not None:
            payload["time"] = self.time
        return payload

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any]) -> "DispatchResponse":
        fallback = payload.get("fallback", False)
        if not isinstance(fallback, bool):
            raise ProtocolError(f"field 'fallback' must be a boolean, got {fallback!r}")
        return cls(
            server=_require_int(payload, "server"),
            distance=_require_int(payload, "distance"),
            seq=_require_int(payload, "seq"),
            fallback=fallback,
            time=_optional_time(payload),
        )


@dataclass(frozen=True)
class BatchDispatchRequest:
    """A client-side micro-batch: parallel origin/file (and optional time)
    arrays, committed through the kernels as one window.  ``key`` optionally
    makes the whole batch idempotent (deduplicated as one unit)."""

    origins: tuple[int, ...]
    files: tuple[int, ...]
    times: tuple[float, ...] | None = None
    key: str | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "origins", tuple(self.origins))
        object.__setattr__(self, "files", tuple(self.files))
        object.__setattr__(self, "key", _validate_key(self.key))
        if self.times is not None:
            object.__setattr__(self, "times", tuple(float(t) for t in self.times))
        if len(self.origins) != len(self.files):
            raise ProtocolError(
                f"origins and files must have equal length, got "
                f"{len(self.origins)} vs {len(self.files)}"
            )
        if self.times is not None and len(self.times) != len(self.origins):
            raise ProtocolError(
                f"times must match the batch length {len(self.origins)}, got "
                f"{len(self.times)}"
            )
        if len(self.origins) == 0:
            raise ProtocolError("batch must contain at least one request")

    def __len__(self) -> int:
        return len(self.origins)

    def to_payload(self) -> dict[str, Any]:
        payload: dict[str, Any] = {
            "origins": list(self.origins),
            "files": list(self.files),
        }
        if self.times is not None:
            payload["times"] = list(self.times)
        if self.key is not None:
            payload["key"] = self.key
        return payload

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any]) -> "BatchDispatchRequest":
        times: tuple[float, ...] | None = None
        if payload.get("times") is not None:
            raw = payload["times"]
            if not isinstance(raw, (list, tuple)):
                raise ProtocolError(f"field 'times' must be an array, got {raw!r}")
            times = tuple(_finite_time(item, "times") for item in raw)
        return cls(
            origins=_int_sequence(payload, "origins"),
            files=_int_sequence(payload, "files"),
            times=times,
            key=_validate_key(payload.get("key")),
        )


@dataclass(frozen=True)
class BatchDispatchResponse:
    """Decisions for a batch, parallel to the request arrays.

    ``seq_start`` is the ``seq`` of the batch's first request; the batch
    occupies the contiguous range ``[seq_start, seq_start + len)`` of the
    server's commit order.
    """

    servers: tuple[int, ...]
    distances: tuple[int, ...]
    fallbacks: tuple[bool, ...]
    seq_start: int
    times: tuple[float, ...] | None = None

    def __len__(self) -> int:
        return len(self.servers)

    def to_payload(self) -> dict[str, Any]:
        payload: dict[str, Any] = {
            "servers": list(self.servers),
            "distances": list(self.distances),
            "fallbacks": list(self.fallbacks),
            "seq_start": self.seq_start,
        }
        if self.times is not None:
            payload["times"] = list(self.times)
        return payload

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any]) -> "BatchDispatchResponse":
        fallbacks_raw = payload.get("fallbacks")
        if not isinstance(fallbacks_raw, (list, tuple)) or not all(
            isinstance(item, bool) for item in fallbacks_raw
        ):
            raise ProtocolError("field 'fallbacks' must be an array of booleans")
        times: tuple[float, ...] | None = None
        if payload.get("times") is not None:
            times = tuple(float(t) for t in payload["times"])
        return cls(
            servers=_int_sequence(payload, "servers"),
            distances=_int_sequence(payload, "distances"),
            fallbacks=tuple(fallbacks_raw),
            seq_start=_require_int(payload, "seq_start"),
            times=times,
        )


# ------------------------------------------------------------------ snapshot
@dataclass(frozen=True)
class SnapshotResponse:
    """One published state snapshot plus its provenance.

    ``version`` increases monotonically with every refresh; ``age_seconds``
    is how long ago the snapshot was published — together they make the
    endpoint's staleness explicit instead of pretending to be live.
    ``state`` is the session's own snapshot summary (load vector summary for
    static sessions; queue statistics and ``served_until`` for queueing
    sessions).
    """

    version: int
    age_seconds: float
    engine: str
    kind: str
    state: dict[str, Any]

    def to_payload(self) -> dict[str, Any]:
        return {
            "version": self.version,
            "age_seconds": self.age_seconds,
            "engine": self.engine,
            "kind": self.kind,
            "state": dict(self.state),
        }

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any]) -> "SnapshotResponse":
        version = _require_int(payload, "version")
        age = payload.get("age_seconds")
        if isinstance(age, bool) or not isinstance(age, (int, float)) or age < 0:
            raise ProtocolError(f"field 'age_seconds' must be non-negative, got {age!r}")
        engine = payload.get("engine")
        kind = payload.get("kind")
        state = payload.get("state")
        if not isinstance(engine, str) or not isinstance(kind, str):
            raise ProtocolError("fields 'engine' and 'kind' must be strings")
        if not isinstance(state, dict):
            raise ProtocolError("field 'state' must be an object")
        return cls(
            version=version,
            age_seconds=float(age),
            engine=engine,
            kind=kind,
            state=state,
        )


@dataclass(frozen=True)
class ErrorResponse:
    """Error document returned with every non-2xx status."""

    error: str
    detail: str = ""

    def to_payload(self) -> dict[str, Any]:
        return {"error": self.error, "detail": self.detail}

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any]) -> "ErrorResponse":
        error = payload.get("error")
        if not isinstance(error, str):
            raise ProtocolError(f"field 'error' must be a string, got {error!r}")
        detail = payload.get("detail", "")
        if not isinstance(detail, str):
            raise ProtocolError(f"field 'detail' must be a string, got {detail!r}")
        return cls(error=error, detail=detail)


def decode_sequence_of_requests(
    items: Sequence[Mapping[str, Any]],
) -> tuple[DispatchRequest, ...]:
    """Parse a list of dispatch-request payloads (used by trace tooling)."""
    return tuple(DispatchRequest.from_payload(item) for item in items)
