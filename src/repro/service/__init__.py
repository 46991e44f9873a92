"""Dispatch service: d-choice placement decisions from live sessions over HTTP.

The serving layer of the reproduction — a stdlib-asyncio HTTP server
(:class:`~repro.service.server.DispatchServer`) that owns one live session
and answers placement questions online, the matching typed client
(:class:`~repro.service.client.DispatchClient`) and an open-loop load
generator (:func:`~repro.service.loadgen.run_loadgen`).  Exposed on the CLI
as ``repro serve`` and ``repro loadgen``.
"""

from repro.service.chaos import ChaosClient, ServerChaos
from repro.service.client import DispatchClient, DispatchServiceError, DispatchTimeout
from repro.service.journal import (
    DispatchJournal,
    RecoveredSession,
    build_session_from_spec,
    read_journal,
    recover_session,
)
from repro.service.loadgen import LoadGenConfig, LoadGenReport, run_loadgen
from repro.service.metrics import LatencyHistogram, ServiceMetrics, StreamingStats
from repro.service.protocol import (
    BatchDispatchRequest,
    BatchDispatchResponse,
    DispatchRequest,
    DispatchResponse,
    ErrorResponse,
    ProtocolError,
    SnapshotResponse,
)
from repro.service.server import DispatchServer
from repro.service.state import (
    IdempotencyIndex,
    MicroBatchQueue,
    SnapshotPublisher,
    StateSnapshot,
)

__all__ = [
    "BatchDispatchRequest",
    "BatchDispatchResponse",
    "ChaosClient",
    "DispatchClient",
    "DispatchJournal",
    "DispatchRequest",
    "DispatchResponse",
    "DispatchServer",
    "DispatchServiceError",
    "DispatchTimeout",
    "ErrorResponse",
    "IdempotencyIndex",
    "LatencyHistogram",
    "LoadGenConfig",
    "LoadGenReport",
    "MicroBatchQueue",
    "ProtocolError",
    "RecoveredSession",
    "ServerChaos",
    "ServiceMetrics",
    "SnapshotPublisher",
    "SnapshotResponse",
    "StateSnapshot",
    "StreamingStats",
    "build_session_from_spec",
    "read_journal",
    "recover_session",
    "run_loadgen",
]
