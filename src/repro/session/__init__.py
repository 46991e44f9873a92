"""Persistent, streaming cache-network sessions.

The session API factors one simulation point into *build once* (topology,
placement) and *serve incrementally* (request windows against a persistent
load vector and persistent RNG streams):

* :func:`~repro.session.core.open_session` /
  :class:`~repro.session.core.CacheNetworkSession` — the stateful surface:
  ``serve(batch)``, ``serve_stream(windows)``, ``snapshot()``, ``reset()``.
* :class:`~repro.session.artifacts.ArtifactCache` — LRU-bounded memo of
  placements, shared across trials and sweep points, and of the queueing
  sessions' group-index rows, shared across their windows and sweep points.
* :func:`~repro.session.queueing.open_queueing_session` /
  :class:`~repro.session.queueing.QueueingSession` — the dynamic
  (supermarket-model) counterpart: serve *time* windows against persistent
  queue state, busy-until vector and RNG streams.

The one-shot simulation engine
(:class:`~repro.simulation.engine.CacheNetworkSimulation`) is a thin consumer
of this API; the RNG contract keeps a streamed run bit-identical to the
one-shot run over the concatenated windows (see :mod:`repro.session.core`).
"""

from repro.session.artifacts import ArtifactCache
from repro.session.core import (
    CacheNetworkSession,
    SessionSnapshot,
    WindowResult,
    apply_uncached_policy,
    open_session,
)
from repro.session.queueing import (
    QueueingSession,
    QueueingWindowResult,
    open_queueing_session,
)

__all__ = [
    "ArtifactCache",
    "CacheNetworkSession",
    "SessionSnapshot",
    "WindowResult",
    "apply_uncached_policy",
    "open_session",
    "QueueingSession",
    "QueueingWindowResult",
    "open_queueing_session",
]
