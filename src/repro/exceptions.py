"""Exception hierarchy used across the :mod:`repro` package.

All library-specific errors derive from :class:`ReproError` so callers can
catch everything raised by the simulator with a single ``except`` clause while
still being able to distinguish configuration problems from runtime failures.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "ConfigurationError",
    "TopologyError",
    "PlacementError",
    "StrategyError",
    "NoReplicaError",
    "UnknownEngineError",
    "WorkloadError",
    "ExperimentError",
    "JournalError",
]


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class ConfigurationError(ReproError, ValueError):
    """An invalid parameter combination was supplied to a constructor."""


class TopologyError(ReproError, ValueError):
    """A topology was constructed or queried with invalid arguments."""


class PlacementError(ReproError, ValueError):
    """Cache placement failed or was configured inconsistently."""


class StrategyError(ReproError, RuntimeError):
    """An assignment strategy could not complete a request assignment."""


class NoReplicaError(StrategyError):
    """No server in the network has cached the requested file.

    This can only happen when a placement leaves some file entirely uncached
    (possible for very small ``n * M`` relative to ``K``). Strategies either
    raise this error or follow their configured fallback policy.
    """

    def __init__(self, file_id: int, message: str | None = None) -> None:
        self.file_id = int(file_id)
        super().__init__(message or f"file {file_id} is not cached on any server")


class UnknownEngineError(StrategyError):
    """An execution-engine spec did not resolve to a usable backend.

    Raised by :func:`repro.backends.registry.resolve_engine` both for names
    that were never registered and for registered backends whose requirements
    (e.g. ``numba``) are not importable.  The message always lists what *is*
    registered for the family, so every surface (strategies, sessions, the
    CLI) reports engine problems uniformly.  Subclasses
    :class:`StrategyError` so pre-registry callers catching that still work.
    """


class WorkloadError(ReproError, ValueError):
    """Request workload generation or parsing failed."""


class JournalError(ReproError, RuntimeError):
    """A dispatch journal is corrupt, inconsistent, or failed verification.

    Raised by :mod:`repro.service.journal` for mid-file corruption, commit
    sequence gaps, and recovery fingerprint mismatches.  A torn final line
    (the crash case journals exist for) is *not* an error — it is truncated
    away on read.
    """


class ExperimentError(ReproError, RuntimeError):
    """An experiment specification could not be run."""
