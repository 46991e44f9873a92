"""The execution engines of the static and queueing stacks.

* :mod:`repro.backends.registry` — the engine table: the three engines
  (``numba``, ``batch``, ``reference``) in ``"auto"`` order, availability,
  ``"auto"`` resolution, the uniform
  :class:`~repro.exceptions.UnknownEngineError`, and each engine's operation
  table per family (:func:`engine_operations`).
* :mod:`repro.backends.numba_backend` — the ``@njit``-compiled commit loops
  of both stacks, available when ``numba`` is importable.

Every engine is held to the bit-identity obligation: for any seed it must
reproduce the ``reference`` engine exactly (the differential suites
parametrise their engine lists from :func:`available_engines`).
"""

from repro.backends.registry import (
    ENGINES,
    FAMILIES,
    available_engines,
    engine_operations,
    resolve_engine_name,
)

__all__ = [
    "ENGINES",
    "FAMILIES",
    "available_engines",
    "engine_operations",
    "resolve_engine_name",
]
