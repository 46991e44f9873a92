"""Pluggable execution backends for the static and queueing stacks.

This package is the seam every compute backend plugs into:

* :mod:`repro.backends.registry` — the engine registry: names,
  capabilities, availability, ``"auto"`` resolution and the uniform
  :class:`~repro.exceptions.UnknownEngineError`.
* :mod:`repro.backends.builtin` — registration of the built-in engines
  (``reference``, ``batch``, ``numba``), loaded lazily on first resolution.
* :mod:`repro.backends.numba_backend` — ``@njit``-compiled commit loops for
  both stacks, available when ``import numba`` succeeds.

Registering a third-party backend is one call::

    from repro.backends import register_engine

    register_engine(
        "mybackend",
        family="assignment",
        commit_fns=lambda: {...},   # the five assignment operations
        requires=("mymodule",),
        priority=15,
    )

Every registered engine is held to the bit-identity obligation: for any seed
it must reproduce the ``reference`` engine exactly (the differential suites
parametrise their engine lists from this registry).
"""

from repro.backends.registry import (
    FAMILIES,
    Engine,
    EngineSpec,
    available_engines,
    register_engine,
    registered_engines,
    resolve_engine,
    resolve_engine_name,
)

__all__ = [
    "FAMILIES",
    "Engine",
    "EngineSpec",
    "available_engines",
    "register_engine",
    "registered_engines",
    "resolve_engine",
    "resolve_engine_name",
]
