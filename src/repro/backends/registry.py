"""The engine table: three fixed execution engines, named once.

Both stacks run on the same three engines, and :data:`ENGINES` lists them
fastest first, which is also the ``"auto"`` resolution order:

* ``numba`` — the batched precompute with ``@njit``-compiled commit loops
  (:mod:`repro.backends.numba_backend`); listed always, available only where
  ``numba`` is importable (probed once, at import, without importing it);
* ``batch`` — the batched precompute; static commits go through the
  speculate-and-repair vectorised commit of :mod:`repro.kernels.batch_commit`,
  the supermarket model through the pure-Python event loop;
* ``reference`` — the scalar per-request / per-arrival loops of the paper's
  process definitions, the authority when engines disagree.

Each engine serves two **families**: ``"assignment"`` (the static d-choice
stack) and ``"queueing"`` (the dynamic supermarket stack).

:func:`resolve_engine_name` turns a user-facing spec — ``"auto"`` (the
fastest available engine) or an explicit name — into an engine name, once at
each surface boundary (``CacheNetworkSimulation.run``, ``open_session``,
``run_trials``, the CLI's shared ``--engine`` flag, …).  Unknown or
unavailable specs raise :class:`~repro.exceptions.UnknownEngineError` with a
uniform message listing the engines.  Engines take no options: a spec is a
name.  :func:`engine_operations` returns one engine's operation table for one
family, built on first use and cached.

This module imports no kernel module at import time (``repro.strategies.base``
imports it, and the kernels import that), and the ``batch`` table looks up
:mod:`repro.kernels.batch_commit`'s commit functions when it is built, so a
wrapper installed on those names before the first table load sees every call.

Every engine of a family is held to the same **bit-identity obligation**: for
any seed it must produce exactly the results of the family's ``reference``
engine (the differential suites parametrise their engine list from
:func:`available_engines`).
"""

from __future__ import annotations

import importlib.util
from functools import partial
from typing import Callable, Mapping

from repro.exceptions import UnknownEngineError

__all__ = [
    "ENGINES",
    "FAMILIES",
    "available_engines",
    "engine_operations",
    "engines_payload",
    "resolve_engine_name",
]

#: Engine families: the static assignment stack and the dynamic queueing stack.
FAMILIES = ("assignment", "queueing")

#: Every engine with its one-line description, fastest first (the ``"auto"``
#: order).
ENGINES = {
    "numba": "@njit-compiled commit loops over the batched precompute",
    "batch": "batched precompute + vectorised commit / pure-Python event loop",
    "reference": "scalar per-request / per-arrival loop (the authority)",
}

#: The spec resolving to the fastest available engine of a family.
AUTO = "auto"

# Probed once: ``import numba`` here would land in every process's start-up.
_NUMBA_FOUND = importlib.util.find_spec("numba") is not None

#: Operation tables by ``(engine, family)``, built on first use.
_TABLES: dict[tuple[str, str], Mapping[str, Callable]] = {}


def _check_family(family: str) -> None:
    if family not in FAMILIES:
        raise UnknownEngineError(
            f"unknown engine family {family!r}; expected one of {FAMILIES}"
        )


def _skip_reason(name: str) -> str | None:
    """Why engine ``name`` cannot run here (``None`` when it can)."""
    if name == "numba" and not _NUMBA_FOUND:
        return "numba: not importable"
    return None


def available_engines(family: str) -> tuple[str, ...]:
    """Names of the engines that can actually run here, fastest first."""
    _check_family(family)
    return tuple(name for name in ENGINES if _skip_reason(name) is None)


def engines_payload(family: str | None = None) -> list[dict]:
    """Machine-readable engine availability (JSON-safe, fastest first).

    One entry per engine and family: family, name, availability with the
    skip reason for engines that cannot run here, ``"auto"`` resolution order
    and description.  Consumed by ``repro engines`` (both modes), the
    dispatch service's ``/healthz`` payload and any script that needs to pick
    an engine without parsing tables.
    """
    if family is not None:
        _check_family(family)
    payload = []
    for fam in FAMILIES if family is None else (family,):
        for order, (name, description) in enumerate(ENGINES.items(), start=1):
            reason = _skip_reason(name)
            payload.append(
                {
                    "family": fam,
                    "name": name,
                    "available": reason is None,
                    "skip_reason": reason,
                    "auto_order": order,
                    "description": description,
                }
            )
    return payload


def _summary() -> str:
    parts = []
    for name in ENGINES:
        reason = _skip_reason(name)
        parts.append(name if reason is None else f"{name} (unavailable: {reason})")
    return ", ".join(parts)


def resolve_engine_name(spec: str | None, family: str) -> str:
    """Resolve an engine spec to a concrete engine name (never ``"auto"``).

    ``spec`` may be ``"auto"`` / ``None`` (the fastest available engine of
    the family) or an explicit engine name.  Raises
    :class:`~repro.exceptions.UnknownEngineError` — always listing the
    engines — for unknown names, non-string specs and unavailable engines.
    """
    _check_family(family)
    if spec is None or spec == AUTO:
        return available_engines(family)[0]
    if not isinstance(spec, str):
        raise UnknownEngineError(
            f"engine must be a name or 'auto', got {spec!r}; "
            f"registered {family} engines: {_summary()}"
        )
    if spec not in ENGINES:
        raise UnknownEngineError(
            f"unknown {family} engine {spec!r}; registered: {_summary()}"
        )
    reason = _skip_reason(spec)
    if reason is not None:
        raise UnknownEngineError(
            f"{family} engine {spec!r} is not available here "
            f"({reason}); registered: {_summary()}"
        )
    return spec


def engine_operations(name: str, family: str) -> Mapping[str, Callable]:
    """The operation table of engine ``name`` for ``family``.

    The assignment table maps ``two_choice`` / ``least_loaded`` /
    ``threshold_hybrid`` / ``random_replica`` / ``nearest_replica`` to
    callables with the kernel entry-point signatures, window keywords
    (``streams`` / ``loads``) included; the queueing table maps ``window``
    to a ``queueing_kernel_window``-shaped callable, whose ``store`` keyword
    memoises candidate rows across windows.  ``name`` is
    checked as :func:`resolve_engine_name` checks it, and the table is built
    on first use and cached.
    """
    key = (name, family)
    if key not in _TABLES:
        _TABLES[key] = _load_operations(resolve_engine_name(name, family), family)
    return _TABLES[key]


def _load_operations(name: str, family: str) -> dict[str, Callable]:
    """Build engine ``name``'s table for ``family`` (availability unchecked)."""
    from repro.kernels import engine as kernel
    from repro.kernels import queueing
    from repro.kernels import reference as ref

    if name == "reference":
        if family == "queueing":
            return {"window": queueing.queueing_reference_window}
        return {
            "two_choice": ref.two_choice_reference,
            "least_loaded": ref.least_loaded_reference,
            "threshold_hybrid": ref.threshold_hybrid_reference,
            "random_replica": ref.random_replica_reference,
            "nearest_replica": ref.nearest_replica_reference,
        }
    if name == "batch":
        from repro.kernels import batch_commit as commits
    elif name == "numba":
        from repro.backends import numba_backend as commits
    else:
        raise UnknownEngineError(f"{family} engine {name!r} has no operation table")
    # Both engines share the kernel precompute and swap only the sequential
    # loops; the replica strategies have no sequential commit phase.
    if family == "queueing":
        window = partial(queueing.queueing_kernel_window, commit=commits.commit_window)
        return {"window": window}
    return {
        "two_choice": partial(
            kernel.two_choice_kernel, commit=commits.commit_least_loaded_of_sample
        ),
        "least_loaded": partial(
            kernel.least_loaded_kernel, commit=commits.commit_least_loaded_scan
        ),
        "threshold_hybrid": partial(
            kernel.threshold_hybrid_kernel, commit=commits.commit_threshold_hybrid
        ),
        "random_replica": kernel.random_replica_kernel,
        "nearest_replica": kernel.nearest_replica_kernel,
    }
