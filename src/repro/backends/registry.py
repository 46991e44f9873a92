"""The engine registry: one place that owns backend names and capabilities.

Before this layer existed, engine selection was a raw engine-name string
copy-pasted through every surface of the package, each with its own tuple of
valid names and its own error message — which made adding a backend (numba
today, Cython later) a 17-file change.  The registry centralises all of it:

* :func:`register_engine` declares a backend once: its name, its **family**
  (``"assignment"`` for the static d-choice stack, ``"queueing"`` for the
  dynamic supermarket stack), the table of commit callables it provides, the
  modules it ``requires`` (import-gated availability), and its ``priority``
  in the ``"auto"`` resolution order.
* :func:`resolve_engine` turns a user-facing spec — ``"auto"`` (fastest
  available) or an explicit name — into the registered :class:`Engine`,
  exactly once at each surface boundary (``CacheNetworkSimulation.run``,
  ``open_session``, ``run_trials``, the CLI's shared ``--engine`` flag, …).
  Unknown or unavailable specs raise
  :class:`~repro.exceptions.UnknownEngineError` with a uniform message
  listing what is registered.  Engines take no options: a spec is a name.

Built-in engines (``reference``, ``batch``, and ``numba`` when importable)
are registered lazily on first resolution by :mod:`repro.backends.builtin`;
this module itself imports nothing heavy, so any layer may depend on it
without creating import cycles.

Every registered engine of a family is held to the same **bit-identity
obligation**: for any seed it must produce exactly the results of the
family's ``reference`` engine (the differential suites parametrise their
engine list from this registry, so registering a backend automatically puts
it under test).
"""

from __future__ import annotations

import importlib.util
from dataclasses import dataclass, field
from typing import Callable, Mapping

from repro.exceptions import UnknownEngineError

__all__ = [
    "FAMILIES",
    "Engine",
    "available_engines",
    "engines_payload",
    "register_engine",
    "registered_engines",
    "resolve_engine",
    "resolve_engine_name",
]

#: Engine families: the static assignment stack and the dynamic queueing stack.
FAMILIES = ("assignment", "queueing")

#: The spec resolving to the fastest available engine of a family.
AUTO = "auto"


@dataclass
class Engine:
    """One registered execution backend of one family.

    ``commit_fns`` maps operation names (e.g. ``"two_choice"`` or
    ``"window"``) to the callables implementing them; it is materialised
    lazily on first access so that registering a backend never imports its
    implementation modules (the numba backend only imports — and compiles —
    when actually selected).
    """

    name: str
    family: str
    priority: int
    requires: tuple[str, ...]
    description: str
    loader: Callable[[], Mapping[str, Callable]]
    _fns: Mapping[str, Callable] | None = field(default=None, repr=False)

    @property
    def available(self) -> bool:
        """Whether every required module is importable."""
        return self.unavailable_reason is None

    @property
    def unavailable_reason(self) -> str | None:
        """Why this engine cannot run here (``None`` when it can)."""
        for module in self.requires:
            if importlib.util.find_spec(module) is None:
                return f"{module}: not importable"
        return None

    @property
    def commit_fns(self) -> Mapping[str, Callable]:
        """The operation table, loading the implementation on first use."""
        if self._fns is None:
            self._fns = dict(self.loader())
        return self._fns

    def __repr__(self) -> str:
        state = "available" if self.available else "unavailable"
        return f"Engine({self.name!r}, family={self.family!r}, {state})"


_REGISTRY: dict[str, dict[str, Engine]] = {family: {} for family in FAMILIES}
_builtins_loaded = False


def _ensure_builtins() -> None:
    """Register the built-in engines on first resolution (lazily, to keep
    this module import-cycle free: ``builtin`` pulls in the kernel modules,
    which themselves import :mod:`repro.strategies.base`)."""
    global _builtins_loaded
    if not _builtins_loaded:
        _builtins_loaded = True
        import repro.backends.builtin  # noqa: F401  (registers on import)


def _family_table(family: str) -> dict[str, Engine]:
    if family not in _REGISTRY:
        raise UnknownEngineError(
            f"unknown engine family {family!r}; expected one of {FAMILIES}"
        )
    return _REGISTRY[family]


def register_engine(
    name: str,
    *,
    family: str = "assignment",
    commit_fns: Mapping[str, Callable] | Callable[[], Mapping[str, Callable]],
    requires: tuple[str, ...] | str = (),
    priority: int = 0,
    description: str = "",
) -> Engine:
    """Register an execution backend under ``name`` for ``family``.

    Parameters
    ----------
    name:
        Engine name; re-registering a name replaces the previous entry.
    family:
        ``"assignment"`` (static d-choice stack) or ``"queueing"``
        (supermarket stack).
    commit_fns:
        The operation table, or a zero-argument callable returning it
        (preferred: keeps registration free of implementation imports).
        Every assignment operation takes the kernel entry-point signature,
        including the window keywords ``streams`` / ``loads`` / ``store``
        that sessions serve through.
    requires:
        Module names that must be importable for the engine to be available;
        unavailable engines stay listed (``repro engines`` shows why) but are
        skipped by ``"auto"`` and rejected when requested explicitly.
    priority:
        ``"auto"`` resolution order: the highest-priority available engine
        wins.
    description:
        One line for ``repro engines`` output.
    """
    if not name or not isinstance(name, str):
        raise UnknownEngineError(f"engine name must be a non-empty string, got {name!r}")
    if name == AUTO:
        raise UnknownEngineError(f"engine name {AUTO!r} is reserved for resolution")
    table = _family_table(family)
    loader = commit_fns if callable(commit_fns) else (lambda fns=commit_fns: fns)
    engine = Engine(
        name=name,
        family=family,
        priority=int(priority),
        requires=(requires,) if isinstance(requires, str) else tuple(requires),
        description=description,
        loader=loader,
    )
    table[name] = engine
    return engine


def registered_engines(family: str) -> tuple[Engine, ...]:
    """Every registered engine of ``family`` (available or not), fastest first."""
    _ensure_builtins()
    table = _family_table(family)
    return tuple(sorted(table.values(), key=lambda e: (-e.priority, e.name)))


def available_engines(family: str) -> tuple[str, ...]:
    """Names of the engines that can actually run here, fastest first."""
    return tuple(e.name for e in registered_engines(family) if e.available)


def engines_payload(family: str | None = None) -> list[dict]:
    """Machine-readable engine availability (JSON-safe, fastest first).

    One entry per registered engine: family, name, availability with the
    skip reason for engines that cannot run here, ``"auto"`` resolution
    order and priority.  Consumed by
    ``repro engines --json``, the dispatch service's ``/healthz`` payload
    and any script that needs to pick an engine without parsing tables.
    """
    families = FAMILIES if family is None else (family,)
    payload = []
    for fam in families:
        for order, engine in enumerate(registered_engines(fam), start=1):
            payload.append(
                {
                    "family": fam,
                    "name": engine.name,
                    "available": engine.available,
                    "skip_reason": engine.unavailable_reason,
                    "priority": engine.priority,
                    "auto_order": order,
                    "description": engine.description,
                }
            )
    return payload


def _registered_summary(family: str) -> str:
    parts = []
    for engine in registered_engines(family):
        if engine.available:
            parts.append(engine.name)
        else:
            parts.append(f"{engine.name} (unavailable: {engine.unavailable_reason})")
    return ", ".join(parts) if parts else "<none>"


def resolve_engine(spec: str | None, family: str) -> Engine:
    """Resolve an engine spec to its registered :class:`Engine`.

    ``spec`` may be ``"auto"`` / ``None`` (the fastest available engine of
    the family) or an explicit engine name.  Raises
    :class:`~repro.exceptions.UnknownEngineError` — always listing what is
    registered — for unknown names, non-string specs and unavailable
    backends.
    """
    _ensure_builtins()
    table = _family_table(family)
    if spec is None or spec == AUTO:
        for engine in registered_engines(family):
            if engine.available:
                return engine
        raise UnknownEngineError(
            f"no {family} engine is available; registered: {_registered_summary(family)}"
        )
    if not isinstance(spec, str):
        raise UnknownEngineError(
            f"engine must be a name or 'auto', got {spec!r}; "
            f"registered {family} engines: {_registered_summary(family)}"
        )
    engine = table.get(spec)
    if engine is None:
        raise UnknownEngineError(
            f"unknown {family} engine {spec!r}; registered: {_registered_summary(family)}"
        )
    if not engine.available:
        raise UnknownEngineError(
            f"{family} engine {spec!r} is not available here "
            f"({engine.unavailable_reason}); registered: {_registered_summary(family)}"
        )
    return engine


def resolve_engine_name(spec: str | None, family: str) -> str:
    """Shortcut: the resolved engine's concrete name (never ``"auto"``)."""
    return resolve_engine(spec, family).name
