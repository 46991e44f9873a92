"""Outside-in span tracing for the benchmark's traced runs (``--trace 1``).

Nothing here touches ``src/``: :func:`install` replaces the module and class
attributes that sit on each layer boundary with timing wrappers.  It must run
before the first ``resolve_engine`` call of the process, because
``repro.backends.builtin`` binds the ``batch`` commit functions into
``functools.partial`` objects when an engine table first loads; a wrapper
installed afterwards never sees those calls.

Spans are kept in memory and written out by the caller when the run ends.
Each span records its name, start, end, parent span, the id of the unit of
work it belongs to (a sweep pass, trial, point, flush or replay), and the
phase: ``cold`` (work that starts from an empty ``ArtifactCache`` /
``GroupStore``) or ``warm`` (work that reuses one).  Start and end come from
``time.perf_counter``, which is ``CLOCK_MONOTONIC`` on Linux and therefore
comparable between the server and client processes.
"""

from __future__ import annotations

import functools
import importlib
from collections import Counter
from time import perf_counter

from perfbench.common import percentile

# Fields of one span tuple.
NAME, START, END, PARENT, UNIT, PHASE = range(6)

#: Span name -> reported share metric, for the layers reported per phase.
PHASE_SHARES = {
    "placement": "placement.share",
    "topology": "topology.share",
    "group_index": "group_index.share",
    "group_index.store_get": "group_index.store_get_share",
    "group_index.store_put": "group_index.store_put_share",
    "sampling": "sampling.share",
    "batch_commit": "batch_commit.share",
    "queueing": "queueing.share",
    "workload": "workload.share",
}

#: Span names that are layers of their own.  Any other span (pass, trial,
#: point, flush) only delimits a unit of work; its self time is session glue
#: and is reported in ``session.self_share`` with the ``session`` spans.
LAYERS = frozenset(PHASE_SHARES) | {
    "session",
    "journal.append",
    "journal.checkpoint",
    "journal.digest",
    "journal.replay",
    "journal.replay_read",
}


class Tracer:
    """In-memory span recorder with a parent stack and counters."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.spans: list[tuple] = []
        self.counts: Counter[str] = Counter()
        self.phase = "cold"
        self._unit = 0
        self._stack: list[int] = []

    def open(self, name: str, new_unit: bool = False) -> int:
        if new_unit:
            self._unit += 1
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, perf_counter(), 0.0, parent, self._unit, self.phase))
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def close(self, index: int) -> None:
        self._stack.pop()
        span = self.spans[index]
        self.spans[index] = (*span[:END], perf_counter(), *span[END + 1 :])

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a unit-of-work span (a no-op when disabled)."""
        if not self.enabled:
            return fn(*args, **kwargs)
        index = self.open(name, new_unit=True)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(index)


def _wrap(owner, attr: str, name: str, tracer: Tracer, after=None, new_unit=False) -> None:
    original = getattr(owner, attr)

    @functools.wraps(original)
    def traced(*args, **kwargs):
        if not tracer.enabled:
            return original(*args, **kwargs)
        index = tracer.open(name, new_unit)
        try:
            result = original(*args, **kwargs)
        finally:
            tracer.close(index)
        if after is not None:
            after(tracer, args, result)
        return result

    setattr(owner, attr, traced)


def _count_groups(tracer: Tracer, args, index) -> None:
    tracer.counts[f"{tracer.phase}.groups"] += int(index.origins.size)
    tracer.counts[f"{tracer.phase}.fallback_rows"] += int(index.fallback.sum())


def _count_store_get(tracer: Tracer, args, result) -> None:
    tracer.counts[f"{tracer.phase}.store_hits"] += int(result[0].sum())


def _count_store_put(tracer: Tracer, args, result) -> None:
    tracer.counts[f"{tracer.phase}.store_puts"] += len(args[1])


def _count_placement(tracer: Tracer, args, result) -> None:
    tracer.counts[f"{tracer.phase}.placement_calls"] += 1


def _count_commit(tracer: Tracer, args, result) -> None:
    from repro.kernels import batch_commit

    stats = batch_commit.get_last_stats()
    tracer.counts["rounds"] += stats.rounds
    tracer.counts["vectorised"] += stats.committed_vectorised
    tracer.counts["scalar"] += stats.committed_scalar


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the benchmark reports (see module docs)."""
    module = importlib.import_module
    engine, queueing = module("repro.kernels.engine"), module("repro.kernels.queueing")
    batch = module("repro.kernels.batch_commit")
    store = module("repro.kernels.group_index").GroupStore
    journal = module("repro.service.journal")
    session = module("repro.session.core").CacheNetworkSession
    topology = module("repro.topology").Topology

    _wrap(module("repro.session.artifacts").ArtifactCache, "placement", "placement", tracer, _count_placement)
    for cls in (topology, *_subclasses(topology)):
        if "pairwise_distances" in vars(cls):
            _wrap(cls, "pairwise_distances", "topology", tracer)
    # build_group_index and draw_sample_positions as the engines bind them.
    for kernels in (engine, queueing):
        _wrap(kernels, "build_group_index", "group_index", tracer, _count_groups)
        _wrap(kernels, "draw_sample_positions", "sampling", tracer)
    _wrap(store, "get_many", "group_index.store_get", tracer, _count_store_get)
    _wrap(store, "put_many", "group_index.store_put", tracer, _count_store_put)
    for name in ("commit_least_loaded_of_sample", "commit_least_loaded_scan", "commit_threshold_hybrid"):
        _wrap(batch, name, "batch_commit", tracer, _count_commit)
    _wrap(batch, "commit_window", "queueing", tracer)
    _wrap(module("repro.workload.arrivals").PoissonArrivalStream, "take_until", "workload", tracer)
    _wrap(module("repro.simulation.engine").CacheNetworkSimulation, "run", "trial", tracer, new_unit=True)
    _wrap(session, "dispatch_batch", "flush", tracer, new_unit=True)
    _wrap(session, "serve", "session", tracer)
    _wrap(module("repro.session.queueing").QueueingSession, "serve", "session", tracer)
    _wrap(session, "state_digest", "journal.digest", tracer)
    _wrap(journal.DispatchJournal, "append_batch", "journal.append", tracer)
    _wrap(journal.DispatchJournal, "append_checkpoint", "journal.checkpoint", tracer)
    _wrap(journal, "read_journal", "journal.replay_read", tracer)


# ------------------------------------------------------------------ arithmetic
def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    Spans nest strictly within one process, so the children's durations are
    exactly the part of the parent's interval they cover.
    """
    own = [span[END] - span[START] for span in spans]
    for span in spans:
        if span[PARENT] >= 0:
            own[span[PARENT]] -= span[END] - span[START]
    return own


def self_seconds(spans, phase=None, windows=None) -> tuple[Counter, float]:
    """Self seconds per span name, and the summed duration of root spans.

    ``phase`` keeps only spans of that phase; ``windows``, a list of
    ``(start, end)`` intervals, keeps only spans lying entirely inside one.
    """
    totals: Counter[str] = Counter()
    roots = 0.0
    for span, own in zip(spans, self_times(spans)):
        if phase is not None and span[PHASE] != phase:
            continue
        if windows is not None and not any(a <= span[START] and span[END] <= b for a, b in windows):
            continue
        totals[span[NAME]] += own
        if span[PARENT] < 0:
            roots += span[END] - span[START]
    return totals, roots


def share(seconds: float, wall: float) -> float:
    return seconds / wall if wall > 0 else 0.0


def phase_metrics(phase: str, seconds: Counter, wall: float, counts: Counter) -> dict[str, float]:
    """The ``cold.*`` or ``warm.*`` per-layer metrics of one phase."""
    out = {f"{phase}.{metric}": share(seconds[name], wall) for name, metric in PHASE_SHARES.items()}
    glue = seconds["session"] + sum(v for name, v in seconds.items() if name not in LAYERS)
    out[f"{phase}.session.self_share"] = share(glue, wall)
    hits, puts = counts[f"{phase}.store_hits"], counts[f"{phase}.store_puts"]
    out[f"{phase}.group_index.store_hit_ratio"] = share(hits, hits + puts)
    out[f"{phase}.group_index.groups"] = counts[f"{phase}.groups"]
    out[f"{phase}.group_index.fallback_rows"] = counts[f"{phase}.fallback_rows"]
    out[f"{phase}.placement.calls"] = counts[f"{phase}.placement_calls"]
    return out


def commit_metrics(spans, counts: Counter) -> dict[str, float]:
    """Run-wide ``batch_commit.*`` counters and the session-commit tail."""
    durations = [span[END] - span[START] for span in spans if span[NAME] == "session"]
    scalar, vectorised = counts["scalar"], counts["vectorised"]
    return {
        "batch_commit.rounds": counts["rounds"],
        "batch_commit.scalar_share": share(scalar, scalar + vectorised),
        "session.commit_p99_ms": percentile(durations, 99) * 1e3 if durations else 0.0,
        "trace.spans": len(spans),
    }
