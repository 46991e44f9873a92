"""Batched assignment kernels: a precompute/commit split for every strategy.

The paper's experiments hinge on simulating millions of sequential requests.
Naively, each request pays one topology query, several small-array numpy
operations and one RNG draw — pure Python/numpy dispatch overhead.  This
subsystem observes that *almost everything is independent of the evolving load
vector* and splits assignment into:

**Precompute phase** (pure numpy, batch level)
    Group requests by ``(origin, file)`` (:mod:`repro.kernels.group_index`),
    compute in-ball candidate sets once per group in a CSR layout — gathered
    from the torus ball where it is smaller than the replica set, otherwise
    by one flat, chunked ``distances_between_unchecked`` scan over every
    ``(group, replica)`` pair — resolve fallbacks over the same scan, and
    draw all ``d``-choice samples up front with a vectorised shifted-uniform
    pass — the ``O(d)``-randomness equivalent of a Gumbel-top-k draw
    (:mod:`repro.kernels.sampling`).  Strategy I's rows, each group's
    nearest replicas, come from a torus ring probe and the same scan.

**Commit phase** (minimal sequential loop)
    A tight loop over pre-materialised flat int64 arrays that only reads and
    updates the load vector (:mod:`repro.kernels.commit`) — no per-iteration
    topology or RNG calls.  Load-independent strategies (Strategy I, the
    one-choice baseline) skip the loop entirely and finish with one gather.

RNG-stream contract
-------------------

Every engine (the batched ``"batch"`` and ``"numba"`` and the scalar
``"reference"``) derives the same two independent streams from the strategy
seed::

    rng_sample, rng_tie = spawn_generators(seed, 2)

* **Sampling stream** — consumed only by ``d``-choice strategies, in request
  (batch) order: a request with ``c`` candidates consumes exactly ``d``
  doubles iff ``c > d``; the ``j``-th sampled position is
  ``floor(u_j * (c - j))`` shifted past the positions already taken (a
  uniform ``d``-subset in uniform order).  Strategies without a sampling step
  (least-loaded, one-choice, nearest) never touch this stream.
* **Tie stream** — exactly one double ``u`` per request, in request order,
  consumed whether or not a tie occurs; whenever ``t`` options tie, the winner
  is option ``floor(u * t)`` in candidate order.

Because ``Generator.random(k)`` consumes exactly ``k`` doubles, the batched
entry points can draw each stream in one call while the reference engine
draws scalar-wise, and both observe identical values — which is why the
engines produce **bit-identical** :class:`~repro.strategies.base.
AssignmentResult` arrays for any seed (enforced by
``tests/test_kernels_differential.py``).

When the engines disagree, the reference engine
(:mod:`repro.kernels.reference`) is authoritative: it is the direct scalar
transcription of the paper's process definitions.

Because both streams are consumed strictly per request, the contract extends
to *windowed* serving for free: carrying the same ``(rng_sample, rng_tie)``
pair and a persistent int64 load vector across successive request windows
(the ``streams`` / ``loads`` keyword arguments that every engine's entry
points take, the scalar reference included, and that
:meth:`~repro.strategies.base.AssignmentStrategy.assign` forwards for
:mod:`repro.session`) reproduces the one-shot run over the concatenated
windows bit for bit, on every engine.

The dynamic (supermarket-model) simulation has its own three-stream variant
of this contract — sample / tie / service, consumed strictly per arrival —
implemented by the event-batched and scalar engines in
:mod:`repro.kernels.queueing` and enforced by
``tests/test_kernels_queueing_differential.py``.  Its windows can read their
candidate rows from a :class:`~repro.kernels.group_index.GroupStore`, a memo
the static entry points do not take: on static streams, which repeat few of
their groups, the lookup measured slower than the rebuild.

Engine *selection* lives one layer up, in :mod:`repro.backends`: its fixed
engine table maps the three engine names (``reference`` / ``batch`` /
``numba``) to the callables in this package, and the batched entry points
expose ``commit=`` hooks so the ``batch`` and ``numba`` engines reuse the
whole precompute while swapping only the sequential loops.  The default
``commit=`` is a pure-Python loop — :mod:`repro.kernels.commit` for the
static strategies (``batch``'s fallback, whose loop functions the numba
engine compiles as they are) and :func:`repro.kernels.queueing.commit_window`
for the supermarket model (``batch``'s event loop, which the numba engine
transcribes onto an array heap).
"""

from repro.kernels.commit import (
    commit_least_loaded_of_sample,
    commit_least_loaded_scan,
    commit_threshold_hybrid,
)
from repro.kernels.engine import (
    least_loaded_kernel,
    nearest_replica_kernel,
    random_replica_kernel,
    threshold_hybrid_kernel,
    two_choice_kernel,
)
from repro.kernels.group_index import (
    GroupIndex,
    GroupStore,
    build_group_index,
    csr_scatter_destinations,
    group_requests,
    segmented_arange,
)
from repro.kernels.reference import (
    least_loaded_reference,
    nearest_replica_reference,
    random_replica_reference,
    threshold_hybrid_reference,
    two_choice_reference,
)
from repro.kernels.queueing import (
    QueueingState,
    commit_window,
    drain_departures,
    finalize_result_fields,
    queueing_kernel_window,
    queueing_reference_window,
)
from repro.kernels.sampling import (
    draw_sample_positions,
    shifted_uniform_sample,
    weighted_pick_positions,
    weighted_sample_positions,
)

__all__ = [
    "GroupIndex",
    "GroupStore",
    "build_group_index",
    "group_requests",
    "csr_scatter_destinations",
    "segmented_arange",
    "draw_sample_positions",
    "shifted_uniform_sample",
    "weighted_pick_positions",
    "weighted_sample_positions",
    "QueueingState",
    "commit_window",
    "drain_departures",
    "finalize_result_fields",
    "queueing_kernel_window",
    "queueing_reference_window",
    "commit_least_loaded_of_sample",
    "commit_least_loaded_scan",
    "commit_threshold_hybrid",
    "two_choice_kernel",
    "least_loaded_kernel",
    "threshold_hybrid_kernel",
    "random_replica_kernel",
    "nearest_replica_kernel",
    "two_choice_reference",
    "least_loaded_reference",
    "threshold_hybrid_reference",
    "random_replica_reference",
    "nearest_replica_reference",
]
