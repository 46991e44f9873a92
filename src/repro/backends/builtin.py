"""Registration of the built-in engines (imported lazily by the registry).

Three backends per family:

========== ======== ========================================================
engine     priority implementation
========== ======== ========================================================
reference  0        scalar per-request / per-arrival loops — the direct
                    transcription of the paper's process definitions and the
                    authority when engines disagree
batch      15       batched numpy precompute with the speculate-and-repair
                    vectorised commit (:mod:`repro.kernels.batch_commit`),
                    whose fallback is the pure-Python commit loop of
                    :mod:`repro.kernels.commit` / :mod:`repro.kernels.queueing`
numba      20       the same precompute with ``@njit``-compiled commit
                    loops; listed always, selectable only where ``numba``
                    imports
========== ======== ========================================================

``"auto"`` resolves to the highest-priority *available* engine, so installing
numba transparently accelerates every default-engine surface.

The operation tables are registered as zero-argument loaders, so merely
importing this module never pulls in an implementation; the numba table in
particular is only built (triggering compilation on first call) when that
engine is actually selected.  The batch commit functions are looked up when
a table loads, not at import, so wrappers installed on
:mod:`repro.kernels.batch_commit` before the first resolution see every call.
"""

from __future__ import annotations

from functools import partial

from repro.backends.registry import register_engine


def _assignment_reference_fns():
    from repro.kernels import reference as ref

    return {
        "two_choice": ref.two_choice_reference,
        "least_loaded": ref.least_loaded_reference,
        "threshold_hybrid": ref.threshold_hybrid_reference,
        "random_replica": ref.random_replica_reference,
        "nearest_replica": ref.nearest_replica_reference,
    }


def _assignment_batch_fns():
    from repro.kernels import batch_commit as bc
    from repro.kernels import engine as kernel

    # Speculate-and-repair vectorised commit for the three d-choice commit
    # loops; the replica strategies have no sequential commit phase, so they
    # run the kernel entry points unchanged.
    return {
        "two_choice": partial(
            kernel.two_choice_kernel, commit=bc.commit_least_loaded_of_sample
        ),
        "least_loaded": partial(
            kernel.least_loaded_kernel, commit=bc.commit_least_loaded_scan
        ),
        "threshold_hybrid": partial(
            kernel.threshold_hybrid_kernel, commit=bc.commit_threshold_hybrid
        ),
        "random_replica": kernel.random_replica_kernel,
        "nearest_replica": kernel.nearest_replica_kernel,
    }


def _assignment_numba_fns():
    from repro.backends import numba_backend as nb
    from repro.kernels import engine as kernel

    # The d-choice commit loops compile; the replica strategies have no
    # sequential commit phase, so they run the kernel entry points unchanged.
    return {
        "two_choice": partial(
            kernel.two_choice_kernel, commit=nb.commit_least_loaded_of_sample
        ),
        "least_loaded": partial(
            kernel.least_loaded_kernel, commit=nb.commit_least_loaded_scan
        ),
        "threshold_hybrid": partial(
            kernel.threshold_hybrid_kernel, commit=nb.commit_threshold_hybrid
        ),
        "random_replica": kernel.random_replica_kernel,
        "nearest_replica": kernel.nearest_replica_kernel,
    }


def _queueing_reference_fns():
    from repro.kernels.queueing import queueing_reference_window

    return {"window": queueing_reference_window}


def _queueing_batch_fns():
    from repro.kernels import batch_commit as bc
    from repro.kernels.queueing import queueing_kernel_window

    return {"window": partial(queueing_kernel_window, commit=bc.commit_window)}


def _queueing_numba_fns():
    from repro.backends import numba_backend as nb
    from repro.kernels.queueing import queueing_kernel_window

    return {"window": partial(queueing_kernel_window, commit=nb.commit_window)}


register_engine(
    "reference",
    family="assignment",
    commit_fns=_assignment_reference_fns,
    priority=0,
    supports_streaming=False,
    description="scalar per-request loop (differential-testing authority)",
)
register_engine(
    "batch",
    family="assignment",
    commit_fns=_assignment_batch_fns,
    priority=15,
    supports_streaming=True,
    description="batched precompute + speculate-and-repair vectorised commit",
)
register_engine(
    "numba",
    family="assignment",
    commit_fns=_assignment_numba_fns,
    requires=("numba",),
    priority=20,
    supports_streaming=True,
    description="@njit-compiled commit loop",
)

register_engine(
    "reference",
    family="queueing",
    commit_fns=_queueing_reference_fns,
    priority=0,
    supports_streaming=True,
    description="scalar per-arrival event loop (differential-testing authority)",
)
register_engine(
    "batch",
    family="queueing",
    commit_fns=_queueing_batch_fns,
    priority=15,
    supports_streaming=True,
    description="event-batched precompute + speculative inter-departure batches",
)
register_engine(
    "numba",
    family="queueing",
    commit_fns=_queueing_numba_fns,
    requires=("numba",),
    priority=20,
    supports_streaming=True,
    description="@njit-compiled event loop",
)
