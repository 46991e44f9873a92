"""Registration of the built-in engines (imported lazily by the registry).

Five backends per family:

========== ======== ========================================================
engine     priority implementation
========== ======== ========================================================
reference  0        scalar per-request / per-arrival loops — the direct
                    transcription of the paper's process definitions and the
                    authority when engines disagree
sharded    5        tiled multiprocess fleet over shared-memory load
                    vectors (:mod:`repro.backends.sharded`); opt-in via
                    ``"sharded[:N][:mode]"`` option specs, never picked by
                    ``"auto"`` — its stale mode trades the bit-identity
                    contract for parallel throughput
kernel     10       batched numpy precompute + pure-Python commit loop
batch      15       the kernel precompute with the speculate-and-repair
                    vectorised commit (:mod:`repro.kernels.batch_commit`);
                    ``"batch[:rounds]"`` caps repair rounds per chunk
numba      20       the kernel precompute with ``@njit``-compiled commit
                    loops; listed always, selectable only where ``numba``
                    imports
========== ======== ========================================================

``"auto"`` resolves to the highest-priority *available* engine, so installing
numba transparently accelerates every default-engine surface.

The operation tables are registered as zero-argument loaders, so merely
importing this module never pulls in an implementation; the numba table in
particular is only built (triggering compilation on first call) when that
engine is actually selected.
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


def _assignment_kernel_fns():
    from repro.kernels import engine as kernel

    return {
        "two_choice": kernel.two_choice_kernel,
        "least_loaded": kernel.least_loaded_kernel,
        "threshold_hybrid": kernel.threshold_hybrid_kernel,
        "random_replica": kernel.random_replica_kernel,
        "nearest_replica": kernel.nearest_replica_kernel,
    }


def _assignment_numba_fns():
    from repro.backends import numba_backend as nb
    from repro.kernels import engine as kernel

    # The d-choice commit loops compile; the replica strategies have no
    # sequential commit phase, so they run the kernel engine unchanged.
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


def _assignment_batch_fns(max_rounds=None):
    from repro.kernels import batch_commit as bc
    from repro.kernels import engine as kernel

    # Speculate-and-repair vectorised commit for the three d-choice commit
    # loops; the replica strategies have no sequential commit phase, so they
    # run the kernel engine unchanged.
    return {
        "two_choice": partial(
            kernel.two_choice_kernel,
            commit=partial(bc.commit_least_loaded_of_sample, max_rounds=max_rounds),
        ),
        "least_loaded": partial(
            kernel.least_loaded_kernel,
            commit=partial(bc.commit_least_loaded_scan, max_rounds=max_rounds),
        ),
        "threshold_hybrid": partial(
            kernel.threshold_hybrid_kernel,
            commit=partial(bc.commit_threshold_hybrid, max_rounds=max_rounds),
        ),
        "random_replica": kernel.random_replica_kernel,
        "nearest_replica": kernel.nearest_replica_kernel,
    }


def _queueing_batch_fns(max_rounds=None):
    from repro.kernels import batch_commit as bc
    from repro.kernels.queueing import queueing_kernel_window

    return {
        "window": partial(
            queueing_kernel_window,
            commit=partial(bc.commit_window, max_rounds=max_rounds),
        )
    }


def _configure_batch_assignment(options):
    from repro.kernels import batch_commit as bc

    max_rounds = bc.parse_options(options)  # ValueError on junk
    return lambda: _assignment_batch_fns(max_rounds)


def _configure_batch_queueing(options):
    from repro.kernels import batch_commit as bc

    max_rounds = bc.parse_options(options)  # ValueError on junk
    return lambda: _queueing_batch_fns(max_rounds)


def _queueing_reference_fns():
    from repro.kernels.queueing import queueing_reference_window

    return {"window": queueing_reference_window}


def _queueing_kernel_fns():
    from repro.kernels.queueing import queueing_kernel_window

    return {"window": queueing_kernel_window}


def _queueing_numba_fns():
    from repro.backends import numba_backend as nb
    from repro.kernels.queueing import queueing_kernel_window

    return {"window": partial(queueing_kernel_window, commit=nb.commit_window)}


def _assignment_sharded_fns(num_workers=None, mode=None):
    from repro.backends import sharded
    from repro.kernels import engine as kernel

    # Only the d-choice commit is sharded; the other strategies either have
    # no sequential commit loop or no tile-local structure, so they run the
    # kernel engine unchanged (keeping the operation table complete).
    table = dict(_assignment_kernel_fns())
    table["two_choice"] = partial(
        sharded.sharded_two_choice,
        num_workers=num_workers,
        mode=mode or sharded.DEFAULT_MODE,
    )
    return table


def _queueing_sharded_fns(num_workers=None, mode=None):
    from repro.backends import sharded

    return {
        "window": partial(
            sharded.sharded_queueing_window,
            num_workers=num_workers,
            mode=mode or sharded.DEFAULT_MODE,
        )
    }


def _configure_sharded_assignment(options):
    from repro.backends import sharded

    num_workers, mode = sharded.parse_options(options)  # ValueError on junk
    return lambda: _assignment_sharded_fns(num_workers, mode)


def _configure_sharded_queueing(options):
    from repro.backends import sharded

    num_workers, mode = sharded.parse_options(options)  # ValueError on junk
    return lambda: _queueing_sharded_fns(num_workers, mode)


def _sharded_runtime_info():
    from repro.backends import sharded

    return sharded.worker_note()


register_engine(
    "reference",
    family="assignment",
    commit_fns=_assignment_reference_fns,
    priority=0,
    supports_streaming=False,
    description="scalar per-request loop (differential-testing authority)",
)
register_engine(
    "kernel",
    family="assignment",
    commit_fns=_assignment_kernel_fns,
    priority=10,
    supports_streaming=True,
    description="batched precompute + pure-Python commit loop",
)
register_engine(
    "batch",
    family="assignment",
    commit_fns=_assignment_batch_fns,
    priority=15,
    supports_streaming=True,
    description="speculate-and-repair vectorised commit; 'batch[:rounds]' caps repair rounds",
    configure=_configure_batch_assignment,
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
    "sharded",
    family="assignment",
    commit_fns=_assignment_sharded_fns,
    priority=5,
    supports_streaming=True,
    description="tiled multiprocess two-choice; opt in via 'sharded[:N][:mode]'",
    in_process=False,
    configure=_configure_sharded_assignment,
    runtime_info=_sharded_runtime_info,
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
    "kernel",
    family="queueing",
    commit_fns=_queueing_kernel_fns,
    priority=10,
    supports_streaming=True,
    description="event-batched precompute + pure-Python event loop",
)
register_engine(
    "batch",
    family="queueing",
    commit_fns=_queueing_batch_fns,
    priority=15,
    supports_streaming=True,
    description="speculative inter-departure batches; 'batch[:rounds]' accepted for parity",
    configure=_configure_batch_queueing,
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
register_engine(
    "sharded",
    family="queueing",
    commit_fns=_queueing_sharded_fns,
    priority=5,
    supports_streaming=True,
    description="tiled multiprocess event loop; opt in via 'sharded[:N][:mode]'",
    in_process=False,
    configure=_configure_sharded_queueing,
    runtime_info=_sharded_runtime_info,
)
