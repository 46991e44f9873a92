"""Benchmark: journal replay speed and crash-recovery wall-clock.

How long does a restart actually take?  A journal holding ``n = 4096``
committed requests (the PR 6/7 benchmark scale) is written the way the
server writes it — micro-batches plus periodic checkpoints — then recovered
with :func:`repro.service.journal.recover_session`, which replays every
batch through a fresh session and verifies every checkpoint fingerprint.
The artifact ``.benchmarks/timings/recovery.txt`` records the replay rate
(req/s) and the end-to-end recovery wall-clock next to the standard host
header; ``REPRO_BENCH_RECOVERY_FLOOR`` (req/s, default 2000) guards the
replay rate.
"""

from __future__ import annotations

import os
import time

import numpy as np

from _bench_utils import host_header

from repro.service.journal import (
    DispatchJournal,
    build_session_from_spec,
    recover_session,
)

SEED = 2017
NUM_REQUESTS = int(os.environ.get("REPRO_BENCH_RECOVERY_REQUESTS", "4096"))
BATCH_SIZE = 64
CHECKPOINT_EVERY = 16
RATE_FLOOR = float(os.environ.get("REPRO_BENCH_RECOVERY_FLOOR", "2000"))

SPEC = {
    "kind": "assignment",
    "seed": SEED,
    "engine": "auto",
    "topology": "torus",
    "nodes": 100,
    "files": 40,
    "cache": 4,
    "popularity": "uniform",
    "gamma": None,
    "placement": "proportional",
    "mu": 1.0,
    "radius": 3.0,
    "choices": 2,
    "strategy": "proximity_two_choice",
}


def write_journal(path):
    """One serving run's journal: micro-batches + checkpoints, as the server writes it."""
    session = build_session_from_spec(SPEC)
    rng = np.random.default_rng(7)
    seq = 0
    with DispatchJournal.create(
        path,
        kind="assignment",
        spec=SPEC,
        seed=SEED,
        fsync="interval",
        checkpoint_every=CHECKPOINT_EVERY,
    ) as journal:
        while seq < NUM_REQUESTS:
            size = min(BATCH_SIZE, NUM_REQUESTS - seq)
            origins = rng.integers(0, SPEC["nodes"], size=size)
            files = rng.integers(0, SPEC["files"], size=size)
            session.dispatch_batch(origins, files)
            journal.append_batch(seq, origins, files, None, [(size, None)])
            if journal.checkpoint_due:
                journal.append_checkpoint(
                    seq + size, session.state_digest(), 0.0
                )
            seq += size
    return session


def test_bench_recovery_replay_rate(tmp_path, timing_dir):
    """Recover n=4096 from a journal; assert the replay-rate floor."""
    path = tmp_path / "wal"
    write_start = time.perf_counter()
    crashed = write_journal(path)
    write_seconds = time.perf_counter() - write_start

    recover_start = time.perf_counter()
    recovered = recover_session(path)
    recover_seconds = time.perf_counter() - recover_start

    assert recovered.next_seq == NUM_REQUESTS
    assert recovered.checkpoints_verified == NUM_REQUESTS // (
        BATCH_SIZE * CHECKPOINT_EVERY
    )
    assert recovered.session.state_digest() == crashed.state_digest()

    replay_rate = NUM_REQUESTS / recover_seconds
    journal_bytes = path.stat().st_size
    artifact = (
        f"{host_header()}\n"
        f"crash recovery @ n={SPEC['nodes']}, K={SPEC['files']}, "
        f"strategy=proximity_two_choice(r=3), journal fsync=interval, "
        f"checkpoint every {CHECKPOINT_EVERY} batches\n"
        f"journal    {NUM_REQUESTS} requests in "
        f"{NUM_REQUESTS // BATCH_SIZE} batches, {journal_bytes} bytes "
        f"(written+served in {write_seconds:.3f}s)\n"
        f"recovery   {recover_seconds:.3f}s wall-clock "
        f"({recovered.checkpoints_verified} fingerprints verified)\n"
        f"replay     {replay_rate:.0f} req/s\n"
    )
    print("\n" + artifact)
    (timing_dir / "recovery.txt").write_text(artifact)

    assert replay_rate >= RATE_FLOOR, (
        f"replayed only {replay_rate:.0f} req/s (floor {RATE_FLOOR:g} req/s)"
    )
