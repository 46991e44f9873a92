"""Crash-kill-restart recovery: the journal gate, in-process and for real.

The acceptance property of PR 8's tentpole: a server SIGKILLed between
micro-batches leaves a journal from which ``--recover`` rebuilds a session
**bit-identical** to an uninterrupted run — same state fingerprint, same
post-recovery decision stream.  The in-process tests drive a real
:class:`DispatchServer` with a journal and recover from what it wrote; the
subprocess test boots ``repro serve --chaos-crash-after-batches N`` and
lets :class:`ServerChaos` deliver an honest ``SIGKILL`` mid-stream.
"""

from __future__ import annotations

import asyncio
import os
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

from repro.service import DispatchClient, DispatchServer, recover_session
from repro.service.journal import DispatchJournal, build_session_from_spec
from tests.test_service_journal import SPECS

SEED = 1789
NUM_REQUESTS = 30


def run(coro):
    return asyncio.run(coro)


def workload(kind, size=NUM_REQUESTS, seed=23):
    spec = SPECS[kind]
    rng = np.random.default_rng(seed)
    origins = rng.integers(0, spec["nodes"], size=size)
    files = rng.integers(0, spec["files"], size=size)
    return origins, files


class TestInProcessRecovery:
    """A real server journals; recovery replays what it durably wrote."""

    @pytest.mark.parametrize("kind", ["queueing", "assignment"])
    def test_recovered_state_is_bit_identical(self, tmp_path, kind):
        path = tmp_path / "wal"
        spec = SPECS[kind]

        async def serve_and_crash():
            journal = DispatchJournal.create(
                path, kind=kind, spec=spec, seed=spec["seed"], checkpoint_every=4
            )
            session = build_session_from_spec(spec)
            server = DispatchServer(
                session,
                flush_interval=0.001,
                snapshot_interval=0.02,
                journal=journal,
                tick=0.001,
            )
            await server.start()
            host, port = server.address
            origins, files = workload(kind)
            async with DispatchClient(host, port, key_prefix="c") as client:
                for origin, file_id in zip(origins, files):
                    await client.dispatch(int(origin), int(file_id))
            # "Crash": drop the server without a graceful drain — only what
            # the journal holds survives.  (The journal file handle is
            # closed so the test can reopen it; the bytes are already
            # written, exactly as they would be after SIGKILL.)
            journal.close()
            digest = session.state_digest()
            virtual_time = server._virtual_time
            await server.shutdown()
            return digest, virtual_time

        crashed_digest, crashed_time = run(serve_and_crash())

        recovered = recover_session(path)
        assert recovered.next_seq == NUM_REQUESTS
        assert recovered.requests == NUM_REQUESTS
        assert recovered.checkpoints_verified >= 1
        assert recovered.session.state_digest() == crashed_digest
        if kind == "queueing":
            assert recovered.virtual_time == pytest.approx(crashed_time)
        # Recovery repopulated the dedup index from the journaled keys.
        assert len(recovered.idempotency) == NUM_REQUESTS

    @pytest.mark.parametrize("kind", ["queueing", "assignment"])
    def test_recovered_server_continues_the_decision_stream(self, tmp_path, kind):
        """Serve → crash → recover → serve more == one uninterrupted run."""
        path = tmp_path / "wal"
        spec = SPECS[kind]
        first_origins, first_files = workload(kind)
        second_origins, second_files = workload(kind, size=15, seed=29)

        async def drive(server, origins, files, prefix, *, start=True):
            if start:
                await server.start()
            host, port = server.address
            responses = []
            async with DispatchClient(host, port, key_prefix=prefix) as client:
                for origin, file_id in zip(origins, files):
                    responses.append(await client.dispatch(int(origin), int(file_id)))
            return responses

        async def first_life():
            journal = DispatchJournal.create(
                path, kind=kind, spec=spec, seed=spec["seed"], checkpoint_every=4
            )
            server = DispatchServer(
                build_session_from_spec(spec),
                flush_interval=0.001,
                snapshot_interval=0.02,
                journal=journal,
            )
            await drive(server, first_origins, first_files, "a")
            journal.close()
            await server.shutdown()

        run(first_life())

        async def second_life():
            recovered = recover_session(path)
            journal = DispatchJournal.open_append(path)
            server = DispatchServer(
                recovered.session,
                flush_interval=0.001,
                snapshot_interval=0.02,
                journal=journal,
                initial_seq=recovered.next_seq,
            )
            server.idempotency.preload(recovered.idempotency)
            responses = await drive(server, second_origins, second_files, "b")
            digest = server.session.state_digest()
            await server.shutdown()
            return responses, digest

        responses, recovered_digest = run(second_life())

        async def uninterrupted():
            server = DispatchServer(
                build_session_from_spec(spec),
                flush_interval=0.001,
                snapshot_interval=0.02,
            )
            await drive(server, first_origins, first_files, "a")
            out = await drive(server, second_origins, second_files, "b", start=False)
            digest = server.session.state_digest()
            await server.shutdown()
            return out, digest

        reference, reference_digest = run(uninterrupted())

        # Post-recovery decisions are bit-identical to the uninterrupted run.
        assert [(r.seq, r.server, r.distance) for r in responses] == [
            (r.seq, r.server, r.distance) for r in reference
        ]
        assert recovered_digest == reference_digest

        # The recovered journal now holds both lives as one gapless stream.
        final = recover_session(path)
        assert final.next_seq == NUM_REQUESTS + 15
        assert final.session.state_digest() == reference_digest

    def test_duplicate_after_recovery_returns_original_payload(self, tmp_path):
        """A retry that straddles the crash is still deduplicated."""
        path = tmp_path / "wal"
        spec = SPECS["assignment"]

        async def first_life():
            journal = DispatchJournal.create(path, kind="assignment", spec=spec)
            server = DispatchServer(
                build_session_from_spec(spec),
                flush_interval=0.001,
                snapshot_interval=0.02,
                journal=journal,
            )
            await server.start()
            host, port = server.address
            async with DispatchClient(host, port, key_prefix="x") as client:
                response = await client.dispatch(3, 4)
            journal.close()
            await server.shutdown()
            return response

        original = run(first_life())

        async def second_life():
            recovered = recover_session(path)
            server = DispatchServer(
                recovered.session,
                flush_interval=0.001,
                snapshot_interval=0.02,
                initial_seq=recovered.next_seq,
            )
            server.idempotency.preload(recovered.idempotency)
            await server.start()
            host, port = server.address
            # Same key the first life used — the client never learned the
            # outcome and retries against the recovered server.
            async with DispatchClient(host, port, key_prefix="x") as client:
                replayed = await client.dispatch(3, 4)
            dispatched = server.requests_dispatched
            await server.shutdown()
            return replayed, dispatched

        replayed, dispatched = run(second_life())
        assert (replayed.seq, replayed.server, replayed.distance) == (
            original.seq,
            original.server,
            original.distance,
        )
        assert dispatched == 1  # the retry committed nothing new


@pytest.mark.parametrize("kind", ["assignment", "queueing"])
def test_sigkill_mid_stream_recovers_bit_identically(tmp_path, kind):
    """The full gate: a real ``repro serve`` process SIGKILLed mid-stream.

    ``--chaos-crash-after-batches N`` makes :class:`ServerChaos` SIGKILL the
    server right after the N-th journaled batch; the journal must recover to
    exactly the stream the dead server acknowledged, and the recovered
    session's next decisions must match an uninterrupted reference replay.
    """
    journal_path = tmp_path / "wal"
    spec = SPECS[kind]
    argv = [
        sys.executable,
        "-m",
        "repro.cli",
        "serve",
        "--port",
        "0",
        "--nodes",
        str(spec["nodes"]),
        "--files",
        str(spec["files"]),
        "--cache",
        str(spec["cache"]),
        "--placement",
        spec["placement"],
        "--radius",
        str(spec["radius"]),
        "--seed",
        str(spec["seed"]),
        "--engine",
        spec["engine"],
        "--flush-interval",
        "0.001",
        "--journal",
        str(journal_path),
        "--journal-fsync",
        "always",
        "--chaos-crash-after-batches",
        "6",
    ]
    if kind == "queueing":
        argv.insert(argv.index("serve") + 1, "--queueing")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [os.path.join(os.getcwd(), "src"), env.get("PYTHONPATH", "")])
    )
    process = subprocess.Popen(
        argv,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
    )
    try:
        banner = process.stdout.readline()
        assert "serving" in banner, f"unexpected banner: {banner!r}"
        port = int(banner.split("http://", 1)[1].split("—")[0].strip().rsplit(":", 1)[1])

        async def fire_until_killed():
            acknowledged = []
            async with DispatchClient("127.0.0.1", port, timeout=5.0) as client:
                origins, files = workload(kind, size=60, seed=31)
                for origin, file_id in zip(origins, files):
                    try:
                        response = await client.dispatch(int(origin), int(file_id))
                    except (ConnectionError, OSError, asyncio.IncompleteReadError):
                        break
                    acknowledged.append(
                        (int(origin), int(file_id), response.seq, response.server)
                    )
            return acknowledged

        acknowledged = asyncio.run(fire_until_killed())
        process.wait(timeout=30)
        assert process.returncode == -signal.SIGKILL
        # The crash fires after the 6th batch is journaled but before its
        # ack is written — journal-before-ack means at least 5 responses
        # made it out, and every one of them is covered by the journal.
        assert len(acknowledged) >= 5
    finally:
        if process.poll() is None:
            process.kill()
            process.wait()

    # Recovery must cover every acknowledged dispatch (journal-before-ack):
    recovered = recover_session(journal_path)
    assert recovered.next_seq >= len(acknowledged)

    # ... and be bit-identical to an uninterrupted reference that replays
    # the journal's own commit stream, including the next decisions.
    reference = build_session_from_spec(spec)
    ref = recover_session(journal_path, session=reference)
    assert ref.session.state_digest() == recovered.session.state_digest()

    post_origins, post_files = workload(kind, size=10, seed=37)
    if kind == "queueing":
        base = max(recovered.virtual_time, ref.virtual_time) + 1.0
        times = base + 0.001 * np.arange(1, 11)
        got = recovered.session.dispatch_batch(post_origins, post_files, times.copy())
        expected = reference.dispatch_batch(post_origins, post_files, times.copy())
    else:
        got = recovered.session.dispatch_batch(post_origins, post_files)
        expected = reference.dispatch_batch(post_origins, post_files)
    np.testing.assert_array_equal(got.servers, expected.servers)
    np.testing.assert_array_equal(got.distances, expected.distances)
    np.testing.assert_array_equal(got.fallback_mask, expected.fallback_mask)
    assert recovered.session.state_digest() == reference.state_digest()
