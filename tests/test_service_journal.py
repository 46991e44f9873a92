"""The write-ahead dispatch journal and deterministic crash recovery.

The recovery contract is an *equality* claim: replaying the journaled
commit stream through a fresh session (same seed, same commit order, same
committed times) reconstructs the crashed server's session bit for bit,
witnessed by the :meth:`state_digest` fingerprints recorded at every
checkpoint.  Recovery replays each checkpoint segment in one
``dispatch_batch`` call, not one call per journaled batch; by the
windowed-serving contract any partition of the commit stream gives the same
decisions, and the differential tests below hold it to a plain per-batch
replay.  These tests exercise the journal file format (torn tails,
corruption, sequence gaps), the replay itself, and the digest that anchors
it.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json

import numpy as np
import pytest

from repro.exceptions import ConfigurationError, JournalError, UnknownEngineError
from repro.service import DispatchClient, DispatchServer, DispatchServiceError
from repro.service import journal as journal_module
from repro.service.journal import (
    DispatchJournal,
    JournalBatch,
    JournalCheckpoint,
    build_session_from_spec,
    read_journal,
    recover_session,
)
from repro.service.protocol import BatchDispatchResponse, DispatchResponse

SEED = 1789

QUEUEING_SPEC = {
    "kind": "queueing",
    "seed": SEED,
    "engine": "batch",
    "topology": "torus",
    "nodes": 49,
    "files": 20,
    "cache": 3,
    "popularity": "uniform",
    "gamma": None,
    "placement": "partition",
    "mu": 1.0,
    "radius": 3.0,
    "choices": 2,
    "strategy": "proximity_two_choice",
}

STATIC_SPEC = {
    "kind": "assignment",
    "seed": SEED,
    "engine": "auto",
    "topology": "torus",
    "nodes": 49,
    "files": 20,
    "cache": 3,
    "popularity": "uniform",
    "gamma": None,
    "placement": "proportional",
    "mu": 1.0,
    "radius": 3.0,
    "choices": 2,
    "strategy": "proximity_two_choice",
}

SPECS = {"queueing": QUEUEING_SPEC, "assignment": STATIC_SPEC}


def simulate_serving(path, kind, num_batches=6, batch_size=5, *, keys=False, **journal_kwargs):
    """Drive a session the way the server's writer does, journaling each batch.

    Returns ``(session, journal_path)`` with the journal closed — the
    "crashed server" whose state recovery must reproduce.
    """
    spec = SPECS[kind]
    session = build_session_from_spec(spec)
    rng = np.random.default_rng(7)
    journal = DispatchJournal.create(
        path, kind=kind, spec=spec, seed=spec["seed"], **journal_kwargs
    )
    seq = 0
    tick = 0.001
    virtual_time = 0.0
    with journal:
        for index in range(num_batches):
            origins = rng.integers(0, spec["nodes"], size=batch_size)
            files = rng.integers(0, spec["files"], size=batch_size)
            if kind == "queueing":
                times = virtual_time + tick * np.arange(1, batch_size + 1)
                virtual_time = float(times[-1])
                session.dispatch_batch(origins, files, times)
            else:
                times = None
                session.dispatch_batch(origins, files)
            key = f"k-{index}" if keys else None
            journal.append_batch(seq, origins, files, times, [(batch_size, key)])
            if journal.checkpoint_due:
                journal.append_checkpoint(
                    seq + batch_size, session.state_digest(), virtual_time
                )
            seq += batch_size
    return session, seq


def serve_sizes(path, kind, sizes, *, checkpoint_every=None, seed=0):
    """Journal batches of the given ``sizes`` with keyed and unkeyed units.

    Like :func:`simulate_serving`, but each batch is split into random
    units, about half of them keyed, and about a third of the queueing
    batches are untimed (they arrive at the session's ``served_until``).
    ``checkpoint_every=None`` writes no checkpoint at all.  Returns the
    writer's session.
    """
    spec = SPECS[kind]
    session = build_session_from_spec(spec)
    rng = np.random.default_rng(seed)
    cadence = len(sizes) + 1 if checkpoint_every is None else checkpoint_every
    seq = 0
    virtual_time = 0.0
    with DispatchJournal.create(
        path, kind=kind, spec=spec, seed=spec["seed"], checkpoint_every=cadence
    ) as journal:
        for size in sizes:
            origins = rng.integers(0, spec["nodes"], size=size)
            files = rng.integers(0, spec["files"], size=size)
            times = None
            if kind == "queueing":
                if rng.random() >= 1 / 3:
                    gaps = rng.exponential(0.002, size=size)
                    gaps[rng.random(size) < 0.2] = 0.0  # simultaneous arrivals
                    times = session.served_until + np.cumsum(gaps)
                session.dispatch_batch(origins, files, times)
                virtual_time = float(session.served_until)
            else:
                session.dispatch_batch(origins, files)
            edges = [0, size] if size else [0]
            if size > 1:
                cuts = rng.choice(np.arange(1, size), size=min(size - 1, 3), replace=False)
                edges[1:1] = sorted(cuts.tolist())
            units = [
                (stop - start, f"k{seq + start}" if rng.random() < 0.5 else None)
                for start, stop in zip(edges, edges[1:])
            ]
            journal.append_batch(seq, origins, files, times, units)
            seq += size
            if journal.checkpoint_due:
                journal.append_checkpoint(seq, session.state_digest(), virtual_time)
    return session


def replay_per_batch(path):
    """The replay recovery must match: one ``dispatch_batch`` per batch.

    Returns the session, every keyed unit as ``(key, seq, servers,
    distances, fallbacks, times, origins, files)`` with plain lists (see
    :func:`plain`), and the number of checkpoints verified.
    """
    contents = read_journal(path)
    session = build_session_from_spec(contents.header["spec"])
    units, verified = [], 0
    for record in contents.records:
        if isinstance(record, JournalCheckpoint):
            assert session.state_digest() == record.digest
            verified += 1
            continue
        origins = np.asarray(record.origins, dtype=np.int64)
        files = np.asarray(record.files, dtype=np.int64)
        times = None
        if contents.header["kind"] == "queueing":
            # An untimed batch arrives at the clock the call starts from.
            times = [session.served_until] * record.total
            if record.times is not None:
                times = list(record.times)
            result = session.dispatch_batch(origins, files, record.times)
        else:
            result = session.dispatch_batch(origins, files)
        offset = 0
        for size, key in record.units:
            window = slice(offset, offset + size)
            if key is not None:
                units.append((
                    key,
                    record.seq + offset,
                    result.servers[window].tolist(),
                    result.distances[window].tolist(),
                    result.fallback_mask[window].tolist(),
                    None if times is None else times[window],
                    origins[window].tolist(),
                    files[window].tolist(),
                ))
            offset += size
    return session, units, verified


def plain(units):
    """Recovered ``(key, unit, request)`` triples as comparable tuples of lists."""
    return [
        (
            key,
            unit.seq,
            unit.servers.tolist(),
            unit.distances.tolist(),
            unit.fallbacks.tolist(),
            None if unit.times is None else unit.times.tolist(),
            origins.tolist(),
            files.tolist(),
        )
        for key, unit, (origins, files) in units
    ]


def owns_its_arrays(unit):
    """Whether no array of ``unit`` is a view into a larger one."""
    return all(array is None or array.base is None for array in unit[1:])


def snapshot_fields(session):
    snapshot = session.snapshot()
    return snapshot if isinstance(snapshot, dict) else dataclasses.asdict(snapshot)


def count_calls(monkeypatch, session):
    """Record ``(requests, windows)`` of every ``dispatch_batch`` call."""
    calls = []
    original = session.dispatch_batch

    def spy(origins, files, *args, **kwargs):
        calls.append((len(origins), kwargs.get("windows", 1)))
        return original(origins, files, *args, **kwargs)

    monkeypatch.setattr(session, "dispatch_batch", spy)
    return calls


class TestJournalFile:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "wal"
        with DispatchJournal.create(path, kind="assignment", spec=STATIC_SPEC) as journal:
            journal.append_batch(0, [1, 2], [3, 4], None, [(2, "a")])
            journal.append_batch(2, [5], [6], [0.5], [(1, None)])
            journal.append_checkpoint(3, "deadbeef", 0.5)
        contents = read_journal(path)
        assert contents.header["kind"] == "assignment"
        assert contents.header["spec"] == STATIC_SPEC
        assert contents.next_seq == 3
        batches = contents.batches
        assert batches[0] == JournalBatch(
            seq=0, origins=(1, 2), files=(3, 4), times=None, units=((2, "a"),)
        )
        assert batches[1].times == (0.5,)
        assert contents.checkpoints == (
            JournalCheckpoint(seq=3, digest="deadbeef", virtual_time=0.5),
        )

    def test_torn_tail_is_dropped(self, tmp_path):
        path = tmp_path / "wal"
        with DispatchJournal.create(path, kind="assignment") as journal:
            journal.append_batch(0, [1], [2], None, [(1, None)])
        clean = path.stat().st_size
        with open(path, "ab") as handle:
            handle.write(b'{"type":"batch","seq":1,"orig')  # crash mid-append
        contents = read_journal(path)
        assert len(contents.batches) == 1
        assert contents.clean_size == clean

    def test_open_append_truncates_torn_tail(self, tmp_path):
        path = tmp_path / "wal"
        with DispatchJournal.create(path, kind="assignment") as journal:
            journal.append_batch(0, [1], [2], None, [(1, None)])
        with open(path, "ab") as handle:
            handle.write(b"garbage without newline")
        with DispatchJournal.open_append(path) as journal:
            journal.append_batch(1, [3], [4], None, [(1, None)])
        batches = read_journal(path).batches
        assert [b.seq for b in batches] == [0, 1]

    def test_corruption_mid_file_raises(self, tmp_path):
        # A final unparseable line is a torn tail; one *followed by further
        # records* is real corruption and must not be silently skipped.
        path = tmp_path / "wal"
        with DispatchJournal.create(path, kind="assignment") as journal:
            journal.append_batch(0, [1], [2], None, [(1, None)])
            journal.append_batch(1, [3], [4], None, [(1, None)])
        lines = path.read_bytes().split(b"\n")
        lines[1] = b"not json"
        path.write_bytes(b"\n".join(lines))
        with pytest.raises(JournalError, match="corrupt"):
            read_journal(path)

    def test_commit_sequence_gap_raises(self, tmp_path):
        path = tmp_path / "wal"
        with DispatchJournal.create(path, kind="assignment") as journal:
            journal.append_batch(0, [1], [2], None, [(1, None)])
            journal.append_batch(5, [3], [4], None, [(1, None)])  # gap: expected 1
        with pytest.raises(JournalError, match="sequence gap"):
            read_journal(path)

    def test_version_mismatch_raises(self, tmp_path):
        path = tmp_path / "wal"
        header = {"type": "header", "version": 99, "kind": "assignment"}
        path.write_bytes(json.dumps(header).encode() + b"\n")
        with pytest.raises(JournalError, match="version"):
            read_journal(path)

    def test_missing_header_raises(self, tmp_path):
        path = tmp_path / "wal"
        path.write_bytes(b'{"type":"batch","seq":0,"origins":[],"files":[]}\n')
        with pytest.raises(JournalError, match="header"):
            read_journal(path)

    def test_empty_file_raises(self, tmp_path):
        path = tmp_path / "wal"
        path.write_bytes(b"")
        with pytest.raises(JournalError, match="empty"):
            read_journal(path)

    def test_checkpoint_cadence(self, tmp_path):
        path = tmp_path / "wal"
        with DispatchJournal.create(path, kind="assignment", checkpoint_every=3) as journal:
            for index in range(3):
                assert not journal.checkpoint_due
                journal.append_batch(index, [0], [0], None, [(1, None)])
            assert journal.checkpoint_due
            journal.append_checkpoint(3, "d", 0.0)
            assert not journal.checkpoint_due

    def test_bad_fsync_policy_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="fsync"):
            DispatchJournal.create(tmp_path / "wal", kind="assignment", fsync="sometimes")


class TestStateDigest:
    @pytest.mark.parametrize("kind", ["queueing", "assignment"])
    def test_digest_tracks_dispatches(self, kind):
        a = build_session_from_spec(SPECS[kind])
        b = build_session_from_spec(SPECS[kind])
        assert a.state_digest() == b.state_digest()
        origins = np.asarray([0, 1, 2])
        files = np.asarray([0, 1, 2])
        if kind == "queueing":
            a.dispatch_batch(origins, files, np.asarray([0.1, 0.2, 0.3]))
        else:
            a.dispatch_batch(origins, files)
        assert a.state_digest() != b.state_digest()

    def test_digest_differs_across_seeds(self):
        # RNG streams materialise on first use, so drive one identical batch
        # through both sessions before comparing fingerprints.
        a = build_session_from_spec(STATIC_SPEC)
        b = build_session_from_spec(dict(STATIC_SPEC, seed=SEED + 1))
        origins = np.asarray([0, 1, 2, 3])
        files = np.asarray([0, 1, 2, 3])
        a.dispatch_batch(origins, files)
        b.dispatch_batch(origins, files)
        assert a.state_digest() != b.state_digest()


class TestBuildSessionFromSpec:
    def test_unknown_kind_raises(self):
        with pytest.raises(JournalError, match="unknown kind"):
            build_session_from_spec({"kind": "mystery"})

    def test_missing_spec_raises(self):
        with pytest.raises(JournalError, match="no session spec"):
            build_session_from_spec(None)

    @pytest.mark.parametrize("kind", ["queueing", "assignment"])
    @pytest.mark.parametrize("engine", ["kernel", "batch:8"])
    def test_deleted_engine_spec_raises(self, kind, engine):
        # Older journals may name a deleted engine or a "name:options" spec;
        # rebuilding their session fails up front and lists what exists.
        with pytest.raises(UnknownEngineError, match="registered") as excinfo:
            build_session_from_spec(dict(SPECS[kind], engine=engine))
        assert "batch" in str(excinfo.value) and "reference" in str(excinfo.value)


class TestRecovery:
    @pytest.mark.parametrize("kind", ["queueing", "assignment"])
    def test_replay_is_bit_identical(self, tmp_path, kind):
        """The crash-recovery gate: replay == crashed session, provably."""
        path = tmp_path / "wal"
        crashed, total = simulate_serving(path, kind, checkpoint_every=2)
        recovered = recover_session(path)
        assert recovered.kind == kind
        assert recovered.next_seq == total
        assert recovered.checkpoints_verified >= 1
        assert recovered.session.state_digest() == crashed.state_digest()

    @pytest.mark.parametrize("kind", ["queueing", "assignment"])
    def test_post_recovery_decisions_match_uninterrupted_run(self, tmp_path, kind):
        path = tmp_path / "wal"
        crashed, _ = simulate_serving(path, kind)
        recovered = recover_session(path)
        rng = np.random.default_rng(99)
        origins = rng.integers(0, SPECS[kind]["nodes"], size=12)
        files = rng.integers(0, SPECS[kind]["files"], size=12)
        if kind == "queueing":
            base = max(recovered.virtual_time, float(crashed.served_until))
            times = base + 0.001 * np.arange(1, 13)
            got = recovered.session.dispatch_batch(origins, files, times.copy())
            expected = crashed.dispatch_batch(origins, files, times.copy())
        else:
            got = recovered.session.dispatch_batch(origins, files)
            expected = crashed.dispatch_batch(origins, files)
        np.testing.assert_array_equal(got.servers, expected.servers)
        np.testing.assert_array_equal(got.distances, expected.distances)
        np.testing.assert_array_equal(got.fallback_mask, expected.fallback_mask)
        assert recovered.session.state_digest() == crashed.state_digest()

    def test_recovery_reconstructs_idempotency_index(self, tmp_path):
        path = tmp_path / "wal"
        simulate_serving(path, "assignment", num_batches=3, keys=True)
        recovered = recover_session(path)
        keys = [key for key, _, _ in recovered.idempotency]
        assert keys == ["k-0", "k-1", "k-2"]
        for index, (_, unit, _) in enumerate(recovered.idempotency):
            assert unit.seq == index * 5
            assert len(unit.servers) == len(unit.fallbacks) == 5
            assert unit.times is None
            assert owns_its_arrays(unit)

    def test_fingerprint_mismatch_raises(self, tmp_path):
        path = tmp_path / "wal"
        simulate_serving(path, "assignment", checkpoint_every=2)
        lines = path.read_bytes().split(b"\n")
        for index, line in enumerate(lines):
            if b'"checkpoint"' in line:
                record = json.loads(line)
                record["digest"] = "0" * 64
                lines[index] = json.dumps(record, separators=(",", ":")).encode()
                break
        path.write_bytes(b"\n".join(lines))
        with pytest.raises(JournalError, match="fingerprint mismatch"):
            recover_session(path)

    def test_explicit_session_kind_mismatch_raises(self, tmp_path):
        path = tmp_path / "wal"
        simulate_serving(path, "assignment")
        wrong = build_session_from_spec(QUEUEING_SPEC)
        with pytest.raises(JournalError, match="session"):
            recover_session(path, session=wrong)

    @pytest.mark.parametrize("kind", ["queueing", "assignment"])
    def test_keyed_retries_after_recovery_keep_their_endpoint(self, tmp_path, kind):
        """A retried key is answered in the shape of the endpoint it arrived
        on: a keyed one-request batch stays a batch response after recovery,
        and a keyed single dispatch stays a single response."""
        path = tmp_path / "wal"
        spec = SPECS[kind]

        async def keyed_pair(server):
            host, port = server.address
            async with DispatchClient(host, port, key_prefix="r") as client:
                batch = await client.dispatch_batch([3], [4])
                single = await client.dispatch(5, 6)
            return batch, single

        async def first_life():
            journal = DispatchJournal.create(path, kind=kind, spec=spec, seed=SEED)
            server = DispatchServer(
                build_session_from_spec(spec),
                flush_interval=0.001,
                snapshot_interval=0.02,
                journal=journal,
            )
            await server.start()
            try:
                return await keyed_pair(server), server
            finally:
                await server.shutdown()

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
            try:
                return await keyed_pair(server), server
            finally:
                await server.shutdown()

        original, first = asyncio.run(first_life())
        retried, second = asyncio.run(second_life())
        batch, single = retried
        assert isinstance(batch, BatchDispatchResponse)
        assert isinstance(single, DispatchResponse)
        assert retried == original
        assert second.requests_dispatched == 2  # the retries committed nothing
        assert second.metrics.duplicates == 2
        # Both indexes hold copies, not views into a flush or a replay.
        for server in (first, second):
            for key in ("r-0", "r-1"):
                assert owns_its_arrays(server.idempotency.lookup(key)[1])

    @pytest.mark.parametrize("kind", ["queueing", "assignment"])
    def test_key_reused_after_recovery_is_400(self, tmp_path, kind):
        """Recovery restores each key's request too: a recovered key does
        not answer a different request with its decisions."""
        path = tmp_path / "wal"
        simulate_serving(path, kind, num_batches=1, batch_size=2, keys=True)
        recovered = recover_session(path)

        async def second_life():
            server = DispatchServer(
                recovered.session,
                flush_interval=0.001,
                snapshot_interval=0.02,
                initial_seq=recovered.next_seq,
            )
            server.idempotency.preload(recovered.idempotency)
            await server.start()
            try:
                async with DispatchClient(*server.address, key_prefix="k") as client:
                    with pytest.raises(DispatchServiceError) as excinfo:
                        await client.dispatch_batch([0, 1, 2], [0, 1, 2])
            finally:
                await server.shutdown()
            return server, excinfo.value

        server, error = asyncio.run(second_life())
        assert error.status == 400
        assert error.error.error == "idempotency key mismatch"
        assert server.requests_dispatched == 2  # the recovered batch alone

    def test_recover_from_torn_journal(self, tmp_path):
        """A crash mid-append loses only the unacknowledged torn record."""
        path = tmp_path / "wal"
        crashed, total = simulate_serving(path, "assignment")
        with open(path, "ab") as handle:
            handle.write(b'{"type":"batch","seq":%d' % total)
        recovered = recover_session(path)
        assert recovered.next_seq == total
        assert recovered.session.state_digest() == crashed.state_digest()


def mixed_sizes(seed, count=40):
    """Batch sizes mixing empty, single-request and random batches."""
    rng = np.random.default_rng(seed)
    return [int(size) for size in rng.choice([0, 1, *rng.integers(2, 13, size=4)], size=count)]


class TestSegmentReplay:
    """Recovery replays one call per checkpoint segment, bit-identically."""

    @pytest.mark.parametrize("cap", [None, 7], ids=["cap-default", "cap-7"])
    @pytest.mark.parametrize("cadence", [1, 3, 16, None], ids=lambda c: f"every-{c}")
    @pytest.mark.parametrize("kind", ["queueing", "assignment"])
    def test_matches_per_batch_replay(self, tmp_path, monkeypatch, kind, cadence, cap):
        if cap is not None:
            monkeypatch.setattr(journal_module, "_REPLAY_REQUESTS", cap)
        path = tmp_path / "wal"
        sizes = mixed_sizes(len(kind) + (cadence or 0))
        crashed = serve_sizes(path, kind, sizes, checkpoint_every=cadence, seed=3)
        looped, units, verified = replay_per_batch(path)
        recovered = recover_session(path)

        assert recovered.session.state_digest() == looped.state_digest()
        assert recovered.session.state_digest() == crashed.state_digest()
        assert recovered.session.num_windows == looped.num_windows == len(sizes)
        np.testing.assert_equal(snapshot_fields(recovered.session), snapshot_fields(looped))
        assert recovered.next_seq == sum(sizes)
        assert recovered.batches == len(sizes) and recovered.requests == sum(sizes)
        assert recovered.checkpoints_verified == verified
        assert verified == (0 if cadence is None else len(sizes) // cadence)
        assert plain(recovered.idempotency) == units
        assert units, "the journal should hold keyed units"
        assert all(owns_its_arrays(unit) for _, unit, _ in recovered.idempotency)
        assert all(
            array.base is None for _, _, request in recovered.idempotency for array in request
        )

    @pytest.mark.parametrize("kind", ["queueing", "assignment"])
    def test_one_call_per_checkpoint_segment(self, tmp_path, monkeypatch, kind):
        path = tmp_path / "wal"
        crashed, total = simulate_serving(path, kind, num_batches=14, checkpoint_every=4)
        session = build_session_from_spec(SPECS[kind])
        calls = count_calls(monkeypatch, session)
        recovered = recover_session(path, session=session)
        # Checkpoints after batches 4, 8 and 12, then a tail of 2 batches.
        assert recovered.checkpoints_verified == 3
        assert calls == [(20, 4), (20, 4), (20, 4), (10, 2)]
        assert recovered.next_seq == total
        assert recovered.session.num_windows == 14
        assert recovered.session.state_digest() == crashed.state_digest()

    @pytest.mark.parametrize("kind", ["queueing", "assignment"])
    def test_long_segment_split_at_the_cap(self, tmp_path, monkeypatch, kind):
        cap = 8
        monkeypatch.setattr(journal_module, "_REPLAY_REQUESTS", cap)
        path = tmp_path / "wal"
        crashed, total = simulate_serving(
            path, kind, num_batches=15, batch_size=2, checkpoint_every=16
        )
        assert not read_journal(path).checkpoints
        session = build_session_from_spec(SPECS[kind])
        calls = count_calls(monkeypatch, session)
        recovered = recover_session(path, session=session)
        assert len(calls) == -(-total // cap) == 4
        assert all(requests <= cap for requests, _ in calls)
        assert sum(windows for _, windows in calls) == 15
        assert recovered.session.num_windows == 15
        assert recovered.session.state_digest() == crashed.state_digest()

    @pytest.mark.parametrize("kind", ["queueing", "assignment"])
    def test_batch_above_the_cap_replays_alone(self, tmp_path, monkeypatch, kind):
        monkeypatch.setattr(journal_module, "_REPLAY_REQUESTS", 8)
        path = tmp_path / "wal"
        crashed = serve_sizes(path, kind, [3, 20, 3, 3])
        session = build_session_from_spec(SPECS[kind])
        calls = count_calls(monkeypatch, session)
        recovered = recover_session(path, session=session)
        assert calls == [(3, 1), (20, 1), (6, 2)]
        assert recovered.session.state_digest() == crashed.state_digest()

    @pytest.mark.parametrize("windows", [0, -1, -5])
    @pytest.mark.parametrize("kind", ["queueing", "assignment"])
    def test_windows_below_one_rejected(self, kind, windows):
        session = build_session_from_spec(SPECS[kind])
        session.dispatch_batch([0, 1], [0, 1])
        before = session.state_digest()
        with pytest.raises(ConfigurationError, match="windows"):
            session.dispatch_batch([2, 3], [2, 3], windows=windows)
        assert session.state_digest() == before
        assert session.num_windows == 1
