"""End-to-end tests of the dispatch server over real sockets.

The acceptance property of the serving layer: decisions handed out over
HTTP to concurrent clients are **bit-identical** to an offline session with
the same seed.  Concurrency makes the arrival order nondeterministic, so
every response carries its global commit-order ``seq``; replaying the
requests in ``seq`` order through a fresh offline session must reproduce
every server/distance decision exactly — for both session stacks.

Everything but the signal tests runs in-process: one asyncio loop hosts the
server and the clients, so the tests are fast and deterministic apart from
the arrival interleaving they explicitly embrace.  The signal tests start a
real ``repro serve`` process, because signal dispositions belong to it.
"""

from __future__ import annotations

import asyncio
import contextlib
import os
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.catalog.library import FileLibrary
from repro.placement.partition import PartitionPlacement
from repro.placement.proportional import ProportionalPlacement
from repro.service import DispatchClient, DispatchServer, DispatchServiceError
from repro.service.journal import (
    DispatchJournal,
    build_session_from_spec,
    recover_session,
)
from repro.session import CacheNetworkSession, QueueingSession
from repro.strategies.proximity_two_choice import ProximityTwoChoiceStrategy
from repro.topology.torus import Torus2D
from repro.workload.arrivals import PoissonArrivalProcess

SEED = 1789
NUM_NODES = 49
NUM_FILES = 20


def make_session(kind: str):
    if kind == "static":
        return CacheNetworkSession(
            topology=Torus2D(NUM_NODES),
            library=FileLibrary(NUM_FILES),
            placement=ProportionalPlacement(3),
            strategy=ProximityTwoChoiceStrategy(radius=3),
            seed=SEED,
        )
    return QueueingSession(
        Torus2D(NUM_NODES),
        FileLibrary(NUM_FILES),
        PartitionPlacement(3),
        PoissonArrivalProcess(rate_per_node=0.5),
        radius=3.0,
        seed=SEED,
        engine="batch",
    )


def run(coro):
    return asyncio.run(coro)


async def start_server(kind: str, **kwargs) -> DispatchServer:
    kwargs.setdefault("flush_interval", 0.002)
    kwargs.setdefault("snapshot_interval", 0.02)
    server = DispatchServer(make_session(kind), **kwargs)
    await server.start()
    return server


def replay_offline(kind, origins, files, times=None):
    """The offline ground truth for a committed request sequence."""
    session = make_session(kind)
    if kind == "static":
        result = session.dispatch_batch(origins, files)
    else:
        result = session.dispatch_batch(
            origins, files, np.asarray(times, dtype=np.float64)
        )
    return list(result.servers), list(result.distances)


class TestBitIdentity:
    @pytest.mark.parametrize("kind", ["static", "queueing"])
    def test_concurrent_clients_match_offline_session(self, kind):
        """≥50 concurrent clients; replay in seq order is bit-identical."""

        async def scenario():
            server = await start_server(kind)
            host, port = server.address
            rng = np.random.default_rng(3)
            origins = rng.integers(0, NUM_NODES, size=60)
            files = rng.integers(0, NUM_FILES, size=60)
            async with DispatchClient(host, port, pool_size=60) as client:
                responses = await asyncio.gather(
                    *[
                        client.dispatch(int(o), int(f))
                        for o, f in zip(origins, files)
                    ]
                )
            await server.shutdown()
            # seq numbers are a permutation of the commit order.
            seqs = [r.seq for r in responses]
            assert sorted(seqs) == list(range(60))
            order = np.argsort(seqs)
            offline_servers, offline_distances = replay_offline(
                kind,
                origins[order],
                files[order],
                times=[responses[i].time for i in order] if kind == "queueing" else None,
            )
            assert [responses[i].server for i in order] == offline_servers
            assert [responses[i].distance for i in order] == offline_distances

        run(scenario())

    @pytest.mark.parametrize("kind", ["static", "queueing"])
    def test_batch_endpoint_matches_offline_session(self, kind):
        async def scenario():
            server = await start_server(kind)
            host, port = server.address
            rng = np.random.default_rng(5)
            origins = rng.integers(0, NUM_NODES, size=32)
            files = rng.integers(0, NUM_FILES, size=32)
            async with DispatchClient(host, port) as client:
                response = await client.dispatch_batch(origins, files)
            await server.shutdown()
            assert response.seq_start == 0
            assert len(response) == 32
            offline_servers, offline_distances = replay_offline(
                kind, origins, files, times=response.times
            )
            assert list(response.servers) == offline_servers
            assert list(response.distances) == offline_distances

        run(scenario())

    def test_queueing_times_are_strictly_increasing_per_commit(self):
        async def scenario():
            server = await start_server("queueing", tick=0.5)
            host, port = server.address
            async with DispatchClient(host, port) as client:
                response = await client.dispatch_batch([0, 1, 2], [1, 2, 3])
            await server.shutdown()
            assert response.times is not None
            assert list(response.times) == [0.5, 1.0, 1.5]

        run(scenario())

    def test_explicit_client_times_are_clamped_monotone(self):
        async def scenario():
            server = await start_server("queueing")
            host, port = server.address
            async with DispatchClient(host, port) as client:
                first = await client.dispatch(0, 1, time=2.0)
                # An earlier explicit time cannot rewind the virtual clock.
                second = await client.dispatch(1, 2, time=1.0)
            await server.shutdown()
            assert first.time == pytest.approx(2.0)
            assert second.time == pytest.approx(2.0)

        run(scenario())


class TestFallback:
    @pytest.mark.parametrize("kind", ["queueing", "assignment"])
    def test_fallback_marks_the_requests_beyond_the_radius(self, tmp_path, kind):
        """``fallback`` is true exactly where the ball B_1(origin) held no
        replica, so the request paid more than r = 1 hops — on both session
        kinds, in the batch response and in the units recovery rebuilds."""
        spec = {
            "kind": kind,
            "seed": 1,
            "engine": "batch",
            "nodes": 256,
            "files": 64,
            "cache": 2,
            "placement": "proportional",
            "radius": 1,
            "choices": 2,
        }
        path = tmp_path / "wal"

        async def scenario():
            session = build_session_from_spec(spec)
            cached = np.setdiff1d(
                np.arange(spec["files"]), session.cache.uncached_files()
            )
            rng = np.random.default_rng(11)
            origins = rng.integers(0, spec["nodes"], size=200)
            files = rng.choice(cached, size=200)
            server = DispatchServer(
                session,
                flush_interval=0.002,
                snapshot_interval=0.02,
                journal=DispatchJournal.create(path, kind=kind, spec=spec, seed=1),
            )
            await server.start()
            host, port = server.address
            async with DispatchClient(host, port, key_prefix="f") as client:
                response = await client.dispatch_batch(origins, files)
            await server.shutdown()
            return response

        response = run(scenario())
        beyond = [distance > spec["radius"] for distance in response.distances]
        assert list(response.fallbacks) == beyond
        assert 0 < sum(beyond) < len(beyond)
        [(key, unit, _)] = recover_session(path).idempotency
        assert key == "f-0"
        assert unit.fallbacks.tolist() == beyond
        assert unit.distances.tolist() == list(response.distances)


class TestCoalescing:
    def test_concurrent_requests_coalesce_into_fewer_flushes(self):
        async def scenario():
            # A generous flush window guarantees the concurrent burst lands
            # in few commits (the batching the service exists to provide).
            server = await start_server("static", flush_interval=0.05)
            host, port = server.address
            async with DispatchClient(host, port, pool_size=40) as client:
                await asyncio.gather(
                    *[client.dispatch(i % NUM_NODES, i % NUM_FILES) for i in range(40)]
                )
                metrics = await client.metrics()
            await server.shutdown()
            assert metrics["dispatched"] == 40
            assert metrics["flushes"] < 40  # strictly fewer commits than requests
            assert metrics["batch_size"]["max"] >= 2
            assert metrics["dispatch_latency"]["count"] == 40

        run(scenario())

    def test_flush_max_bounds_commit_size(self):
        async def scenario():
            server = await start_server(
                "static", flush_interval=0.05, flush_max=8
            )
            host, port = server.address
            async with DispatchClient(host, port, pool_size=32) as client:
                await asyncio.gather(
                    *[client.dispatch(i % NUM_NODES, i % NUM_FILES) for i in range(32)]
                )
                metrics = await client.metrics()
            await server.shutdown()
            assert metrics["batch_size"]["max"] <= 8 + 7  # one unit may overshoot

        run(scenario())


class TestRejections:
    @pytest.mark.parametrize("kind", ["static", "queueing"])
    def test_key_reused_for_a_different_request_is_400(self, kind):
        """A key answers only retries of the request that first used it."""

        async def scenario():
            session = make_session(kind)
            cached = np.setdiff1d(np.arange(NUM_FILES), session.cache.uncached_files())
            server = DispatchServer(session, flush_interval=0.002, snapshot_interval=0.02)
            await server.start()
            host, port = server.address
            # Both clients stamp their first request with the key "p-0".
            async with DispatchClient(host, port, key_prefix="p") as first, DispatchClient(
                host, port, key_prefix="p"
            ) as second:
                await first.dispatch_batch([1, 2], cached[:2])
                with pytest.raises(DispatchServiceError) as excinfo:
                    await second.dispatch_batch([3, 4, 5], cached[2:5])
            await server.shutdown()
            assert excinfo.value.status == 400
            assert excinfo.value.error.error == "idempotency key mismatch"
            assert server.requests_dispatched == 2
            assert server.metrics.duplicates == 0

        run(scenario())

    @pytest.mark.parametrize(
        "payload",
        [
            {"origin": NUM_NODES, "file": 0},
            {"origin": 0, "file": NUM_FILES},
            {"origin": 0},
            {"origin": -1, "file": 0},
            {"origin": "zero", "file": 0},
        ],
        ids=["origin-range", "file-range", "missing-field", "negative", "non-int"],
    )
    def test_invalid_dispatch_is_400(self, payload):
        async def scenario():
            server = await start_server("static")
            host, port = server.address
            async with DispatchClient(host, port) as client:
                with pytest.raises(DispatchServiceError) as excinfo:
                    await client._request("POST", "/dispatch", payload)
                assert excinfo.value.status == 400
                # The server survives the rejection.
                response = await client.dispatch(0, 1)
                assert response.seq == 0
            await server.shutdown()

        run(scenario())

    def test_invalid_json_body_is_400(self):
        async def scenario():
            server = await start_server("static")
            host, port = server.address
            reader, writer = await asyncio.open_connection(host, port)
            body = b"this is not json"
            writer.write(
                b"POST /dispatch HTTP/1.1\r\ncontent-length: "
                + str(len(body)).encode()
                + b"\r\n\r\n"
                + body
            )
            await writer.drain()
            status_line = await reader.readline()
            assert b"400" in status_line
            writer.close()
            await writer.wait_closed()
            await server.shutdown()

        run(scenario())

    def test_unknown_path_is_404_and_wrong_method_is_405(self):
        async def scenario():
            server = await start_server("static")
            host, port = server.address
            async with DispatchClient(host, port) as client:
                with pytest.raises(DispatchServiceError) as excinfo:
                    await client._request("GET", "/nope")
                assert excinfo.value.status == 404
                with pytest.raises(DispatchServiceError) as excinfo:
                    await client._request("GET", "/dispatch")
                assert excinfo.value.status == 405
            await server.shutdown()

        run(scenario())

    def test_oversized_body_is_413(self):
        async def scenario():
            server = await start_server("static")
            host, port = server.address
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(b"POST /dispatch HTTP/1.1\r\ncontent-length: 99999999\r\n\r\n")
            await writer.drain()
            status_line = await reader.readline()
            assert b"413" in status_line
            writer.close()
            await writer.wait_closed()
            await server.shutdown()

        run(scenario())

    @pytest.mark.parametrize(
        "path, body",
        [
            ("/dispatch", b'{"origin":0,"file":1,"time":1e999}'),
            ("/dispatch", b'{"origin":0,"file":1,"time":NaN}'),
            ("/dispatch/batch", b'{"origins":[0,1],"files":[1,2],"times":[0.5,1e999]}'),
        ],
        ids=["single-inf", "single-nan", "batch-inf"],
    )
    def test_non_finite_time_is_400_and_serving_continues(self, path, body):
        # An infinite time used to move the virtual clock to infinity, after
        # which every dispatch failed; it is now refused before enqueueing.
        async def scenario():
            server = await start_server("queueing")
            host, port = server.address
            async with DispatchClient(host, port) as client:
                status, payload, _ = await client._perform("POST", path, body)
                assert status == 400
                assert payload["error"] == "protocol error"
                first = await client.dispatch(0, 1)
                second = await client.dispatch(1, 2)
            await server.shutdown()
            assert (first.seq, second.seq) == (0, 1)
            assert 0.0 < first.time < second.time

        run(scenario())

    def test_uncached_file_is_rejected_before_enqueue(self):
        async def scenario():
            # A library far larger than the total cache capacity guarantees
            # uncached files exist.
            session = CacheNetworkSession(
                topology=Torus2D(16),
                library=FileLibrary(200),
                placement=ProportionalPlacement(2),
                strategy=ProximityTwoChoiceStrategy(radius=3),
                seed=SEED,
            )
            uncached = session.cache.uncached_files()
            assert uncached.size > 0
            server = DispatchServer(session, flush_interval=0.002)
            await server.start()
            host, port = server.address
            async with DispatchClient(host, port) as client:
                with pytest.raises(DispatchServiceError) as excinfo:
                    await client.dispatch(0, int(uncached[0]))
                assert excinfo.value.status == 400
                assert "uncached" in excinfo.value.error.error
            await server.shutdown()

        run(scenario())


class TestSnapshot:
    def test_version_monotone_and_state_eventually_fresh(self):
        async def scenario():
            server = await start_server("static", snapshot_interval=0.01)
            host, port = server.address
            async with DispatchClient(host, port, pool_size=8) as client:
                first = await client.snapshot()
                assert first.version >= 1
                assert first.kind == "assignment"
                assert first.state["num_requests"] == 0
                await asyncio.gather(
                    *[client.dispatch(i % NUM_NODES, i % NUM_FILES) for i in range(8)]
                )
                # Wait out at least one publication interval.
                deadline = asyncio.get_running_loop().time() + 2.0
                while True:
                    snapshot = await client.snapshot()
                    if snapshot.state["num_requests"] == 8:
                        break
                    assert asyncio.get_running_loop().time() < deadline, (
                        "snapshot never refreshed"
                    )
                    await asyncio.sleep(0.01)
                assert snapshot.version > first.version
                assert snapshot.age_seconds >= 0.0
            await server.shutdown()

        run(scenario())

    def test_snapshot_is_stale_between_publications(self):
        async def scenario():
            # A long publication interval: the snapshot cannot see a dispatch
            # served after the first publication — by design, clients observe
            # explicit staleness instead of racing the writer.
            server = await start_server("static", snapshot_interval=30.0)
            host, port = server.address
            async with DispatchClient(host, port) as client:
                await client.dispatch(0, 1)
                snapshot = await client.snapshot()
                assert snapshot.state["num_requests"] == 0  # published pre-dispatch
                assert snapshot.version == 1
            await server.shutdown()

        run(scenario())


class TestHealthAndMetrics:
    def test_healthz_reports_shape_and_engine_availability(self):
        async def scenario():
            server = await start_server("queueing")
            host, port = server.address
            async with DispatchClient(host, port) as client:
                health = await client.healthz()
            await server.shutdown()
            assert health["status"] == "ok"
            assert health["kind"] == "queueing"
            assert health["engine"] == "batch"
            assert health["nodes"] == NUM_NODES
            assert health["files"] == NUM_FILES
            engines = health["engines"]
            assert {entry["family"] for entry in engines} == {
                "assignment",
                "queueing",
            }
            assert all("skip_reason" in entry for entry in engines)

        run(scenario())

    def test_metrics_counts_requests_and_errors(self):
        async def scenario():
            server = await start_server("static")
            host, port = server.address
            async with DispatchClient(host, port) as client:
                await client.dispatch(0, 1)
                with pytest.raises(DispatchServiceError):
                    await client._request("POST", "/dispatch", {"origin": 0})
                metrics = await client.metrics()
            await server.shutdown()
            assert metrics["requests"]["/dispatch"] == 2
            assert metrics["errors"]["400"] == 1
            assert metrics["dispatched"] == 1

        run(scenario())


class TestShutdown:
    def test_graceful_shutdown_drains_accepted_requests(self):
        async def scenario():
            # A long flush window keeps accepted requests pending in the
            # micro-batch queue while shutdown begins.
            server = await start_server("static", flush_interval=0.2)
            host, port = server.address
            client = DispatchClient(host, port, pool_size=12)
            pending = [
                asyncio.create_task(client.dispatch(i % NUM_NODES, i % NUM_FILES))
                for i in range(12)
            ]
            # Let every request reach the queue (but not flush: interval 0.2s).
            await asyncio.sleep(0.05)
            await server.shutdown()
            responses = await asyncio.gather(*pending)
            await client.close()
            # Every accepted request was answered with a real decision.
            assert sorted(r.seq for r in responses) == list(range(12))

        run(scenario())

    def test_dispatch_after_shutdown_is_refused(self):
        async def scenario():
            server = await start_server("static")
            host, port = server.address
            async with DispatchClient(host, port) as client:
                await client.dispatch(0, 1)
                await server.shutdown()
                with pytest.raises(
                    (DispatchServiceError, ConnectionError, asyncio.IncompleteReadError)
                ):
                    await client.dispatch(1, 2)

        run(scenario())

    def test_shutdown_is_idempotent(self):
        async def scenario():
            server = await start_server("static")
            await server.shutdown()
            await server.shutdown()  # second call is a no-op

        run(scenario())


#: ``repro serve`` with SIGINT ignored, as a shell starts a background job.
_SERVE_IGNORING_SIGINT = (
    "import signal, sys\n"
    "signal.signal(signal.SIGINT, signal.SIG_IGN)\n"
    "from repro.cli import main\n"
    "sys.exit(main(sys.argv[1:]))\n"
)


@contextlib.contextmanager
def serve_process(launcher, *extra):
    """A ``repro serve`` process started by ``launcher`` (interpreter
    arguments); yields it and its port once its banner is out."""
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(root / "src"), env.get("PYTHONPATH", "")])
    )
    argv = [
        sys.executable, *launcher, "serve", "--port", "0", "--nodes", str(NUM_NODES),
        "--files", str(NUM_FILES), "--cache", "3", "--seed", str(SEED), *extra,
    ]
    process = subprocess.Popen(
        argv, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, env=env
    )
    try:
        banner = process.stdout.readline()
        assert "serving" in banner, f"unexpected banner: {banner!r}"
        yield process, int(banner.split("http://", 1)[1].split()[0].rsplit(":", 1)[1])
    finally:
        if process.poll() is None:
            process.kill()
        process.wait()
        process.stdout.close()


class TestSignals:
    """Both stop signals start the graceful shutdown and exit 0."""

    def test_sigint_stops_a_server_started_with_sigint_ignored(self):
        with serve_process(["-c", _SERVE_IGNORING_SIGINT]) as (process, _):
            process.send_signal(signal.SIGINT)
            assert process.wait(timeout=10) == 0

    def test_sigterm_drains_and_closes_the_journal(self, tmp_path):
        journal = tmp_path / "wal"

        async def dispatch(port):
            async with DispatchClient("127.0.0.1", port, timeout=5.0) as client:
                return [await client.dispatch(i, i % NUM_FILES) for i in range(3)]

        with serve_process(["-m", "repro.cli"], "--journal", str(journal)) as (process, port):
            responses = run(dispatch(port))
            process.send_signal(signal.SIGTERM)
            assert process.wait(timeout=10) == 0
        recovered = recover_session(journal)
        assert recovered.next_seq == len(responses) == 3
