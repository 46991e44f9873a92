"""Seeded chaos against a live dispatch server: degradation + idempotency.

Two scenario families, both ending in hard assertions rather than "it
mostly worked":

* **Graceful degradation** — :class:`ServerChaos` wedges the writer past
  the watchdog deadline; the server must flip to snapshot-only reads
  (dispatches 503 with ``Retry-After``, ``/healthz`` says ``degraded``,
  ``/metrics`` counts the rejections) and recover the moment a flush
  completes.
* **The idempotency gate** — a :class:`ChaosClient` duplicates and drops
  deliveries under a seeded RNG while retrying with idempotency keys; the
  committed stream must stay gapless (every seq exactly once) and the
  session fingerprint must equal a duplicate-free reference run, i.e.
  rejected duplicates never touched the strategy RNG streams.
"""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro.catalog.library import FileLibrary
from repro.placement.proportional import ProportionalPlacement
from repro.service import (
    ChaosClient,
    DispatchClient,
    DispatchServer,
    DispatchServiceError,
    ServerChaos,
)
from repro.session import CacheNetworkSession
from repro.strategies.proximity_two_choice import ProximityTwoChoiceStrategy
from repro.topology.torus import Torus2D

SEED = 1789
NUM_NODES = 49
NUM_FILES = 20


def make_session():
    return CacheNetworkSession(
        topology=Torus2D(NUM_NODES),
        library=FileLibrary(NUM_FILES),
        placement=ProportionalPlacement(3),
        strategy=ProximityTwoChoiceStrategy(radius=3),
        seed=SEED,
    )


def run(coro):
    return asyncio.run(coro)


class TestGracefulDegradation:
    def test_watchdog_degrades_and_recovers(self):
        async def scenario():
            chaos = ServerChaos(stall_after_batches=0, stall_seconds=0.6)
            server = DispatchServer(
                make_session(),
                flush_interval=0.001,
                snapshot_interval=0.02,
                watchdog=0.1,
                chaos=chaos,
            )
            await server.start()
            host, port = server.address
            try:
                async with DispatchClient(host, port, timeout=5.0) as client:
                    # The first dispatch wedges the writer for 0.6s; the
                    # watchdog (deadline 0.1s) must degrade the server while
                    # it is stuck.
                    stuck = asyncio.create_task(client.dispatch(0, 0))
                    await asyncio.sleep(0.3)
                    assert server.degraded
                    health = await client.healthz()
                    assert health["status"] == "degraded"
                    with pytest.raises(DispatchServiceError) as info:
                        await client.dispatch(1, 1)
                    assert info.value.status == 503
                    assert info.value.retry_after is not None
                    assert info.value.retry_after >= 1
                    metrics = await client.metrics()
                    assert metrics["degraded_rejections"] == 1

                    # The stalled flush eventually completes and clears the
                    # condition — no restart required.
                    response = await stuck
                    assert response.seq == 0
                    assert not server.degraded
                    health = await client.healthz()
                    assert health["status"] == "ok"
                    assert chaos.stalls_injected >= 1
            finally:
                await server.shutdown()

        run(scenario())

    def test_no_watchdog_means_no_degradation(self):
        async def scenario():
            server = DispatchServer(
                make_session(), flush_interval=0.001, snapshot_interval=0.02
            )
            await server.start()
            host, port = server.address
            try:
                async with DispatchClient(host, port) as client:
                    await client.dispatch(0, 0)
                    assert not server.degraded
                    assert (await client.healthz())["status"] == "ok"
            finally:
                await server.shutdown()

        run(scenario())


class TestIdempotencyGate:
    NUM_REQUESTS = 40

    def workload(self):
        rng = np.random.default_rng(11)
        origins = rng.integers(0, NUM_NODES, size=self.NUM_REQUESTS)
        files = rng.integers(0, NUM_FILES, size=self.NUM_REQUESTS)
        return origins, files

    def test_duplicates_and_drops_commit_exactly_once(self):
        """Chaos deliveries + keyed retries: gapless seqs, untouched RNG."""

        async def scenario():
            session = make_session()
            server = DispatchServer(
                session, flush_interval=0.001, snapshot_interval=0.02
            )
            await server.start()
            host, port = server.address
            origins, files = self.workload()
            try:
                async with ChaosClient(
                    host,
                    port,
                    chaos_seed=5,
                    duplicate_rate=0.3,
                    drop_rate=0.25,
                    key_prefix="chaos",
                    retries=8,
                    backoff=0.001,
                ) as client:
                    seqs = []
                    for origin, file_id in zip(origins, files):
                        response = await client.dispatch(int(origin), int(file_id))
                        seqs.append(response.seq)
                    assert client.duplicates_injected > 0
                    assert client.drops_injected > 0
            finally:
                await server.shutdown()

            # Exactly-once: the awaited-sequential stream is gapless even
            # though the wire carried duplicates and retried deliveries.
            assert seqs == list(range(self.NUM_REQUESTS))
            assert server.requests_dispatched == self.NUM_REQUESTS
            assert server.metrics.duplicates > 0

            # The fingerprint gate: a duplicate-free offline run over the
            # same stream must land on the identical session state — the
            # rejected deliveries never advanced the RNG streams.
            reference = make_session()
            for origin, file_id in zip(origins, files):
                reference.dispatch_batch(
                    np.asarray([origin], dtype=np.int64),
                    np.asarray([file_id], dtype=np.int64),
                )
            assert session.state_digest() == reference.state_digest()

        run(scenario())

    def test_concurrent_duplicate_awaits_original(self):
        """A racing duplicate shares the original's payload, not a new commit."""

        async def scenario():
            session = make_session()
            server = DispatchServer(
                session, flush_interval=0.02, snapshot_interval=0.05
            )
            await server.start()
            host, port = server.address
            try:
                async with DispatchClient(host, port, key_prefix="dup") as a, \
                        DispatchClient(host, port, key_prefix="dup") as b:
                    # Same key from two connections, in flight concurrently.
                    first, second = await asyncio.gather(
                        a.dispatch(3, 4), b.dispatch(3, 4)
                    )
                    assert first.seq == second.seq
                    assert first.server == second.server
            finally:
                await server.shutdown()
            assert server.requests_dispatched == 1
            assert server.metrics.duplicates == 1

        run(scenario())

    def test_retry_is_shaped_for_its_endpoint(self):
        """A key names one committed unit: a retry gets it in the shape of the
        endpoint the retry arrived on, and a single dispatch cannot claim a
        key that named a client batch of several requests."""

        async def scenario():
            server = DispatchServer(
                make_session(), flush_interval=0.001, snapshot_interval=0.02
            )
            await server.start()
            host, port = server.address
            single = {"origin": 3, "file": 4, "key": "s"}
            single_as_batch = {"origins": [3], "files": [4], "key": "s"}
            batch = {"origins": [1, 2], "files": [5, 6], "key": "b"}
            try:
                async with DispatchClient(host, port) as client:
                    first = await client._request("POST", "/dispatch", single)
                    retried = await client._request(
                        "POST", "/dispatch/batch", single_as_batch
                    )
                    await client._request("POST", "/dispatch/batch", batch)
                    with pytest.raises(DispatchServiceError) as excinfo:
                        await client._request(
                            "POST", "/dispatch", {"origin": 1, "file": 5, "key": "b"}
                        )
            finally:
                await server.shutdown()
            assert retried == {
                "servers": [first["server"]],
                "distances": [first["distance"]],
                "fallbacks": [first["fallback"]],
                "seq_start": first["seq"],
            }
            assert excinfo.value.status == 400
            assert excinfo.value.error.error == "idempotency key mismatch"
            assert server.requests_dispatched == 3

        run(scenario())

    def test_unkeyed_duplicates_double_commit(self):
        """The counterfactual: without keys, redelivery really does commit twice."""

        async def scenario():
            server = DispatchServer(
                make_session(), flush_interval=0.001, snapshot_interval=0.02
            )
            await server.start()
            host, port = server.address
            try:
                async with DispatchClient(host, port) as client:
                    first = await client.dispatch(3, 4)
                    second = await client.dispatch(3, 4)
                    assert first.seq != second.seq
            finally:
                await server.shutdown()
            assert server.requests_dispatched == 2

        run(scenario())
