"""State-plumbing tests: snapshot publication and micro-batch coalescing.

The two service invariants under test, without any HTTP involved:

* snapshot versions increase strictly monotonically and ``age`` reflects the
  injected clock (so ``GET /snapshot`` staleness is honest), and
* the micro-batch queue coalesces whatever is pending up to ``flush_max``,
  honours the flush deadline, and drains — never drops — accepted work
  across ``close()``.
"""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro.catalog.library import FileLibrary
from repro.placement.partition import PartitionPlacement
from repro.placement.proportional import ProportionalPlacement
from repro.service.state import (
    IdempotencyIndex,
    MicroBatchQueue,
    PendingDispatch,
    SnapshotPublisher,
    session_kind,
    session_state_payload,
)
from repro.session import CacheNetworkSession, QueueingSession
from repro.strategies.proximity_two_choice import ProximityTwoChoiceStrategy
from repro.topology.torus import Torus2D
from repro.workload.arrivals import PoissonArrivalProcess

SEED = 404


def make_static_session():
    return CacheNetworkSession(
        topology=Torus2D(36),
        library=FileLibrary(12),
        placement=ProportionalPlacement(3),
        strategy=ProximityTwoChoiceStrategy(radius=3),
        seed=SEED,
    )


def make_queueing_session():
    return QueueingSession(
        Torus2D(36),
        FileLibrary(12),
        PartitionPlacement(3),
        PoissonArrivalProcess(rate_per_node=0.5),
        radius=3.0,
        seed=SEED,
        engine="batch",
    )


def unit(origins, files):
    future = asyncio.get_running_loop().create_future()
    return PendingDispatch(
        origins=np.asarray(origins, dtype=np.int64),
        files=np.asarray(files, dtype=np.int64),
        times=None,
        future=future,
    )


class TestSessionKind:
    def test_recognises_both_session_types(self):
        assert session_kind(make_static_session()) == "assignment"
        assert session_kind(make_queueing_session()) == "queueing"

    def test_rejects_other_objects(self):
        with pytest.raises(TypeError):
            session_kind(object())


class TestSessionStatePayload:
    def test_static_payload_tracks_served_requests(self):
        import json

        session = make_static_session()
        before = session_state_payload(session)
        assert before["num_requests"] == 0
        assert before["num_nodes"] == 36
        session.dispatch_batch([0, 1, 2], [1, 2, 3])
        after = session_state_payload(session)
        assert after["num_requests"] == 3
        assert after["max_load"] >= 1
        assert after["mean_load"] == pytest.approx(3 / 36)
        json.dumps(after)  # must be JSON-safe

    def test_queueing_payload_reports_live_queue_occupancy(self):
        import json

        session = make_queueing_session()
        payload = session_state_payload(session)
        assert payload["num_nodes"] == 36
        assert payload["queue_now_max"] == 0
        assert "engine" not in payload  # recorded once, top level
        session.dispatch_batch([0, 1, 2, 3], [1, 2, 3, 4])
        payload = session_state_payload(session)
        assert payload["num_arrivals"] == 4
        assert payload["queue_now_total"] >= 1
        json.dumps(payload)


class TestSnapshotPublisher:
    def test_versions_increase_strictly_monotonically(self):
        publisher = SnapshotPublisher(make_static_session())
        versions = [publisher.current.version]
        for _ in range(4):
            versions.append(publisher.refresh().version)
        assert versions == sorted(set(versions))
        assert versions[0] == 1  # construction publishes the first snapshot

    def test_age_follows_injected_clock(self):
        clock = {"now": 100.0}
        publisher = SnapshotPublisher(make_static_session(), clock=lambda: clock["now"])
        snapshot = publisher.current
        assert snapshot.age(100.0) == 0.0
        clock["now"] = 100.75
        assert snapshot.age(publisher.now()) == pytest.approx(0.75)
        # A refresh resets the age.
        assert publisher.refresh().age(publisher.now()) == 0.0

    def test_snapshot_is_immutable_while_session_advances(self):
        session = make_static_session()
        publisher = SnapshotPublisher(session)
        stale = publisher.current
        session.dispatch_batch([0, 1], [1, 2])
        # The already-published snapshot still shows the old state...
        assert stale.state["num_requests"] == 0
        # ...until a refresh publishes a new one.
        assert publisher.refresh().state["num_requests"] == 2

    def test_response_carries_version_age_engine_kind(self):
        clock = {"now": 5.0}
        publisher = SnapshotPublisher(
            make_queueing_session(), clock=lambda: clock["now"]
        )
        clock["now"] = 5.5
        response = publisher.current.response(publisher.now())
        assert response.version == 1
        assert response.age_seconds == pytest.approx(0.5)
        assert response.kind == "queueing"
        assert response.engine == "batch"
        assert "wall_time" in response.state


class TestMicroBatchQueue:
    def run(self, coro):
        return asyncio.run(coro)

    def test_coalesces_pending_units_into_one_batch(self):
        async def scenario():
            queue = MicroBatchQueue(flush_interval=0.01, flush_max=512)
            for index in range(5):
                queue.put(unit([index], [index]))
            batch = await queue.collect()
            assert batch is not None
            assert len(batch) == 5  # one batch, arrival order
            assert [int(item.origins[0]) for item in batch] == list(range(5))

        self.run(scenario())

    def test_flush_max_splits_oversized_backlog(self):
        async def scenario():
            queue = MicroBatchQueue(flush_interval=0.0, flush_max=4)
            for index in range(10):
                queue.put(unit([index], [index]))
            sizes = []
            for _ in range(3):
                batch = await queue.collect()
                sizes.append(sum(len(item) for item in batch))
            assert sizes == [4, 4, 2]

        self.run(scenario())

    def test_flush_max_counts_requests_not_units(self):
        async def scenario():
            queue = MicroBatchQueue(flush_interval=0.0, flush_max=4)
            queue.put(unit([0, 1, 2], [0, 1, 2]))
            queue.put(unit([3, 4, 5], [3, 4, 5]))
            batch = await queue.collect()
            # The first unit already holds 3 requests; adding the second
            # reaches flush_max=4 (total 6 >= 4) and stops collection there.
            assert sum(len(item) for item in batch) == 6

        self.run(scenario())

    def test_flush_interval_bounds_waiting_for_stragglers(self):
        async def scenario():
            queue = MicroBatchQueue(flush_interval=0.02, flush_max=512)
            queue.put(unit([0], [0]))

            async def straggler():
                await asyncio.sleep(0.005)
                queue.put(unit([1], [1]))

            task = asyncio.create_task(straggler())
            batch = await queue.collect()
            await task
            # The straggler arrived inside the flush window → same batch.
            assert len(batch) == 2

        self.run(scenario())

    def test_close_drains_then_signals_none(self):
        async def scenario():
            queue = MicroBatchQueue(flush_interval=0.0, flush_max=2)
            for index in range(3):
                queue.put(unit([index], [index]))
            queue.close()
            first = await queue.collect()
            second = await queue.collect()
            assert sum(len(item) for item in first) == 2
            assert sum(len(item) for item in second) == 1
            assert await queue.collect() is None
            # The terminal signal is sticky.
            assert await queue.collect() is None

        self.run(scenario())

    def test_put_after_close_raises(self):
        async def scenario():
            queue = MicroBatchQueue()
            queue.close()
            with pytest.raises(RuntimeError):
                queue.put(unit([0], [0]))

        self.run(scenario())

    def test_close_marker_mid_batch_does_not_strand_work(self):
        async def scenario():
            queue = MicroBatchQueue(flush_interval=0.0, flush_max=512)
            queue.put(unit([0], [0]))
            queue.close()
            batch = await queue.collect()
            assert len(batch) == 1  # the close marker was re-posted, not eaten
            assert await queue.collect() is None

        self.run(scenario())

    def test_rejects_invalid_construction(self):
        with pytest.raises(ValueError):
            MicroBatchQueue(flush_interval=-0.1)
        with pytest.raises(ValueError):
            MicroBatchQueue(flush_max=0)


class TestMicroBatchQueueShutdownEdges:
    """Graceful-shutdown races: every accepted unit is answered exactly once."""

    def run(self, coro):
        return asyncio.run(coro)

    def test_shutdown_mid_commit_drains_every_accepted_unit(self):
        """Close lands while the writer is mid-flush; nothing is stranded."""

        async def scenario():
            queue = MicroBatchQueue(flush_interval=0.0, flush_max=2)
            accepted = [unit([i], [i]) for i in range(5)]
            for item in accepted:
                queue.put(item)
            answered = 0
            # Writer loop: the close() arrives between two collect() calls,
            # exactly as DispatchServer.shutdown interleaves with _writer_loop.
            while True:
                batch = await queue.collect()
                if batch is None:
                    break
                for item in batch:
                    item.future.set_result(answered)
                    answered += 1
                if not queue.closed:
                    queue.close()
            assert answered == 5
            assert all(item.future.done() for item in accepted)
            # Each future resolved exactly once, in arrival order.
            assert [item.future.result() for item in accepted] == list(range(5))

        self.run(scenario())

    def test_enqueue_racing_drain(self):
        """Puts racing the writer's collect loop are either answered or rejected."""

        async def scenario():
            queue = MicroBatchQueue(flush_interval=0.001, flush_max=4)
            answered: list[int] = []
            rejected: list[int] = []

            async def writer():
                while True:
                    batch = await queue.collect()
                    if batch is None:
                        return
                    for item in batch:
                        item.future.set_result(None)

            async def producer(index):
                await asyncio.sleep(0.0005 * index)
                try:
                    queue.put(unit([index], [index]))
                except RuntimeError:
                    rejected.append(index)
                    return
                answered.append(index)

            writer_task = asyncio.create_task(writer())
            producers = [asyncio.create_task(producer(i)) for i in range(20)]
            await asyncio.sleep(0.004)
            queue.close()
            await asyncio.gather(*producers)
            await writer_task
            # The accounting is total: every producer either got in (and its
            # unit was collected) or was crisply refused — no silent drops.
            assert sorted(answered + rejected) == list(range(20))
            assert len(answered) >= 1

        self.run(scenario())

    def test_oldest_pending_age_tracks_queue_head(self):
        async def scenario():
            queue = MicroBatchQueue(flush_interval=0.0)
            loop = asyncio.get_running_loop()
            assert queue.oldest_pending_age(loop.time()) == 0.0
            item = unit([0], [0])
            item.enqueued_at = loop.time() - 1.5
            queue.put(item)
            assert queue.oldest_pending_age(loop.time()) >= 1.5
            await queue.collect()
            assert queue.oldest_pending_age(loop.time()) == 0.0

        self.run(scenario())


class TestIdempotencyIndex:
    #: The (origins, files) a key was first used for.
    REQUEST = (np.array([1, 2]), np.array([3, 4]))

    def run(self, coro):
        return asyncio.run(coro)

    def test_begin_finish_lookup(self):
        async def scenario():
            index = IdempotencyIndex()
            assert index.lookup("k") is None
            future = index.begin("k", self.REQUEST)
            state, pending, request = index.lookup("k")
            assert state == "pending" and pending is future
            assert request is self.REQUEST
            index.finish("k", {"seq": 7})
            assert index.lookup("k") == ("done", {"seq": 7}, self.REQUEST)
            assert future.result() == {"seq": 7}

        self.run(scenario())

    def test_fail_drops_key_for_clean_retry(self):
        async def scenario():
            index = IdempotencyIndex()
            index.begin("k", self.REQUEST)
            index.fail("k", RuntimeError("boom"))
            assert index.lookup("k") is None  # a retry re-attempts cleanly

        self.run(scenario())

    def test_forget_cancels_waiters(self):
        async def scenario():
            index = IdempotencyIndex()
            future = index.begin("k", self.REQUEST)
            index.forget("k")
            assert future.cancelled()
            assert index.lookup("k") is None

        self.run(scenario())

    def test_capacity_evicts_oldest_done_only(self):
        async def scenario():
            index = IdempotencyIndex(capacity=2)
            index.begin("inflight", self.REQUEST)
            index.begin("a", self.REQUEST)
            index.finish("a", {"seq": 0})
            index.begin("b", self.REQUEST)
            index.finish("b", {"seq": 1})
            # "a" (oldest done) was evicted; the pending entry survived even
            # though it is older — evicting it would allow a re-commit.
            assert index.lookup("a") is None
            assert index.lookup("inflight") is not None
            assert index.lookup("b")[:2] == ("done", {"seq": 1})

        self.run(scenario())

    def test_preload_restores_recovered_entries(self):
        async def scenario():
            index = IdempotencyIndex()
            index.preload([("x", {"seq": 0}, self.REQUEST), ("y", {"seq": 1}, self.REQUEST)])
            assert index.lookup("x") == ("done", {"seq": 0}, self.REQUEST)
            assert index.lookup("y") == ("done", {"seq": 1}, self.REQUEST)
            assert len(index) == 2

        self.run(scenario())

    def test_rejects_invalid_capacity(self):
        with pytest.raises(ValueError):
            IdempotencyIndex(capacity=0)
