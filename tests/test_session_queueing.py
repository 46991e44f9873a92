"""Differential and state-machine tests for the queueing session layer.

The acceptance property: serving *any* window partition of ``[0, horizon)``
through a :class:`~repro.session.queueing.QueueingSession` is bit-identical
(every :class:`~repro.simulation.queueing.QueueingResult` field exactly
equal) to the one-shot ``QueueingSimulation.run`` for the same seed and
engine — the queue state, busy-until vector and all RNG streams persist
across window boundaries, so the boundaries must be invisible to the
process.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.backends import resolve_engine_name
from repro.catalog.library import FileLibrary
from repro.exceptions import ConfigurationError, StrategyError, WorkloadError
from repro.placement.partition import PartitionPlacement
from repro.session import ArtifactCache, QueueingSession, open_queueing_session
from repro.simulation.queueing import QueueingSimulation
from repro.topology.torus import Torus2D
from repro.workload.arrivals import PoissonArrivalProcess, PoissonArrivalStream

SEED = 2026
HORIZON = 24.0

PARTITIONS = {
    "whole": [HORIZON],
    "halves": [12.0, 24.0],
    "uneven": [1.0, 2.5, 10.0, 24.0],
    "tiny_first": [0.01, 24.0],
    "many": [2.0 * i for i in range(1, 13)],
}


def _components():
    return (
        Torus2D(64),
        FileLibrary(20),
        PartitionPlacement(3),
        PoissonArrivalProcess(rate_per_node=0.6),
    )


def _session(radius=3.0, engine="batch", artifacts=None, **kwargs):
    topology, library, placement, arrivals = _components()
    return QueueingSession(
        topology,
        library,
        placement,
        arrivals,
        radius=radius,
        seed=SEED,
        engine=engine,
        artifacts=artifacts,
        **kwargs,
    )


def _one_shot(radius=3.0, engine="batch", **kwargs):
    topology, library, placement, arrivals = _components()
    return QueueingSimulation(
        topology=topology,
        library=library,
        placement=placement,
        arrivals=arrivals,
        radius=radius,
        **kwargs,
    ).run(HORIZON, seed=SEED, engine=engine)


#: The built-in engines (``batch`` runs the pure-Python event loop).
WINDOW_ENGINES = ["batch", "reference"]


@pytest.mark.parametrize("partition", PARTITIONS.values(), ids=PARTITIONS.keys())
@pytest.mark.parametrize("engine", WINDOW_ENGINES)
class TestWindowPartitionDifferential:
    def test_windowed_bit_identical_to_one_shot(self, engine, partition):
        one_shot = _one_shot(engine=engine)
        session = _session(engine=engine)
        for until in partition:
            session.serve(until)
        assert session.num_windows == len(partition)
        assert session.result() == one_shot

    def test_unconstrained_windowed_bit_identical(self, engine, partition):
        one_shot = _one_shot(radius=np.inf, engine=engine)
        session = _session(radius=np.inf, engine=engine)
        for until in partition:
            session.serve(until)
        assert session.result() == one_shot

    def test_three_choice_windowed_bit_identical(self, engine, partition):
        # d = 3 keeps the event loop off its d = 2 fast path, so the
        # variable-width route must carry the state across the boundaries.
        one_shot = _one_shot(engine=engine, num_choices=3)
        session = _session(engine=engine, num_choices=3)
        for until in partition:
            session.serve(until)
        assert session.result() == one_shot


def test_engines_agree_through_windows():
    batch = _session(engine="batch")
    reference = _session(engine="reference")
    for until in (3.0, 9.5, 24.0):
        batch.serve(until)
        reference.serve(until)
        assert batch.result() == reference.result()


def test_weighted_windowed_bit_identical():
    one_shot = _one_shot(candidate_weights="popularity")
    session = _session(candidate_weights="popularity")
    for until in (5.0, 24.0):
        session.serve(until)
    assert session.result() == one_shot


class TestSessionStateMachine:
    def test_reset_replays_identically(self):
        session = _session()
        first = session.serve(10.0)
        session.reset()
        assert session.num_windows == 0
        assert session.num_arrivals_served == 0
        assert session.served_until == 0.0
        replayed = session.serve(10.0)
        assert replayed.result == first.result

    def test_window_results_expose_window_and_cumulative(self):
        session = _session()
        first = session.serve(8.0)
        second = session.serve(16.0)
        assert (first.window_start, first.window_end) == (0.0, 8.0)
        assert (second.window_start, second.window_end) == (8.0, 16.0)
        assert first.window_index == 0 and second.window_index == 1
        assert second.result.num_arrivals == (
            first.window_arrivals + second.window_arrivals
        )
        assert second.result.num_completed == (
            first.window_completed + second.window_completed
        )
        assert second.summary()["window"] == 1.0
        assert "arrivals=" in repr(first)

    def test_serve_windows_slices_evenly(self):
        session = _session()
        results = list(session.serve_windows(window=6.0, num_windows=4))
        assert [w.window_end for w in results] == [6.0, 12.0, 18.0, 24.0]
        assert session.served_until == 24.0

    def test_empty_window_is_served(self):
        session = _session()
        session.serve(10.0)
        quiet = session.serve(10.0 + 1e-9)  # almost surely no arrivals
        assert quiet.window_arrivals == 0
        session.serve(20.0)
        assert session.result() == _session_result_upto_20()

    def test_serve_rejects_non_monotone_or_invalid(self):
        session = _session()
        session.serve(5.0)
        with pytest.raises(ConfigurationError):
            session.serve(5.0)
        with pytest.raises(ConfigurationError):
            session.serve(4.0)
        with pytest.raises(ConfigurationError):
            session.serve(np.inf)
        with pytest.raises(ConfigurationError):
            list(session.serve_windows(window=0.0, num_windows=1))
        with pytest.raises(ConfigurationError):
            list(session.serve_windows(window=1.0, num_windows=0))

    def test_invalid_parameters_rejected(self):
        topology, library, placement, arrivals = _components()
        with pytest.raises(ConfigurationError):
            QueueingSession(topology, library, placement, arrivals, service_rate=0.0)
        with pytest.raises(ConfigurationError):
            QueueingSession(topology, library, placement, arrivals, radius=-1.0)
        with pytest.raises(ConfigurationError):
            QueueingSession(topology, library, placement, arrivals, num_choices=0)
        with pytest.raises(ConfigurationError):
            QueueingSession(
                topology, library, placement, arrivals, candidate_weights="distance"
            )
        with pytest.raises(StrategyError):
            QueueingSession(topology, library, placement, arrivals, engine="warp")

    def test_state_accessors(self):
        session = _session()
        session.serve(12.0)
        queues = session.queue_lengths()
        busy = session.busy_until()
        assert queues.shape == (64,) and queues.min() >= 0
        assert busy.shape == (64,) and busy.max() > 0.0
        assert "served_until=12" in repr(session)

    def test_utilisation_warning(self):
        topology, library, placement, _ = _components()
        with pytest.warns(UserWarning, match="utilisation"):
            QueueingSession(
                topology,
                library,
                placement,
                PoissonArrivalProcess(rate_per_node=1.0),
                service_rate=1.0,
            )


def _session_result_upto_20():
    session = _session()
    session.serve(20.0)
    return session.result()


class TestArtifactReuse:
    def test_group_store_warms_across_windows(self):
        artifacts = ArtifactCache()
        session = _session(artifacts=artifacts)
        for until in (6.0, 12.0, 18.0, 24.0):
            session.serve(until)
        stats = artifacts.stats()
        assert stats["group_hits"] > 0

    def test_reference_engine_requests_no_store(self):
        artifacts = ArtifactCache()
        session = _session(engine="reference", artifacts=artifacts)
        for until in (6.0, 12.0):
            session.serve(until)
        assert artifacts.stats()["stores"] == 0

    def test_no_store_for_unconstrained_radius(self):
        artifacts = ArtifactCache()
        session = _session(radius=np.inf, artifacts=artifacts)
        session.serve(6.0)
        # Unconstrained windows alias the cache's file index and read no store.
        assert artifacts.stats()["stores"] == 0

    def test_no_store_when_radius_covers_the_diameter(self):
        artifacts = ArtifactCache()
        diameter = float(_components()[0].diameter)
        session = _session(radius=diameter, artifacts=artifacts)
        session.serve(HORIZON)
        # Every ball holds the whole torus, so windows alias the file index
        # as at r = inf, and serve the same arrivals the same way.
        assert artifacts.stats()["stores"] == 0
        unconstrained = _session(radius=np.inf)
        unconstrained.serve(HORIZON)
        assert session.result() == unconstrained.result()

    def test_shared_artifacts_do_not_change_results(self):
        artifacts = ArtifactCache()
        baseline = _one_shot()
        for _ in range(2):  # second session hits the memoised group rows
            session = _session(artifacts=artifacts)
            session.serve(HORIZON)
            assert session.result() == baseline
        assert artifacts.stats()["group_hits"] > 0

    def test_sweep_points_share_placement_and_rows(self):
        artifacts = ArtifactCache()
        topology, library, placement, arrivals = _components()
        for num_choices in (1, 2):
            QueueingSimulation(
                topology=topology,
                library=library,
                placement=placement,
                arrivals=arrivals,
                radius=3.0,
                num_choices=num_choices,
                artifacts=artifacts,
            ).run(10.0, seed=SEED)
        stats = artifacts.stats()
        assert stats["placement_hits"] >= 1
        assert stats["group_hits"] > 0


class TestArrivalStream:
    def test_partition_invariant(self):
        topology, library, _, arrivals = _components()
        whole = arrivals.stream(topology, library, seed=1).take_until(20.0)
        split = arrivals.stream(topology, library, seed=1)
        parts = [split.take_until(t) for t in (0.5, 7.0, 7.0, 20.0)]
        for idx in range(3):
            merged = np.concatenate([p[idx] for p in parts])
            np.testing.assert_array_equal(whole[idx], merged)

    def test_times_sorted_and_bounded(self):
        topology, library, _, arrivals = _components()
        stream = arrivals.stream(topology, library, seed=2)
        times, origins, files = stream.take_until(10.0)
        assert times.size > 0
        assert np.all(np.diff(times) >= 0)
        assert times.max() < 10.0 and times.min() > 0.0
        assert origins.min() >= 0 and origins.max() < topology.n
        assert files.min() >= 0 and files.max() < library.num_files
        assert stream.cursor == 10.0

    def test_take_until_monotone_required(self):
        topology, library, _, arrivals = _components()
        stream = arrivals.stream(topology, library, seed=3)
        stream.take_until(5.0)
        with pytest.raises(WorkloadError):
            stream.take_until(4.0)
        with pytest.raises(WorkloadError):
            stream.take_until(np.inf)

    def test_base_process_stream_not_implemented(self):
        from repro.workload.arrivals import ArrivalProcess

        class CustomProcess(ArrivalProcess):
            def generate(self, topology, library, horizon, seed=None):
                return []

        topology, library, _, _ = _components()
        with pytest.raises(NotImplementedError):
            CustomProcess().stream(topology, library, seed=0)

    def test_stream_matches_poisson_rate(self):
        topology, library, _, _ = _components()
        stream = PoissonArrivalStream(topology, library, 0.5, seed=4)
        times, _, _ = stream.take_until(50.0)
        expected = 0.5 * topology.n * 50.0
        assert 0.8 * expected < times.size < 1.2 * expected


class TestOpenQueueingSession:
    def test_open_matches_constructor(self):
        topology, library, placement, arrivals = _components()
        opened = open_queueing_session(
            topology, library, placement, arrivals, seed=SEED, radius=3.0
        )
        opened.serve(HORIZON)
        # _one_shot pins the batch engine, so this equality also holds the
        # auto-resolved engine to the bit-identity contract.
        assert opened.result() == _one_shot()
        assert opened.engine == resolve_engine_name("auto", "queueing")
