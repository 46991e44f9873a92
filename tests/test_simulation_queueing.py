"""Tests for the continuous-time queueing (supermarket model) extension."""

from __future__ import annotations

import numpy as np
import pytest

from repro.catalog.library import FileLibrary
from repro.exceptions import ConfigurationError, NoReplicaError
from repro.placement.cache import CacheState
from repro.placement.full_replication import FullReplicationPlacement
from repro.placement.proportional import ProportionalPlacement
from repro.simulation.queueing import QueueingResult, QueueingSimulation
from repro.topology.torus import Torus2D
from repro.workload.arrivals import PoissonArrivalProcess


def build(radius=np.inf, num_choices=2, rate=0.5, service_rate=1.0, placement=None):
    torus = Torus2D(64)
    library = FileLibrary(30)
    return QueueingSimulation(
        topology=torus,
        library=library,
        placement=placement or ProportionalPlacement(4),
        arrivals=PoissonArrivalProcess(rate),
        service_rate=service_rate,
        radius=radius,
        num_choices=num_choices,
    )


class TestConfiguration:
    def test_invalid_service_rate(self):
        with pytest.raises(ConfigurationError):
            build(service_rate=0.0)

    def test_invalid_radius(self):
        with pytest.raises(ConfigurationError):
            build(radius=-1)

    def test_invalid_choices(self):
        with pytest.raises(ConfigurationError):
            build(num_choices=0)

    def test_invalid_horizon(self):
        with pytest.raises(ConfigurationError):
            build().run(horizon=0.0)

    def test_invalid_candidate_weights(self):
        with pytest.raises(ConfigurationError):
            QueueingSimulation(
                topology=Torus2D(64),
                library=FileLibrary(30),
                placement=ProportionalPlacement(4),
                arrivals=PoissonArrivalProcess(0.5),
                candidate_weights="distance",
            )

    def test_repr(self):
        assert "d=2" in repr(build())


class TestRun:
    def test_result_fields(self):
        result = build().run(horizon=20.0, seed=0)
        assert isinstance(result, QueueingResult)
        assert result.num_arrivals > 0
        assert 0 <= result.num_completed <= result.num_arrivals
        assert result.max_queue_length >= 1
        assert result.mean_waiting_time >= 0
        assert result.mean_sojourn_time >= result.mean_waiting_time
        assert result.communication_cost >= 0
        assert result.horizon == 20.0

    def test_deterministic(self):
        a = build().run(horizon=10.0, seed=3)
        b = build().run(horizon=10.0, seed=3)
        assert a == b

    def test_summary_dict(self):
        summary = build().run(horizon=5.0, seed=1).summary()
        assert set(summary) >= {"max_queue_length", "mean_queue_length", "communication_cost"}

    def test_stable_system_short_queues(self):
        # Light load (rho = 0.3): queues should stay very short on average.
        result = build(rate=0.3, service_rate=1.0).run(horizon=50.0, seed=2)
        assert result.mean_queue_length < 64 * 1.0  # far from saturation in total
        assert result.mean_waiting_time < 2.0

    def test_overloaded_system_builds_queues(self):
        light = build(rate=0.3).run(horizon=30.0, seed=4)
        heavy = build(rate=1.5).run(horizon=30.0, seed=4)
        assert heavy.max_queue_length > light.max_queue_length

    def test_two_choices_beat_one_choice_on_queue_length(self):
        # With full replication and moderate load, d=2 should not be worse
        # than d=1 in max queue length (statistically: compare across seeds).
        placement = FullReplicationPlacement()
        ones, twos = [], []
        for seed in range(4):
            ones.append(
                build(num_choices=1, rate=0.8, placement=placement)
                .run(horizon=40.0, seed=seed)
                .max_queue_length
            )
            twos.append(
                build(num_choices=2, rate=0.8, placement=placement)
                .run(horizon=40.0, seed=seed)
                .max_queue_length
            )
        assert np.mean(twos) <= np.mean(ones)

    def test_radius_limits_hops(self):
        result = build(radius=2, rate=0.5).run(horizon=20.0, seed=5)
        # Fallback may exceed the radius occasionally, but the mean hop count
        # must stay well below the unconstrained Theta(sqrt(n)) = 8 scale.
        unconstrained = build(radius=np.inf, rate=0.5).run(horizon=20.0, seed=5)
        assert result.communication_cost < unconstrained.communication_cost


class TestEdgeBranches:
    def test_empty_arrival_horizon(self):
        # A horizon so short that (almost surely) nothing arrives: all
        # metrics must come out as clean zeros, on both engines.
        for engine in ("batch", "reference"):
            result = build(rate=0.5).run(horizon=1e-12, seed=0, engine=engine)
            assert result.num_arrivals == 0
            assert result.num_completed == 0
            assert result.max_queue_length == 0
            assert result.mean_queue_length == 0.0
            assert result.mean_waiting_time == 0.0
            assert result.mean_sojourn_time == 0.0
            assert result.communication_cost == 0.0

    def test_more_choices_than_candidates(self):
        # d far above any replica count: every candidate is compared and the
        # sample stream is never consumed; the run must still be well-formed
        # and engine-identical.
        simulation = build(num_choices=50, rate=0.4)
        auto = simulation.run(horizon=10.0, seed=6)
        assert auto == simulation.run(horizon=10.0, seed=6, engine="reference")
        assert auto.num_arrivals > 0

    def test_no_replica_error_propagates(self):
        # File 1 exists in the library but is cached nowhere.
        class UncoveredPlacement(ProportionalPlacement):
            def place(self, topology, library, seed=None):
                return CacheState(
                    np.zeros((topology.n, 1), dtype=np.int64), num_files=2
                )

        simulation = QueueingSimulation(
            topology=Torus2D(64),
            library=FileLibrary(2),
            placement=UncoveredPlacement(1),
            arrivals=PoissonArrivalProcess(0.5),
            radius=2,
        )
        for engine in ("batch", "reference"):
            with pytest.raises(NoReplicaError):
                simulation.run(horizon=10.0, seed=0, engine=engine)

    def test_utilisation_warning_on_saturated_load(self):
        with pytest.warns(UserWarning, match="utilisation"):
            build(rate=1.0, service_rate=1.0).run(horizon=2.0, seed=0)
        with pytest.warns(UserWarning, match="utilisation"):
            build(rate=1.5, service_rate=1.0).run(horizon=2.0, seed=0)

    def test_no_warning_below_saturation(self, recwarn):
        build(rate=0.9, service_rate=1.0).run(horizon=2.0, seed=0)
        assert not [w for w in recwarn if "utilisation" in str(w.message)]

    def test_popularity_weights_run(self):
        result = build_weighted().run(horizon=10.0, seed=1)
        assert result.num_arrivals > 0
        assert result.max_queue_length >= 1


def build_weighted():
    return QueueingSimulation(
        topology=Torus2D(64),
        library=FileLibrary(30),
        placement=ProportionalPlacement(4),
        arrivals=PoissonArrivalProcess(0.5),
        radius=3,
        candidate_weights="popularity",
    )
