"""Field contracts of the two session snapshots.

The serving layer (``GET /snapshot``) and the benchmark artifacts both
consume these snapshots as stable interfaces, so their field sets, types
and cross-field invariants are pinned here:

* :meth:`CacheNetworkSession.snapshot` → :class:`SessionSnapshot` dataclass
  (loads vector + headline metrics + provenance), and
* :meth:`QueueingSession.snapshot` → plain dict (engine/windows/served_until
  plus the boundary-truncated result fields of the queueing kernel).
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.catalog.library import FileLibrary
from repro.placement.partition import PartitionPlacement
from repro.placement.proportional import ProportionalPlacement
from repro.session import CacheNetworkSession, QueueingSession
from repro.session.core import SessionSnapshot
from repro.strategies.proximity_two_choice import ProximityTwoChoiceStrategy
from repro.topology.torus import Torus2D
from repro.workload.arrivals import PoissonArrivalProcess
from repro.workload.generators import UniformOriginWorkload

SEED = 31


def make_static_session():
    return CacheNetworkSession(
        topology=Torus2D(49),
        library=FileLibrary(16),
        placement=ProportionalPlacement(3),
        strategy=ProximityTwoChoiceStrategy(radius=3),
        workload=UniformOriginWorkload(50),
        seed=SEED,
        description="contract test",
    )


def make_queueing_session():
    return QueueingSession(
        Torus2D(49),
        FileLibrary(16),
        PartitionPlacement(3),
        PoissonArrivalProcess(rate_per_node=0.6),
        radius=3.0,
        seed=SEED,
        engine="batch",
    )


class TestCacheNetworkSessionSnapshot:
    def test_fresh_session_snapshot_is_all_zeros(self):
        snapshot = make_static_session().snapshot()
        assert isinstance(snapshot, SessionSnapshot)
        assert snapshot.num_windows == 0
        assert snapshot.num_requests == 0
        assert snapshot.max_load == 0
        assert snapshot.communication_cost == 0.0
        assert snapshot.fallback_rate == 0.0
        assert snapshot.remapped_requests == 0
        assert snapshot.loads.shape == (49,)
        assert not snapshot.loads.any()

    def test_field_types_and_provenance(self):
        session = make_static_session()
        session.serve(next(session.workload_stream(num_windows=1)))
        snapshot = session.snapshot()
        assert isinstance(snapshot.num_windows, int)
        assert isinstance(snapshot.num_requests, int)
        assert isinstance(snapshot.max_load, int)
        assert isinstance(snapshot.communication_cost, float)
        assert isinstance(snapshot.fallback_rate, float)
        assert isinstance(snapshot.remapped_requests, int)
        assert snapshot.engine == session.strategy.engine
        assert snapshot.description == "contract test"
        assert snapshot.loads.dtype == np.int64

    def test_cross_field_invariants_after_serving(self):
        session = make_static_session()
        for window in session.workload_stream(num_windows=2):
            session.serve(window)
        snapshot = session.snapshot()
        assert snapshot.num_windows == 2
        assert snapshot.num_requests == 100
        # The load vector is the ground truth the headline metrics summarise.
        assert int(snapshot.loads.sum()) == snapshot.num_requests
        assert int(snapshot.loads.max()) == snapshot.max_load
        assert 0.0 <= snapshot.fallback_rate <= 1.0
        assert snapshot.communication_cost >= 0.0

    def test_loads_are_a_defensive_copy(self):
        session = make_static_session()
        windows = session.workload_stream(num_windows=2)
        session.serve(next(windows))
        snapshot = session.snapshot()
        before = snapshot.loads.copy()
        session.serve(next(windows))
        np.testing.assert_array_equal(snapshot.loads, before)

    def test_summary_is_json_safe_and_matches_fields(self):
        session = make_static_session()
        session.serve(next(session.workload_stream(num_windows=1)))
        snapshot = session.snapshot()
        summary = snapshot.summary()
        assert set(summary) == {
            "num_windows",
            "num_requests",
            "max_load",
            "communication_cost",
            "fallback_rate",
            "remapped_requests",
            "engine",
        }
        assert summary["num_requests"] == snapshot.num_requests
        assert summary["max_load"] == snapshot.max_load
        json.dumps(summary)


class TestQueueingSessionSnapshot:
    EXPECTED_KEYS = {
        "engine",
        "num_windows",
        "served_until",
        "num_arrivals",
        "num_completed",
        "max_queue_length",
        "mean_queue_length",
        "mean_waiting_time",
        "mean_sojourn_time",
        "communication_cost",
        "horizon",
    }

    def test_fresh_session_snapshot_keys_and_zeros(self):
        snapshot = make_queueing_session().snapshot()
        assert set(snapshot) == self.EXPECTED_KEYS
        assert snapshot["engine"] == "batch"
        assert snapshot["num_windows"] == 0
        assert snapshot["served_until"] == 0.0
        assert snapshot["num_arrivals"] == 0
        assert snapshot["mean_waiting_time"] == 0.0

    def test_field_values_after_serving(self):
        session = make_queueing_session()
        session.serve(until=8.0)
        snapshot = session.snapshot()
        assert set(snapshot) == self.EXPECTED_KEYS
        assert snapshot["num_windows"] == 1
        assert snapshot["served_until"] == 8.0
        assert snapshot["horizon"] == 8.0
        assert snapshot["num_arrivals"] > 0
        assert 0 <= snapshot["num_completed"] <= snapshot["num_arrivals"]
        assert snapshot["max_queue_length"] >= 1
        assert snapshot["mean_queue_length"] > 0.0
        assert snapshot["mean_sojourn_time"] >= snapshot["mean_waiting_time"] >= 0.0
        assert snapshot["communication_cost"] >= 0.0
        json.dumps(snapshot)

    def test_snapshot_is_value_not_view(self):
        session = make_queueing_session()
        session.serve(until=4.0)
        first = session.snapshot()
        session.serve(until=8.0)
        second = session.snapshot()
        # The earlier snapshot is unaffected by further serving.
        assert first["served_until"] == 4.0
        assert second["served_until"] == 8.0
        assert second["num_arrivals"] >= first["num_arrivals"]

    def test_snapshot_consistent_with_finalized_result(self):
        session = make_queueing_session()
        session.serve(until=6.0)
        snapshot = session.snapshot()
        result = session.result()
        assert snapshot["num_arrivals"] == result.num_arrivals
        assert snapshot["num_completed"] == result.num_completed
        assert snapshot["max_queue_length"] == result.max_queue_length
        assert snapshot["mean_queue_length"] == pytest.approx(
            result.mean_queue_length
        )
        assert snapshot["communication_cost"] == pytest.approx(
            result.communication_cost
        )
