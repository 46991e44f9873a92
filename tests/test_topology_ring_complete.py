"""Tests for the ring and complete-graph topologies."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import TopologyError
from repro.topology.complete import CompleteTopology
from repro.topology.ring import Ring


class TestRing:
    def test_diameter(self):
        assert Ring(10).diameter == 5
        assert Ring(11).diameter == 5

    def test_distance_wraps(self):
        ring = Ring(10)
        assert ring.distance(0, 9) == 1
        assert ring.distance(0, 5) == 5

    def test_ball_linear_size(self):
        ring = Ring(101)
        for r in (0, 1, 3, 10):
            assert ring.ball_size(0, r) == 2 * r + 1
            assert ring.ball(0, r).size == 2 * r + 1

    def test_ball_contains_wrapped_nodes(self):
        ring = Ring(10)
        ball = set(ring.ball(0, 2).tolist())
        assert ball == {8, 9, 0, 1, 2}

    def test_ball_infinite_radius(self):
        ring = Ring(10)
        assert ring.ball(3, np.inf).size == 10
        assert ring.ball_size(3, np.inf) == 10

    def test_neighbors(self):
        ring = Ring(10)
        np.testing.assert_array_equal(ring.neighbors(0), [1, 9])
        np.testing.assert_array_equal(ring.neighbors(5), [4, 6])

    def test_tiny_rings(self):
        assert Ring(1).neighbors(0).size == 0
        np.testing.assert_array_equal(Ring(2).neighbors(0), [1])

    def test_negative_radius_raises(self):
        with pytest.raises(TopologyError):
            Ring(10).ball(0, -1)
        with pytest.raises(TopologyError):
            Ring(10).ball_size(0, -1)

    def test_pairwise(self):
        ring = Ring(8)
        matrix = ring.pairwise_distances(np.array([0, 4]), np.array([1, 7]))
        np.testing.assert_array_equal(matrix, [[1, 1], [3, 3]])


class TestComplete:
    def test_diameter(self):
        assert CompleteTopology(10).diameter == 1
        assert CompleteTopology(1).diameter == 0

    def test_distances(self):
        topo = CompleteTopology(5)
        assert topo.distance(0, 0) == 0
        assert topo.distance(0, 4) == 1

    def test_distances_from(self):
        topo = CompleteTopology(4)
        np.testing.assert_array_equal(topo.distances_from(2), [1, 1, 0, 1])

    def test_ball(self):
        topo = CompleteTopology(6)
        assert topo.ball(0, 0.5).size == 1
        assert topo.ball(0, 1).size == 6
        assert topo.ball_size(0, 2) == 6

    def test_neighbors_everyone_else(self):
        topo = CompleteTopology(5)
        assert topo.neighbors(2).size == 4
        assert 2 not in topo.neighbors(2)

    def test_pairwise(self):
        topo = CompleteTopology(3)
        matrix = topo.pairwise_distances(np.array([0, 1]), np.array([0, 2]))
        np.testing.assert_array_equal(matrix, [[0, 1], [1, 1]])

    def test_negative_radius_raises(self):
        with pytest.raises(TopologyError):
            CompleteTopology(5).ball(0, -0.1)
        with pytest.raises(TopologyError):
            CompleteTopology(5).ball_size(0, -0.1)
