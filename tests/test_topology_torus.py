"""Tests for the 2-D torus topology."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import TopologyError
from repro.topology.neighborhood import ball_size_torus
from repro.topology.torus import Torus2D


class TestConstruction:
    def test_from_n(self):
        torus = Torus2D(49)
        assert torus.n == 49
        assert torus.side == 7

    def test_from_side(self):
        torus = Torus2D.from_side(6)
        assert torus.n == 36
        assert torus.side == 6

    def test_non_square_raises(self):
        with pytest.raises(TopologyError):
            Torus2D(50)

    def test_non_positive_raises(self):
        with pytest.raises(TopologyError):
            Torus2D(0)

    def test_from_side_non_positive_raises(self):
        with pytest.raises(TopologyError):
            Torus2D.from_side(0)

    def test_len_and_repr(self):
        torus = Torus2D(16)
        assert len(torus) == 16
        assert "Torus2D" in repr(torus)

    def test_equality_and_hash(self):
        assert Torus2D(25) == Torus2D(25)
        assert Torus2D(25) != Torus2D(36)
        assert hash(Torus2D(25)) == hash(Torus2D(25))


class TestCoordinates:
    def test_node_numbering(self):
        torus = Torus2D(25)
        x, y = torus.coordinates(7)
        assert (int(x), int(y)) == (2, 1)

    def test_node_at_inverse(self):
        torus = Torus2D(36)
        for node in range(36):
            x, y = torus.coordinates(node)
            assert torus.node_at(int(x), int(y)) == node

    def test_node_at_wraps(self):
        torus = Torus2D(25)
        assert torus.node_at(5, 0) == torus.node_at(0, 0)
        assert torus.node_at(-1, 0) == torus.node_at(4, 0)

    def test_all_coordinates(self):
        torus = Torus2D(16)
        x, y = torus.coordinates()
        assert x.shape == (16,) and y.shape == (16,)
        assert x.max() == 3 and y.max() == 3


class TestDistances:
    def test_distance_to_self_zero(self):
        torus = Torus2D(100)
        assert torus.distance(37, 37) == 0

    def test_adjacent_distance(self):
        torus = Torus2D(100)
        assert torus.distance(0, 1) == 1
        assert torus.distance(0, 10) == 1

    def test_wraparound_distance(self):
        torus = Torus2D(100)
        assert torus.distance(0, 9) == 1  # x wrap
        assert torus.distance(0, 90) == 1  # y wrap

    def test_diameter(self):
        assert Torus2D(100).diameter == 10
        assert Torus2D(81).diameter == 8

    def test_distance_never_exceeds_diameter(self):
        torus = Torus2D(49)
        rng = np.random.default_rng(0)
        nodes = rng.integers(0, 49, size=(50, 2))
        for u, v in nodes:
            assert torus.distance(int(u), int(v)) <= torus.diameter

    def test_distances_from_all(self):
        torus = Torus2D(25)
        dist = torus.distances_from(0)
        assert dist.shape == (25,)
        assert dist[0] == 0
        assert dist.max() <= torus.diameter

    def test_distances_from_targets(self):
        torus = Torus2D(25)
        dist = torus.distances_from(0, np.array([1, 5, 24]))
        np.testing.assert_array_equal(dist, [1, 1, 2])

    def test_pairwise_matches_distance(self):
        torus = Torus2D(36)
        a = np.array([0, 7, 35])
        b = np.array([1, 2, 3, 4])
        matrix = torus.pairwise_distances(a, b)
        for i, u in enumerate(a):
            for j, v in enumerate(b):
                assert matrix[i, j] == torus.distance(int(u), int(v))

    def test_invalid_node_raises(self):
        torus = Torus2D(25)
        with pytest.raises(TopologyError):
            torus.distance(0, 25)
        with pytest.raises(TopologyError):
            torus.distances_from(-1)


class TestBalls:
    def test_ball_radius_zero(self):
        torus = Torus2D(100)
        np.testing.assert_array_equal(torus.ball(42, 0), [42])

    def test_ball_radius_one_is_neighbors_plus_self(self):
        torus = Torus2D(100)
        ball = torus.ball(0, 1)
        assert ball.size == 5
        assert 0 in ball

    def test_ball_size_formula(self):
        torus = Torus2D(225)  # side 15
        for r in range(0, 7):
            assert torus.ball(17, r).size == 2 * r * (r + 1) + 1
            assert torus.ball_size(17, r) == 2 * r * (r + 1) + 1

    def test_ball_matches_distance_scan(self):
        torus = Torus2D(49)
        for r in (0, 1, 2, 3):
            expected = np.flatnonzero(torus.distances_from(10) <= r)
            np.testing.assert_array_equal(torus.ball(10, r), expected)

    def test_large_radius_gives_all_nodes(self):
        torus = Torus2D(49)
        assert torus.ball(0, np.inf).size == 49
        assert torus.ball(0, 100).size == 49
        assert torus.ball_size(0, np.inf) == 49

    def test_wrapping_radius_consistent(self):
        # Radius large enough that the ball wraps but does not cover everything.
        torus = Torus2D(81)  # side 9
        r = 5
        expected = np.flatnonzero(torus.distances_from(40) <= r)
        np.testing.assert_array_equal(torus.ball(40, r), expected)
        assert torus.ball_size(40, r) == expected.size == ball_size_torus(r, 9)

    @pytest.mark.parametrize("side,radius", [(9, 4.0), (10, 2.5), (17, 8.0)])
    def test_ball_matrix_rows_are_balls(self, side, radius):
        """Each row lists B_r of its origin once, at the column distances."""
        torus = Torus2D.from_side(side)
        origins = np.array([0, side - 1, side * side // 2, side * side - 1])
        members, dists = torus.ball_matrix(origins, radius)
        assert members.shape == (origins.size, torus.ball_size(0, radius))
        for origin, row in zip(origins, members):
            np.testing.assert_array_equal(np.sort(row), torus.ball(origin, radius))
            np.testing.assert_array_equal(torus.distances_from(origin, row), dists)

    def test_ball_matrix_only_where_offsets_are_exact(self):
        torus = Torus2D(81)  # side 9, diameter 8
        assert torus.ball_matrix(np.empty(0, dtype=np.int64), 4)[0].shape == (0, 41)
        for radius in (5, 8, np.inf, -1):  # wraps onto itself, or everything
            assert torus.ball_matrix(np.array([0]), radius) is None

    def test_negative_radius_raises(self):
        with pytest.raises(TopologyError):
            Torus2D(25).ball(0, -1)
        with pytest.raises(TopologyError):
            Torus2D(25).ball_size(0, -1)


class TestNeighbors:
    def test_four_neighbors(self):
        torus = Torus2D(100)
        assert Torus2D(100).degree(55) == 4
        neighbors = torus.neighbors(55)
        assert 54 in neighbors and 56 in neighbors
        assert 45 in neighbors and 65 in neighbors

    def test_corner_wraps(self):
        torus = Torus2D(100)
        neighbors = set(torus.neighbors(0).tolist())
        assert neighbors == {1, 9, 10, 90}

    def test_to_networkx_structure(self):
        torus = Torus2D(16)
        graph = torus.to_networkx()
        assert graph.number_of_nodes() == 16
        # 4-regular graph: 16 * 4 / 2 = 32 edges.
        assert graph.number_of_edges() == 32
