"""Tests for the closed-form distance formulas (repro.topology.distance)."""

from __future__ import annotations

import numpy as np

from repro.topology.distance import grid_l1, ring_distance, torus_l1


class TestTorusL1:
    def test_zero_distance_to_self(self):
        assert torus_l1(3, 4, 3, 4, 10) == 0

    def test_simple_distance(self):
        assert torus_l1(0, 0, 2, 3, 10) == 5

    def test_wraparound_x(self):
        # 0 -> 9 on a side-10 torus is one hop, not nine.
        assert torus_l1(0, 0, 9, 0, 10) == 1

    def test_wraparound_y(self):
        assert torus_l1(0, 0, 0, 9, 10) == 1

    def test_wraparound_both(self):
        assert torus_l1(0, 0, 9, 9, 10) == 2

    def test_symmetry(self):
        assert torus_l1(1, 2, 7, 8, 10) == torus_l1(7, 8, 1, 2, 10)

    def test_maximum_distance(self):
        # On an even side the farthest point is (side/2, side/2) away.
        assert torus_l1(0, 0, 5, 5, 10) == 10

    def test_broadcasting(self):
        xs = np.array([0, 1, 2])
        out = torus_l1(0, 0, xs, 0, 10)
        np.testing.assert_array_equal(out, [0, 1, 2])

    def test_triangle_inequality_random(self):
        rng = np.random.default_rng(0)
        side = 8
        pts = rng.integers(0, side, size=(30, 6))
        for x1, y1, x2, y2, x3, y3 in pts:
            d12 = torus_l1(x1, y1, x2, y2, side)
            d23 = torus_l1(x2, y2, x3, y3, side)
            d13 = torus_l1(x1, y1, x3, y3, side)
            assert d13 <= d12 + d23


class TestGridL1:
    def test_no_wraparound(self):
        assert grid_l1(0, 0, 9, 0) == 9

    def test_simple(self):
        assert grid_l1(1, 1, 4, 5) == 7

    def test_symmetry(self):
        assert grid_l1(2, 3, 7, 1) == grid_l1(7, 1, 2, 3)

    def test_broadcasting(self):
        out = grid_l1(np.array([0, 1]), 0, 3, 0)
        np.testing.assert_array_equal(out, [3, 2])


class TestRingDistance:
    def test_adjacent(self):
        assert ring_distance(0, 1, 10) == 1

    def test_wraparound(self):
        assert ring_distance(0, 9, 10) == 1

    def test_opposite(self):
        assert ring_distance(0, 5, 10) == 5

    def test_vectorised(self):
        out = ring_distance(np.array([0, 1, 2]), 9, 10)
        np.testing.assert_array_equal(out, [1, 2, 3])
