"""Closed-form hop-distance formulas of the lattice and ring topologies.

On the 2-D torus and grid with 4-neighbour (von Neumann) connectivity the
graph shortest-path distance equals the (wrapped) L1 / Manhattan distance
between node coordinates, and on a ring it is the shorter arc.  Each formula
broadcasts its arguments against each other and never builds a Python-level
loop: the topologies' ``distances_between_unchecked`` apply them to
coordinate (or position) arrays of any shape, which serves the element-wise,
one-to-many and all-pairs queries of :class:`~repro.topology.base.Topology`
alike.
"""

from __future__ import annotations

import numpy as np

from repro.types import IntArray

__all__ = [
    "torus_l1",
    "grid_l1",
    "ring_distance",
]


def _wrap_abs_diff(a: np.ndarray, b: np.ndarray, period: int) -> np.ndarray:
    """Element-wise wrapped absolute difference ``min(|a-b|, period - |a-b|)``."""
    diff = np.abs(a - b)
    return np.minimum(diff, period - diff)


def torus_l1(
    x1: IntArray | int,
    y1: IntArray | int,
    x2: IntArray | int,
    y2: IntArray | int,
    side: int,
) -> IntArray:
    """Wrapped Manhattan distance on a ``side x side`` torus.

    All coordinate arguments broadcast against each other; the result has the
    broadcast shape.  Coordinates must already lie in ``[0, side)``.  The
    arithmetic runs in the promoted type of the coordinates, where they are
    signed integer arrays (anything else, Python ints included, is taken as
    int64): every value it reaches is at most ``side``, so int16 coordinates
    of a torus with ``side < 2**15`` give exact int16 distances.
    """
    x1, y1, x2, y2 = (
        c if c.dtype.kind == "i" else c.astype(np.int64)
        for c in map(np.asarray, (x1, y1, x2, y2))
    )
    return _wrap_abs_diff(x1, x2, side) + _wrap_abs_diff(y1, y2, side)


def grid_l1(
    x1: IntArray | int,
    y1: IntArray | int,
    x2: IntArray | int,
    y2: IntArray | int,
) -> IntArray:
    """Manhattan distance on the bounded grid (no wrap-around)."""
    x1 = np.asarray(x1, dtype=np.int64)
    y1 = np.asarray(y1, dtype=np.int64)
    x2 = np.asarray(x2, dtype=np.int64)
    y2 = np.asarray(y2, dtype=np.int64)
    return np.abs(x1 - x2) + np.abs(y1 - y2)


def ring_distance(a: IntArray | int, b: IntArray | int, n: int) -> IntArray:
    """Cycle distance between positions ``a`` and ``b`` on a ring of ``n`` nodes."""
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    return _wrap_abs_diff(a, b, n)
