"""Vectorised shortest-path distance kernels for lattice topologies.

On the 2-D torus and grid with 4-neighbour (von Neumann) connectivity the
graph shortest-path distance equals the (wrapped) L1 / Manhattan distance
between node coordinates, so all distance queries reduce to cheap NumPy
arithmetic on coordinate arrays.  These kernels are the hot path of the
nearest-replica strategy (Strategy I), which computes an origins-by-replicas
distance matrix per file, so they accept broadcastable inputs and never build
Python-level loops.
"""

from __future__ import annotations

import numpy as np

from repro.types import FloatArray, IntArray

__all__ = [
    "torus_l1",
    "grid_l1",
    "ring_distance",
    "torus_l1_matrix",
    "grid_l1_matrix",
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


def torus_l1_matrix(
    xa: IntArray, ya: IntArray, xb: IntArray, yb: IntArray, side: int
) -> IntArray:
    """Full ``len(a) x len(b)`` wrapped-L1 distance matrix on the torus.

    This is the kernel of Strategy I's nearest-replica pass: rows are request
    origins, columns are replica locations of a single file.  The
    per-axis work runs through ``out=`` ufuncs so a chunk allocates three
    matrices (result + two scratch) instead of eight.
    """
    xa = np.asarray(xa, dtype=np.int64).reshape(-1, 1)
    ya = np.asarray(ya, dtype=np.int64).reshape(-1, 1)
    xb = np.asarray(xb, dtype=np.int64).reshape(1, -1)
    yb = np.asarray(yb, dtype=np.int64).reshape(1, -1)
    d = np.subtract(xa, xb)
    np.abs(d, out=d)
    wrap = np.subtract(side, d)
    np.minimum(d, wrap, out=d)
    e = np.subtract(ya, yb)
    np.abs(e, out=e)
    np.subtract(side, e, out=wrap)
    np.minimum(e, wrap, out=e)
    d += e
    return d


def grid_l1_matrix(xa: IntArray, ya: IntArray, xb: IntArray, yb: IntArray) -> IntArray:
    """Full ``len(a) x len(b)`` Manhattan distance matrix on the bounded grid."""
    xa = np.asarray(xa, dtype=np.int64).reshape(-1, 1)
    ya = np.asarray(ya, dtype=np.int64).reshape(-1, 1)
    xb = np.asarray(xb, dtype=np.int64).reshape(1, -1)
    yb = np.asarray(yb, dtype=np.int64).reshape(1, -1)
    d = np.subtract(xa, xb)
    np.abs(d, out=d)
    e = np.subtract(ya, yb)
    np.abs(e, out=e)
    d += e
    return d


def average_pairwise_distance(matrix: FloatArray) -> float:
    """Mean of a distance matrix — convenience used by analysis code."""
    arr = np.asarray(matrix, dtype=np.float64)
    if arr.size == 0:
        raise ValueError("distance matrix must be non-empty")
    return float(arr.mean())
