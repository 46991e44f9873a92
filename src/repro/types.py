"""Shared type aliases used across the :mod:`repro` package."""

from __future__ import annotations

from typing import Union

import numpy as np
import numpy.typing as npt

__all__ = ["IntArray", "FloatArray", "BoolArray", "NodeId", "FileId", "index_type"]

#: One-dimensional (or broadcastable) integer array of node or file indices.
IntArray = npt.NDArray[np.int64]

#: Floating point array (distances, probabilities, costs).
FloatArray = npt.NDArray[np.float64]

#: Boolean mask array.
BoolArray = npt.NDArray[np.bool_]

#: A single server index in ``[0, n)``.
NodeId = Union[int, np.integer]

#: A single file index in ``[0, K)``.
FileId = Union[int, np.integer]


def index_type(limit: int) -> type[np.signedinteger]:
    """``np.int32`` while ``limit < 2**31``, else ``np.int64``.

    The width of the cold precompute's index arithmetic, chosen from the
    exclusive upper bound ``limit`` of the values it computes: node ids
    (``n``), positions in the file index (its length) and membership bit
    indices (``n * 8 * ceil(K / 8)``).  Results widen to int64 once, where
    the candidate slab is assembled.
    """
    return np.int32 if limit < 2**31 else np.int64
