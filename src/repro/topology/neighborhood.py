"""Ball-size arithmetic helpers.

The analysis in the paper repeatedly uses the size of the radius-``r`` L1 ball
``B_r(u)``: on an infinite lattice (equivalently a torus with ``2r < side``)
it contains exactly ``2 r (r + 1) + 1`` nodes — ``Θ(r²)``.  These helpers make
that arithmetic explicit and reusable from the theory and analysis modules.
"""

from __future__ import annotations

import numpy as np

__all__ = ["ball_size_lattice", "ball_size_torus", "minimal_radius_for_count"]


def ball_size_lattice(radius: int) -> int:
    """Number of lattice points within L1 distance ``radius`` of the origin."""
    if radius < 0:
        raise ValueError(f"radius must be non-negative, got {radius}")
    r = int(radius)
    return 2 * r * (r + 1) + 1


def ball_size_torus(radius: int, side: int) -> int:
    """Ball size on a ``side x side`` torus.

    Exact closed form for ``2 * radius < side``; for larger radii the ball
    wraps around and the size is computed by explicit enumeration of wrapped
    coordinate differences (still O(side²) only for pathological radii).
    """
    if radius < 0:
        raise ValueError(f"radius must be non-negative, got {radius}")
    if side <= 0:
        raise ValueError(f"side must be positive, got {side}")
    r = int(radius)
    if 2 * r < side:
        return ball_size_lattice(r)
    # Wrapped case: count coordinate pairs (dx, dy) with wrapped |dx|+|dy| <= r.
    offsets = np.arange(side)
    wrapped = np.minimum(offsets, side - offsets)
    total = np.add.outer(wrapped, wrapped)
    return int(np.count_nonzero(total <= r))


def minimal_radius_for_count(count: int) -> int:
    """Smallest radius ``r`` such that the lattice L1 ball holds ``count`` nodes.

    Used by strategies that adaptively expand their search radius until enough
    replicas are available, and by the theory module to convert "number of
    candidate servers" requirements into proximity radii.
    """
    if count <= 0:
        raise ValueError(f"count must be positive, got {count}")
    if count == 1:
        return 0
    # Solve 2 r (r + 1) + 1 >= count for the smallest integer r.
    r = int(np.ceil((-1 + np.sqrt(1 + 2 * (count - 1))) / 2))
    while ball_size_lattice(r) < count:  # guard against floating point edge cases
        r += 1
    while r > 0 and ball_size_lattice(r - 1) >= count:
        r -= 1
    return r
