"""Random-number-generation helpers.

Every stochastic component in the library accepts either a seed-like object or
an existing :class:`numpy.random.Generator`.  Centralising the coercion logic
here keeps simulations reproducible: a single integer seed given to the
top-level runner deterministically derives independent child generators for
placement, workload generation and each Monte-Carlo trial via
:class:`numpy.random.SeedSequence` spawning.

Every draw of a file id from a popularity profile — cache placement, request
and arrival files, uncached-file resampling, the load generator — goes
through :func:`choice_from_pmf`, an exact and faster stand-in for
``Generator.choice`` with probabilities ``p``.
"""

from __future__ import annotations

from typing import Iterable, Sequence, Union

import numpy as np

__all__ = [
    "SeedLike",
    "as_generator",
    "spawn_generators",
    "spawn_seeds",
    "derive_generator",
    "seed_provenance",
    "choice_from_pmf",
]

#: Anything accepted as a seed by the helpers in this module.
SeedLike = Union[None, int, Sequence[int], np.random.SeedSequence, np.random.Generator]

#: ``Generator.choice``'s tolerance on ``|sum(p) - 1|`` for a float64 ``p``.
_PMF_ATOL = float(np.sqrt(np.finfo(np.float64).eps))

#: Draws :func:`choice_from_pmf` maps per pass (256 KiB per float64 temporary).
_CHOICE_CHUNK = 1 << 15


def as_generator(seed: SeedLike = None) -> np.random.Generator:
    """Coerce ``seed`` into a :class:`numpy.random.Generator`.

    Parameters
    ----------
    seed:
        ``None`` (fresh OS entropy), an integer, a sequence of integers, a
        :class:`~numpy.random.SeedSequence`, or an existing generator (which
        is returned unchanged).

    Returns
    -------
    numpy.random.Generator
        A PCG64-backed generator.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, np.random.SeedSequence):
        return np.random.default_rng(seed)
    return np.random.default_rng(seed)


def spawn_seeds(seed: SeedLike, count: int) -> list[np.random.SeedSequence]:
    """Derive ``count`` independent :class:`~numpy.random.SeedSequence` objects.

    If ``seed`` is already a generator, its bit generator's seed sequence is
    used as the parent so the spawned children remain reproducible given the
    original seed.
    """
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    if isinstance(seed, np.random.Generator):
        parent = seed.bit_generator.seed_seq  # type: ignore[attr-defined]
        if not isinstance(parent, np.random.SeedSequence):  # pragma: no cover - defensive
            parent = np.random.SeedSequence()
    elif isinstance(seed, np.random.SeedSequence):
        parent = seed
    else:
        parent = np.random.SeedSequence(seed)
    return list(parent.spawn(count))


def spawn_generators(seed: SeedLike, count: int) -> list[np.random.Generator]:
    """Derive ``count`` statistically independent generators from ``seed``."""
    return [np.random.default_rng(s) for s in spawn_seeds(seed, count)]


def seed_provenance(seed: SeedLike) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """``(entropy, spawn_key)`` provenance of ``seed``, for result records.

    Every :data:`SeedLike` form maps to the two integer tuples sufficient to
    reconstruct the randomness it denotes via
    ``SeedSequence(entropy, spawn_key=spawn_key)``: an integer to
    ``((seed,), ())``, a sequence of integers to ``(tuple(seed), ())``, a
    :class:`~numpy.random.SeedSequence` (or a generator backed by one) to its
    entropy and spawn key, and ``None`` (fresh OS entropy) to ``((), ())``.
    Keeping the two components separate matters: ``SeedSequence((5, 6))`` and
    ``SeedSequence(5, spawn_key=(6,))`` are different streams.
    """
    if seed is None:
        return (), ()
    if isinstance(seed, np.random.Generator):
        seed = seed.bit_generator.seed_seq  # type: ignore[attr-defined]
        if not isinstance(seed, np.random.SeedSequence):  # pragma: no cover - defensive
            return (), ()
    if isinstance(seed, np.random.SeedSequence):
        entropy: tuple[int, ...] = ()
        if seed.entropy is not None:
            entropy = tuple(int(e) for e in np.atleast_1d(seed.entropy))
        return entropy, tuple(int(k) for k in seed.spawn_key)
    if isinstance(seed, (int, np.integer)):
        return (int(seed),), ()
    return tuple(int(s) for s in seed), ()


def derive_generator(seed: SeedLike, *keys: Iterable[int] | int) -> np.random.Generator:
    """Derive a generator keyed by integers, useful for named sub-streams.

    Examples
    --------
    >>> rng_placement = derive_generator(1234, 0)
    >>> rng_workload = derive_generator(1234, 1)

    The two generators are independent and reproducible from the parent seed.
    """
    flat: list[int] = []
    for key in keys:
        if isinstance(key, (int, np.integer)):
            flat.append(int(key))
        else:
            flat.extend(int(k) for k in key)
    if isinstance(seed, np.random.Generator):
        base = seed.bit_generator.seed_seq  # type: ignore[attr-defined]
        entropy = list(np.atleast_1d(base.entropy)) if base is not None else []
    elif isinstance(seed, np.random.SeedSequence):
        entropy = list(np.atleast_1d(seed.entropy))
    elif seed is None:
        entropy = []
    elif isinstance(seed, (int, np.integer)):
        entropy = [int(seed)]
    else:
        entropy = [int(s) for s in seed]
    return np.random.default_rng(np.random.SeedSequence(entropy + flat if entropy else flat))


def choice_from_pmf(
    rng: np.random.Generator, pmf: Sequence[float] | np.ndarray, size: int | tuple[int, ...]
) -> np.ndarray:
    """Draw indices i.i.d. from ``pmf``, exactly as ``Generator.choice`` does.

    The result equals ``rng.choice(len(pmf), size, p=...)`` with ``pmf`` as
    the probabilities: the same int64 array of shape ``size``, and ``rng``
    is left at the same stream position.  Like ``Generator.choice``, it
    consumes one ``rng.random`` double ``u`` per draw and returns the number
    of normalised-CDF entries ``<= u``.  ``pmf`` is converted to float64 and
    validated as ``Generator.choice`` validates a float64 ``p`` (1-D, no
    NaN, non-negative, sum within ``sqrt(eps)`` of one), raising
    :class:`ValueError` otherwise.

    ``Generator.choice`` binary-searches the whole CDF once per unsorted
    uniform.  Here a guide table does most of that work: with ``G`` the
    smallest power of two ``>= K``, ``u * G`` and every bucket edge ``b / G``
    are exact, so the bucket ``floor(u * G)`` brackets the answer between the
    CDF entries at its two edges.  A draw whose bucket holds at most one CDF
    entry is finished by one comparison; the rest take a vectorised binary
    search bounded by the widest bucket.
    """
    p = np.ascontiguousarray(pmf, dtype=np.float64)
    if p.ndim != 1:
        raise ValueError("p must be 1-dimensional")
    total = p.sum()
    if np.isnan(total):
        raise ValueError("Probabilities contain NaN")
    if np.any(p < 0):
        raise ValueError("Probabilities are not non-negative")
    if abs(total - 1.0) > _PMF_ATOL:  # also rejects an empty pmf
        raise ValueError("Probabilities do not sum to 1")
    cdf = p.cumsum()
    cdf /= cdf[-1]
    out = np.empty(size, dtype=np.int64)

    g = 1 << (cdf.size - 1).bit_length()
    edges = np.arange(g + 1, dtype=np.float64) / g
    lo = cdf.searchsorted(edges[:-1], side="right")  # #{cdf <= b / G}
    hi = cdf.searchsorted(edges[1:], side="left")  # #{cdf < (b + 1) / G}
    width = hi - lo
    wide_bucket = width > 1
    steps = int(width.max()).bit_length()  # bisections that settle any bucket
    flat = out.reshape(-1)
    # Cache-sized chunks, each drawn just before it is mapped: every
    # temporary below stays in L2, and no array of all the draws is held.
    # Successive rng.random calls continue one stream, so the chunks' draws
    # are the doubles one rng.random(size) call would return.
    for start in range(0, flat.size, _CHOICE_CHUNK):
        draws = rng.random(min(_CHOICE_CHUNK, flat.size - start))
        bucket = (draws * g).astype(np.intp)
        idx = lo.take(bucket)
        idx += cdf.take(idx) <= draws  # the answer when hi - lo <= 1
        if steps > 1:  # some bucket holds two or more CDF entries
            wide = np.flatnonzero(wide_bucket.take(bucket))
            target, wide_buckets = draws.take(wide), bucket.take(wide)
            left, right = lo.take(wide_buckets), hi.take(wide_buckets)
            for _ in range(steps):
                mid = (left + right) >> 1
                above = cdf.take(mid) <= target
                left = np.where(above, mid + 1, left)
                right = np.where(above, right, mid)
            idx[wide] = left
        flat[start : start + _CHOICE_CHUNK] = idx
    return out
