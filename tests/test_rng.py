"""Tests for the RNG helpers (repro.rng)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rng import (
    as_generator,
    choice_from_pmf,
    derive_generator,
    spawn_generators,
    spawn_seeds,
)


class TestAsGenerator:
    def test_none_gives_generator(self):
        gen = as_generator(None)
        assert isinstance(gen, np.random.Generator)

    def test_int_seed_is_deterministic(self):
        a = as_generator(42).integers(0, 1_000_000, size=10)
        b = as_generator(42).integers(0, 1_000_000, size=10)
        np.testing.assert_array_equal(a, b)

    def test_different_seeds_differ(self):
        a = as_generator(1).integers(0, 1_000_000, size=10)
        b = as_generator(2).integers(0, 1_000_000, size=10)
        assert not np.array_equal(a, b)

    def test_generator_passthrough(self):
        gen = np.random.default_rng(0)
        assert as_generator(gen) is gen

    def test_seed_sequence_accepted(self):
        seq = np.random.SeedSequence(7)
        a = as_generator(seq).integers(0, 1000, size=5)
        b = as_generator(np.random.SeedSequence(7)).integers(0, 1000, size=5)
        np.testing.assert_array_equal(a, b)


class TestSpawn:
    def test_spawn_seeds_count(self):
        seeds = spawn_seeds(0, 5)
        assert len(seeds) == 5
        assert all(isinstance(s, np.random.SeedSequence) for s in seeds)

    def test_spawn_seeds_zero(self):
        assert spawn_seeds(0, 0) == []

    def test_spawn_seeds_negative_raises(self):
        with pytest.raises(ValueError):
            spawn_seeds(0, -1)

    def test_spawn_generators_independent(self):
        gens = spawn_generators(3, 3)
        draws = [g.integers(0, 10**9, size=4) for g in gens]
        assert not np.array_equal(draws[0], draws[1])
        assert not np.array_equal(draws[1], draws[2])

    def test_spawn_reproducible(self):
        a = [g.integers(0, 10**9, size=4) for g in spawn_generators(99, 3)]
        b = [g.integers(0, 10**9, size=4) for g in spawn_generators(99, 3)]
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)

    def test_spawn_from_generator(self):
        parent = np.random.default_rng(5)
        seeds = spawn_seeds(parent, 2)
        assert len(seeds) == 2

    def test_spawn_from_seed_sequence(self):
        seeds = spawn_seeds(np.random.SeedSequence(11), 4)
        assert len(seeds) == 4


class TestDeriveGenerator:
    def test_same_keys_same_stream(self):
        a = derive_generator(7, 1).integers(0, 10**9, size=5)
        b = derive_generator(7, 1).integers(0, 10**9, size=5)
        np.testing.assert_array_equal(a, b)

    def test_different_keys_differ(self):
        a = derive_generator(7, 1).integers(0, 10**9, size=5)
        b = derive_generator(7, 2).integers(0, 10**9, size=5)
        assert not np.array_equal(a, b)

    def test_none_seed_works(self):
        gen = derive_generator(None, 3)
        assert isinstance(gen, np.random.Generator)

    def test_sequence_key(self):
        gen = derive_generator(1, [2, 3])
        assert isinstance(gen, np.random.Generator)


# ------------------------------------------------------------ choice_from_pmf
def _normalised(weights) -> np.ndarray:
    weights = np.asarray(weights, dtype=np.float64)
    return weights / weights.sum()


def _zipf(k: int, gamma: float) -> np.ndarray:
    return _normalised(np.arange(1, k + 1, dtype=np.float64) ** -gamma)


def _geometric(k: int, q: float) -> np.ndarray:
    return _normalised((1.0 - q) ** np.arange(k, dtype=np.float64))


def _one_hot(k: int, hot: int) -> np.ndarray:
    pmf = np.zeros(k)
    pmf[hot] = 1.0
    return pmf


def _zero_ends(k: int, head: int, tail: int, seed: int) -> np.ndarray:
    """Random positive mass strictly between ``head`` and ``tail`` zeros."""
    weights = np.zeros(k + head + tail)
    weights[head : head + k] = np.random.default_rng(seed).random(k) + 0.01
    return _normalised(weights)


def _random_pmf(k: int, seed: int) -> np.ndarray:
    """Random weights, some zeroed, raised to a random power for skew."""
    rng = np.random.default_rng(seed)
    weights = rng.random(k) ** rng.uniform(0.2, 8.0)
    weights[rng.random(k) < 0.2] = 0.0
    if not weights.any():
        weights[rng.integers(k)] = 1.0
    return _normalised(weights)


_K = st.integers(1, 3000)
_PMFS = st.one_of(
    _K.map(lambda k: np.full(k, 1.0 / k)),
    st.builds(_zipf, _K, st.sampled_from([0.5, 1.0, 2.0, 3.0])),
    st.builds(_geometric, _K, st.floats(0.001, 0.9)),
    _K.flatmap(lambda k: st.sampled_from([0, k // 2, k - 1]).map(lambda h: _one_hot(k, h))),
    st.builds(
        _zero_ends,
        st.integers(1, 500),
        st.integers(0, 500),
        st.integers(0, 500),
        st.integers(0, 2**32 - 1),
    ),
    st.builds(_random_pmf, _K, st.integers(0, 2**32 - 1)),
)
_SIZES = st.one_of(
    st.sampled_from([0, 1]),
    st.integers(0, 5000),
    st.tuples(st.integers(0, 80), st.integers(0, 80)),
)


def _assert_matches_choice(pmf, size, seed: int) -> None:
    expected_rng = np.random.default_rng(seed)
    expected = expected_rng.choice(len(pmf), size, p=pmf)
    got_rng = np.random.default_rng(seed)
    got = choice_from_pmf(got_rng, pmf, size)
    assert got.dtype == np.int64
    assert got.shape == expected.shape
    np.testing.assert_array_equal(got, expected)
    # Same stream position afterwards: one double per draw, nothing more.
    assert got_rng.random() == expected_rng.random()


class TestChoiceFromPmf:
    @settings(max_examples=150, deadline=None)
    @given(pmf=_PMFS, size=_SIZES, seed=st.integers(0, 2**32 - 1))
    def test_matches_generator_choice(self, pmf, size, seed):
        _assert_matches_choice(pmf, size, seed)

    @pytest.mark.parametrize(
        "pmf",
        [
            np.full(256, 1 / 256),
            np.full(500, 1 / 500),
            _zipf(1000, 1.0),
            _zipf(1000, 3.0),
            _geometric(300, 0.1),
        ],
        ids=["uniform256", "uniform500", "zipf1", "zipf3", "geometric"],
    )
    @pytest.mark.parametrize("size", [(2025, 100), 70_000], ids=["figure5", "chunks"])
    def test_matches_generator_choice_at_placement_scale(self, pmf, size):
        # 70,000 draws span three of the sampler's cache-sized passes.
        _assert_matches_choice(pmf, size, seed=11)

    def test_a_draw_equal_to_a_cdf_entry_maps_past_it(self):
        # Generator.choice counts the CDF entries <= u.  Make every one of
        # the stream's first draws an exact CDF entry (the doubles are
        # multiples of 2**-53, so these differences and sums are exact).
        draws = np.sort(np.random.default_rng(5).random(6))
        pmf = np.diff(np.concatenate([[0.0], draws, [1.0]]))
        np.testing.assert_array_equal(np.cumsum(pmf)[:-1], draws)
        _assert_matches_choice(pmf, 6, seed=5)

    def test_accepts_a_list(self):
        _assert_matches_choice([0.2, 0.3, 0.5], 100, seed=3)

    @pytest.mark.parametrize(
        "pmf",
        [
            np.full((2, 2), 0.25),
            np.array([]),
            np.array([0.5, np.nan, 0.5]),
            np.array([1.5, -0.5]),
            np.array([0.5, 0.4]),
            np.array([0.6, 0.6]),
            np.full(3, 1 / 3) * (1 + 1e-7),
            np.array([0.5, np.inf]),
            np.array([np.inf, 0.5]),
            np.zeros(4),
        ],
        ids=[
            "2d",
            "empty",
            "nan",
            "negative",
            "sum-low",
            "sum-high",
            "sum-past-atol",
            "inf-last",
            "inf-first",
            "zeros",
        ],
    )
    def test_rejects_what_generator_choice_rejects(self, pmf):
        with pytest.raises(ValueError):
            np.random.default_rng(0).choice(len(pmf), 5, p=pmf)
        with pytest.raises(ValueError):
            choice_from_pmf(np.random.default_rng(0), pmf, 5)

    @settings(max_examples=100, deadline=None)
    @given(
        pmf=_PMFS,
        corruption=st.sampled_from(["nan", "negative", "scale", "2d"]),
        position=st.floats(0.0, 1.0, exclude_max=True),
        scale=st.one_of(st.floats(0.0, 0.999), st.floats(1.001, 100.0)),
    )
    def test_error_parity_on_corrupted_pmfs(self, pmf, corruption, position, scale):
        bad = pmf.copy()
        at = int(position * bad.size)
        if corruption == "nan":
            bad[at] = np.nan
        elif corruption == "negative":
            bad[at] = -bad[at] - 1e-3
        elif corruption == "scale":
            bad = bad * scale
        else:
            bad = np.stack([bad, bad])
        with pytest.raises(ValueError):
            np.random.default_rng(0).choice(len(bad), 5, p=bad)
        with pytest.raises(ValueError):
            choice_from_pmf(np.random.default_rng(0), bad, 5)
