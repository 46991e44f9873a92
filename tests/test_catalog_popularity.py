"""Tests for popularity distributions (repro.catalog.popularity)."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.catalog.popularity import (
    CustomPopularity,
    GeometricPopularity,
    UniformPopularity,
    ZipfPopularity,
    create_popularity,
)
from repro.exceptions import ConfigurationError


class TestUniformPopularity:
    def test_pmf_sums_to_one(self):
        pop = UniformPopularity(100)
        assert pop.pmf().sum() == pytest.approx(1.0)

    def test_pmf_constant(self):
        pop = UniformPopularity(20)
        np.testing.assert_allclose(pop.pmf(), 0.05)

    def test_probability_lookup(self):
        pop = UniformPopularity(10)
        assert pop.probability(3) == pytest.approx(0.1)

    def test_probability_out_of_range(self):
        with pytest.raises(ConfigurationError):
            UniformPopularity(10).probability(10)

    def test_entropy_is_log_k(self):
        pop = UniformPopularity(64)
        assert pop.entropy() == pytest.approx(np.log(64))

    def test_sampling_range_and_determinism(self):
        pop = UniformPopularity(10)
        a = pop.sample(1000, seed=0)
        b = pop.sample(1000, seed=0)
        np.testing.assert_array_equal(a, b)
        assert a.min() >= 0 and a.max() < 10

    def test_sampling_roughly_uniform(self):
        pop = UniformPopularity(5)
        samples = pop.sample(20000, seed=1)
        counts = np.bincount(samples, minlength=5) / 20000
        np.testing.assert_allclose(counts, 0.2, atol=0.02)

    def test_invalid_size(self):
        with pytest.raises(ConfigurationError):
            UniformPopularity(0)


class TestZipfPopularity:
    def test_gamma_zero_is_uniform(self):
        zipf = ZipfPopularity(50, 0.0)
        np.testing.assert_allclose(zipf.pmf(), UniformPopularity(50).pmf())

    def test_pmf_decreasing_in_rank(self):
        zipf = ZipfPopularity(100, 1.2)
        pmf = zipf.pmf()
        assert np.all(np.diff(pmf) <= 0)

    def test_pmf_sums_to_one(self):
        assert ZipfPopularity(1000, 0.8).pmf().sum() == pytest.approx(1.0)

    def test_larger_gamma_more_skewed(self):
        mild = ZipfPopularity(100, 0.5).head_mass(10)
        steep = ZipfPopularity(100, 2.0).head_mass(10)
        assert steep > mild

    def test_gamma_property(self):
        assert ZipfPopularity(10, 1.5).gamma == 1.5

    def test_negative_gamma_raises(self):
        with pytest.raises(ConfigurationError):
            ZipfPopularity(10, -0.5)

    def test_as_dict_contains_gamma(self):
        assert ZipfPopularity(10, 0.7).as_dict()["gamma"] == 0.7

    def test_equality(self):
        assert ZipfPopularity(10, 0.7) == ZipfPopularity(10, 0.7)
        assert ZipfPopularity(10, 0.7) != ZipfPopularity(10, 0.8)
        assert ZipfPopularity(10, 0.0) != UniformPopularity(10)


class TestGeometricPopularity:
    def test_pmf_sums_to_one(self):
        assert GeometricPopularity(30, 0.3).pmf().sum() == pytest.approx(1.0)

    def test_decreasing(self):
        pmf = GeometricPopularity(30, 0.5).pmf()
        assert np.all(np.diff(pmf) < 0)

    def test_q_bounds(self):
        with pytest.raises(ConfigurationError):
            GeometricPopularity(10, 0.0)
        with pytest.raises(ConfigurationError):
            GeometricPopularity(10, 1.0)


class TestCustomPopularity:
    def test_accepts_valid_vector(self):
        pop = CustomPopularity([0.2, 0.3, 0.5])
        assert pop.num_files == 3
        np.testing.assert_allclose(pop.pmf(), [0.2, 0.3, 0.5])

    def test_rejects_unnormalised(self):
        with pytest.raises(ConfigurationError):
            CustomPopularity([0.2, 0.2])

    def test_head_mass(self):
        pop = CustomPopularity([0.7, 0.2, 0.1])
        assert pop.head_mass(1) == pytest.approx(0.7)
        assert pop.head_mass(5) == pytest.approx(1.0)

    def test_head_mass_invalid(self):
        with pytest.raises(ConfigurationError):
            CustomPopularity([0.5, 0.5]).head_mass(0)

    def test_pmf_hash_is_the_same_in_every_process(self):
        # str and bytes hashes are salted per process (PYTHONHASHSEED), so
        # the description must use a content digest instead.
        src = Path(__file__).resolve().parent.parent / "src"
        code = (
            "from repro.catalog.popularity import CustomPopularity; "
            "print(CustomPopularity([0.2, 0.3, 0.5]).as_dict()['pmf_hash'])"
        )
        printed = []
        for hash_seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            env["PYTHONPATH"] = os.pathsep.join(
                filter(None, [str(src), env.get("PYTHONPATH")])
            )
            done = subprocess.run(
                [sys.executable, "-c", code],
                env=env,
                capture_output=True,
                text=True,
                timeout=120,
            )
            assert done.returncode == 0, done.stderr
            printed.append(done.stdout.strip())
        assert printed[0] == printed[1]
        assert printed[0] == CustomPopularity([0.2, 0.3, 0.5]).as_dict()["pmf_hash"]


class TestCreatePopularity:
    def test_uniform(self):
        assert isinstance(create_popularity("uniform", 10), UniformPopularity)

    def test_zipf(self):
        pop = create_popularity("zipf", 10, gamma=1.1)
        assert isinstance(pop, ZipfPopularity)
        assert pop.gamma == 1.1

    def test_geometric(self):
        assert isinstance(create_popularity("geometric", 10, q=0.2), GeometricPopularity)

    def test_zipf_missing_gamma(self):
        with pytest.raises(ConfigurationError):
            create_popularity("zipf", 10)

    def test_geometric_missing_q(self):
        with pytest.raises(ConfigurationError):
            create_popularity("geometric", 10)

    def test_unknown_family(self):
        with pytest.raises(ConfigurationError):
            create_popularity("pareto", 10)

    def test_case_insensitive(self):
        assert isinstance(create_popularity("UNIFORM", 5), UniformPopularity)
