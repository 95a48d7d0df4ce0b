"""Zipf sampler, percentile and coefficient-of-variation tests."""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, strategies as st

from repro.util.stats import coefficient_of_variation_squared, percentile
from repro.util.zipf import DEFAULT_ALPHA, ZipfSampler


class TestZipf:
    def test_default_alpha_matches_paper(self):
        assert DEFAULT_ALPHA == 1.4

    def test_bounds(self):
        s = ZipfSampler(10, rng=random.Random(1))
        for _ in range(500):
            assert 0 <= s.sample() < 10

    def test_pmf_sums_to_one(self):
        s = ZipfSampler(50, alpha=1.4)
        assert math.isclose(sum(s.pmf(k) for k in range(50)), 1.0)

    def test_pmf_monotone_decreasing(self):
        s = ZipfSampler(20, alpha=1.4)
        probs = [s.pmf(k) for k in range(20)]
        assert probs == sorted(probs, reverse=True)

    def test_rank_zero_dominates(self):
        s = ZipfSampler(1000, alpha=1.4, rng=random.Random(7))
        draws = s.sample_many(4000)
        share = draws.count(0) / len(draws)
        # ζ-truncated p(0) ≈ 0.33 at α=1.4; allow generous sampling noise.
        assert 0.25 < share < 0.42

    def test_determinism(self):
        a = ZipfSampler(30, rng=random.Random(5)).sample_many(50)
        b = ZipfSampler(30, rng=random.Random(5)).sample_many(50)
        assert a == b

    def test_higher_alpha_more_skew(self):
        flat = ZipfSampler(100, alpha=0.8, rng=random.Random(3))
        steep = ZipfSampler(100, alpha=2.4, rng=random.Random(3))
        assert steep.pmf(0) > flat.pmf(0)

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            ZipfSampler(0)
        with pytest.raises(ValueError):
            ZipfSampler(5, alpha=0)
        with pytest.raises(ValueError):
            ZipfSampler(5).pmf(5)
        with pytest.raises(ValueError):
            ZipfSampler(5).sample_many(-1)

    @given(st.integers(1, 200), st.floats(0.3, 3.0))
    def test_single_population_always_zero(self, n, alpha):
        s = ZipfSampler(1, alpha=alpha, rng=random.Random(n))
        assert s.sample() == 0

    @given(st.integers(2, 100), st.floats(0.3, 3.0))
    def test_inverse_cdf_boundary_u_on_cumulative_total(self, n, alpha):
        """When ``u`` lands exactly on the cumulative total (an RNG
        emitting 1.0, or float rounding at the top of the CDF),
        ``bisect_left`` alone reports ``n`` — one past the last rank.
        Regression for the clamp in ``ZipfSampler.sample``."""

        class _Extremes(random.Random):
            def __init__(self) -> None:
                super().__init__(0)
                self._values = iter([1.0, 0.0, 0.999999999999999])

            def random(self) -> float:
                return next(self._values)

        s = ZipfSampler(n, alpha=alpha, rng=_Extremes())
        assert s.sample() == n - 1   # u == total: clamp to the last rank
        assert s.sample() == 0       # u == 0: first rank
        assert 0 <= s.sample() < n   # just below 1.0 stays in range


class TestMeanPercentile:
    def test_percentile_median(self):
        assert percentile([1, 2, 3, 4, 5], 50) == 3

    def test_percentile_interpolates(self):
        assert percentile([0, 10], 25) == 2.5

    def test_percentile_bounds(self):
        data = [3, 1, 2]
        assert percentile(data, 0) == 1
        assert percentile(data, 100) == 3

    def test_percentile_single(self):
        assert percentile([42], 75) == 42

    def test_percentile_empty_is_nan(self):
        """Empty data reports NaN instead of crashing: a zero-query run
        (empty trace, or a stream shorter than its warm-up slice) must
        still produce a report — regression for the ValueError that made
        reporting over such runs raise instead."""
        for q in (0, 50, 100):
            assert math.isnan(percentile([], q))

    def test_percentile_errors(self):
        with pytest.raises(ValueError):
            percentile([1], 101)
        with pytest.raises(ValueError):
            percentile([1], -1)


class TestCoV:
    def test_uniform_distribution_is_low_variance(self):
        assert coefficient_of_variation_squared([5, 5, 5, 5]) == 0.0

    def test_known_value(self):
        # data [1, 3]: mean 2, var 1 -> CoV² = 0.25
        assert math.isclose(coefficient_of_variation_squared([1, 3]), 0.25)

    def test_high_variance_exceeds_one(self):
        # A hyper-exponential-like sample: mostly zeros, one huge value.
        assert coefficient_of_variation_squared([0, 0, 0, 0, 100]) > 1.0

    def test_degenerate_inputs(self):
        assert coefficient_of_variation_squared([]) == 0.0
        assert coefficient_of_variation_squared([7]) == 0.0
        assert coefficient_of_variation_squared([0, 0]) == 0.0

    @given(st.lists(st.floats(0.1, 100), min_size=2, max_size=30))
    def test_matches_definition(self, data):
        mu = sum(data) / len(data)
        var = sum((x - mu) ** 2 for x in data) / len(data)
        expected = var / (mu * mu)
        assert math.isclose(
            coefficient_of_variation_squared(data), expected, rel_tol=1e-9
        )
