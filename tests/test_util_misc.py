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

    @staticmethod
    def grid_shares(n, alpha, steps=100_000):
        """Each rank's share of a uniform grid of ``u`` in [0, 1): the
        sampler's probability mass function, read through ``sample``."""

        class _Grid(random.Random):
            def __init__(self) -> None:
                super().__init__(0)
                self._step = iter(range(steps))

            def random(self) -> float:
                return next(self._step) / steps

        s = ZipfSampler(n, alpha=alpha, rng=_Grid())
        counts = [0] * n
        for _ in range(steps):
            counts[s.sample()] += 1
        return [count / steps for count in counts]

    def test_pmf_sums_to_one(self):
        shares = self.grid_shares(50, 1.4)
        assert math.isclose(sum(shares), 1.0)
        # Rank 0 holds 1 / H(50, 1.4) of the mass, to grid resolution.
        assert math.isclose(shares[0], 1 / sum((k + 1) ** -1.4
                                               for k in range(50)),
                            abs_tol=1e-4)

    def test_pmf_monotone_decreasing(self):
        shares = self.grid_shares(20, 1.4)
        assert shares == sorted(shares, reverse=True)

    def test_rank_zero_dominates(self):
        s = ZipfSampler(1000, alpha=1.4, rng=random.Random(7))
        draws = [s.sample() for _ in range(4000)]
        share = draws.count(0) / len(draws)
        # ζ-truncated p(0) ≈ 0.33 at α=1.4; allow generous sampling noise.
        assert 0.25 < share < 0.42

    def test_determinism(self):
        a = ZipfSampler(30, rng=random.Random(5))
        b = ZipfSampler(30, rng=random.Random(5))
        assert ([a.sample() for _ in range(50)]
                == [b.sample() for _ in range(50)])

    def test_higher_alpha_more_skew(self):
        # The same uniform draws: a steeper CDF maps more of them to 0.
        flat = ZipfSampler(100, alpha=0.8, rng=random.Random(3))
        steep = ZipfSampler(100, alpha=2.4, rng=random.Random(3))
        flat_draws = [flat.sample() for _ in range(500)]
        steep_draws = [steep.sample() for _ in range(500)]
        assert steep_draws.count(0) > flat_draws.count(0)

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            ZipfSampler(0, rng=random.Random(0))
        with pytest.raises(ValueError):
            ZipfSampler(5, alpha=0, rng=random.Random(0))

    def test_rng_is_required(self):
        with pytest.raises(TypeError):
            ZipfSampler(5)

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
