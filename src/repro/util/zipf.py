"""Bounded Zipf sampler used by the workload generators (paper §7.1).

The paper draws source graphs / start nodes / pool entries from a Zipf
distribution with probability density ``p(x) = x^{-α} / ζ(α)`` and default
``α = 1.4`` (citing [21]; web-page popularity is Zipf with α = 2.4).  For
workload generation the support must be bounded by the population size, so
this module implements the truncated Zipf over ranks ``1..n`` with inverse
CDF sampling over precomputed cumulative weights.
"""

from __future__ import annotations

import bisect
import itertools
import random

__all__ = ["ZipfSampler", "DEFAULT_ALPHA"]

DEFAULT_ALPHA = 1.4
"""The paper's default skew parameter (§7.1)."""


class ZipfSampler:
    """Samples ranks ``0..n-1`` with ``P(rank k) ∝ (k+1)^{-α}``.

    Rank 0 is the most popular item.  Callers typically shuffle or
    otherwise map ranks onto their population so that popularity is not
    correlated with insertion order unless intended.

    >>> s = ZipfSampler(10, alpha=1.4, rng=random.Random(7))
    >>> 0 <= s.sample() < 10
    True
    """

    def __init__(self, n: int, alpha: float = DEFAULT_ALPHA, *,
                 rng: random.Random) -> None:
        if n <= 0:
            raise ValueError(f"population size must be positive, got {n}")
        if alpha <= 0:
            raise ValueError(f"alpha must be positive, got {alpha}")
        self.n = n
        self.alpha = alpha
        self._rng = rng
        weights = [(k + 1) ** -alpha for k in range(n)]
        self._cumulative = list(itertools.accumulate(weights))
        self._total = self._cumulative[-1]

    def sample(self) -> int:
        """Draw one rank in ``[0, n)``.

        The clamp guards the inverse-CDF boundary: if ``u`` lands
        exactly on the cumulative total (``random() * total == total``
        is reachable in float arithmetic for an RNG emitting values
        arbitrarily close to 1.0, and for injected test doubles
        returning 1.0), ``bisect_left`` would report ``n`` — one past
        the last rank.
        """
        u = self._rng.random() * self._total
        return min(bisect.bisect_left(self._cumulative, u), self.n - 1)

