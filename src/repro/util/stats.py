"""Statistics helpers for the cache replacement machinery and gcbench.

The HD replacement policy (paper §7.1) switches between PIN and PINC
scoring based on the *(squared) coefficient of variation* of the per-entry
benefit counters R: when ``CoV² > 1`` the distribution is deemed
high-variance (hyper-exponential-like) and PIN's raw counters are
discriminative enough on their own; otherwise the cost-weighted PINC
scoring is used.  :func:`percentile` is the interpolation the serving
layer's latency quantiles and gcbench's latency metrics share.
"""

from __future__ import annotations

import math
from collections.abc import Iterable

__all__ = ["coefficient_of_variation_squared", "percentile"]


def coefficient_of_variation_squared(values: Iterable[float]) -> float:
    """``CoV² = Var(X) / E[X]²`` (population variance).

    Returns 0.0 for fewer than two samples or an all-zero sample, which
    makes HD degrade gracefully to PINC on a cold cache.
    """
    data = list(values)
    if len(data) < 2:
        return 0.0
    mu = sum(data) / len(data)
    if mu == 0:
        return 0.0
    var = sum((x - mu) ** 2 for x in data) / len(data)
    return var / (mu * mu)


def percentile(values: Iterable[float], q: float) -> float:
    """Linear-interpolation percentile, ``q`` in [0, 100].

    Empty data yields NaN rather than raising: reporting code runs over
    whatever a run produced, and a zero-query run (an empty trace, or a
    stream shorter than its warm-up slice) must still produce a report —
    a NaN cell is an honest "no data", a crash is a lost report.
    """
    if not 0 <= q <= 100:
        raise ValueError(f"percentile must be in [0, 100], got {q}")
    data = sorted(values)
    if not data:
        return math.nan
    if len(data) == 1:
        return data[0]
    pos = (len(data) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = math.ceil(pos)
    if lo == hi:
        return data[lo]
    frac = pos - lo
    return data[lo] * (1 - frac) + data[hi] * frac
