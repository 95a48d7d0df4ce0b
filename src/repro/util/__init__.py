"""Foundational utilities shared across the GC+ reproduction.

The paper's reference implementation is written in Java and leans on a few
standard-library primitives that have no exact Python equivalent; this
package provides faithful substitutes:

* :class:`repro.util.bitset.BitSet` — a growable bit vector mirroring
  ``java.util.BitSet``, used for per-cache-entry ``Answer`` and
  ``CGvalid`` indicators (paper, Algorithm 2).
* :mod:`repro.util.zipf` — a bounded Zipf(α) sampler used by the workload
  generators (paper §7.1, default α = 1.4).
* :mod:`repro.util.stats` — the (squared) coefficient of variation
  used by the HD replacement policy, and a percentile helper.
"""

from repro.util.bitset import BitSet
from repro.util.stats import coefficient_of_variation_squared
from repro.util.zipf import ZipfSampler

__all__ = [
    "BitSet",
    "ZipfSampler",
    "coefficient_of_variation_squared",
]
