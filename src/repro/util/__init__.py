"""Foundational utilities shared across the GC+ reproduction.

The paper's reference implementation is written in Java and leans on a few
standard-library primitives that have no exact Python equivalent; this
package provides faithful substitutes:

* :func:`repro.util.bits.bit_ids` — the ascending id walk over a plain
  ``int`` used as an id set (bit *i* set ⟺ graph id *i*); per-entry
  ``Answer`` and ``CGvalid`` (paper, Algorithm 2) are such ints.
* :mod:`repro.util.zipf` — a bounded Zipf(α) sampler used by the workload
  generators (paper §7.1, default α = 1.4).
* :mod:`repro.util.stats` — the (squared) coefficient of variation
  used by the HD replacement policy, and a percentile helper.
"""

from repro.util.bits import bit_ids
from repro.util.stats import coefficient_of_variation_squared
from repro.util.zipf import ZipfSampler

__all__ = [
    "bit_ids",
    "ZipfSampler",
    "coefficient_of_variation_squared",
]
