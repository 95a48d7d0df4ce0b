"""Synthetic AIDS-like molecule graphs (+ loader for the real dataset).

The paper's dataset (§7.1): *"AIDS contains 40,000 graphs, each with on
average ≈45 vertices (std.dev.: 22, max: 245) and ≈47 edges (std.dev.:
23, max: 250), whereby the few largest graphs have an order of magnitude
more vertices and edges."*

What the cache's behaviour actually depends on — and what the generator
therefore preserves:

* **size distribution** — vertex counts ~ clipped normal(45, 22) by
  default (fully configurable for scaled-down runs);
* **sparsity** — molecule graphs are a spanning skeleton plus a small
  number of rings: edges = vertices − 1 + ring surplus, giving the
  ≈47-edges-per-45-vertices profile;
* **label skew** — atom frequencies are heavily skewed toward carbon;
  the weight table below follows the published composition of the NCI
  AIDS screen compounds (C ≈ 67%, O ≈ 12%, N ≈ 9.5%, then a long tail of
  hetero-atoms).  Skew drives filter selectivity, which drives both
  Method-M cost and cache-hit structure.

If you have the real file (``t/v/e`` exchange format), load it with
:func:`load_aids_file` — everything downstream is identical.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from pathlib import Path

from repro.graphs.generators import WeightedLabelSampler, random_connected_graph
from repro.graphs.graph import LabeledGraph
from repro.graphs.io import load_file

__all__ = [
    "AIDS_LABEL_WEIGHTS",
    "AidsLikeConfig",
    "generate_aids_like",
    "load_aids_file",
]

#: Approximate atom-frequency table of the NCI AIDS screen compounds.
#: Relative weights; only the shape (strong skew, long tail) matters.
AIDS_LABEL_WEIGHTS: dict[str, float] = {
    "C": 670.0, "O": 120.0, "N": 95.0, "S": 17.0, "Cl": 13.0,
    "F": 8.0, "P": 6.0, "Br": 4.0, "Si": 2.0, "I": 1.5,
    "Na": 1.2, "B": 0.8, "K": 0.6, "Se": 0.5, "Sn": 0.4,
    "Fe": 0.35, "Cu": 0.3, "Zn": 0.28, "Mn": 0.25, "As": 0.22,
    "Mg": 0.2, "Ca": 0.18, "Al": 0.16, "Ni": 0.15, "Co": 0.14,
    "Hg": 0.12, "Pt": 0.11, "Sb": 0.1, "Bi": 0.09, "Pb": 0.08,
    "Ti": 0.07, "Cr": 0.06, "Mo": 0.06, "W": 0.05, "Au": 0.05,
    "Ag": 0.04, "Cd": 0.04, "Pd": 0.03, "Ru": 0.03, "Ge": 0.03,
    "V": 0.02, "Zr": 0.02, "Ba": 0.02, "Li": 0.02, "Tl": 0.015,
    "Te": 0.015, "Ga": 0.01, "Nb": 0.01, "U": 0.01, "Re": 0.01,
    "Os": 0.008, "Ir": 0.008, "Rh": 0.008, "Sr": 0.007, "La": 0.006,
    "Ce": 0.006, "Nd": 0.005, "Sm": 0.005, "Eu": 0.004, "Gd": 0.004,
    "Dy": 0.003, "Er": 0.003,
}  # 62 labels, as reported for AIDS in the indexing literature


@dataclass(frozen=True)
class AidsLikeConfig:
    """Knobs for the synthetic generator.

    Paper-scale defaults; benchmarks pass smaller ``num_graphs`` /
    ``mean_vertices`` to fit pure-Python budgets (README, "Benchmarks").
    """

    num_graphs: int = 40_000
    mean_vertices: float = 45.0
    std_vertices: float = 22.0
    min_vertices: int = 4
    max_vertices: int = 245
    mean_ring_edges: float = 2.5   # edge surplus beyond the spanning tree
    seed: int = 2017

    def __post_init__(self) -> None:
        if self.num_graphs <= 0:
            raise ValueError(f"num_graphs must be positive, got {self.num_graphs}")
        if self.min_vertices < 2:
            raise ValueError(f"min_vertices must be >= 2, got {self.min_vertices}")
        if self.max_vertices < self.min_vertices:
            raise ValueError("max_vertices must be >= min_vertices")
        if not math.isfinite(self.mean_vertices):
            raise ValueError(
                f"mean_vertices must be finite, got {self.mean_vertices}")
        if not (math.isfinite(self.std_vertices) and self.std_vertices >= 0):
            raise ValueError("std_vertices must be finite and >= 0, "
                             f"got {self.std_vertices}")
        if not (math.isfinite(self.mean_ring_edges)
                and self.mean_ring_edges > 0):
            raise ValueError("mean_ring_edges must be finite and > 0, "
                             f"got {self.mean_ring_edges}")


def generate_aids_like(config: AidsLikeConfig | None = None,
                       **overrides: object) -> list[LabeledGraph]:
    """Generate a synthetic AIDS-like dataset.

    Accepts either a full :class:`AidsLikeConfig` or keyword overrides of
    the defaults::

        graphs = generate_aids_like(num_graphs=300, mean_vertices=16)
    """
    if config is None:
        config = AidsLikeConfig(**overrides)  # type: ignore[arg-type]
    elif overrides:
        raise TypeError("pass either a config object or overrides, not both")
    rng = random.Random(config.seed)
    labels = WeightedLabelSampler(AIDS_LABEL_WEIGHTS, rng)
    graphs: list[LabeledGraph] = []
    for _ in range(config.num_graphs):
        n = int(round(rng.gauss(config.mean_vertices, config.std_vertices)))
        n = max(config.min_vertices, min(config.max_vertices, n))
        ring_edges = max(0, int(round(rng.expovariate(
            1.0 / config.mean_ring_edges))))
        graphs.append(
            random_connected_graph(labels.sample_many(n), ring_edges, rng)
        )
    return graphs


def load_aids_file(path: str | Path) -> list[LabeledGraph]:
    """Load the real AIDS dataset (``t/v/e`` format), ordered by file id."""
    pairs = load_file(path)
    pairs.sort(key=lambda item: item[0])
    return [g for _, g in pairs]
