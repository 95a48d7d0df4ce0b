"""Labeled undirected graphs and supporting algorithms.

GC+ operates on undirected vertex-labeled graphs (paper §3):
``G = (V, E, l)`` with ``l : V → U``.  This package provides:

* :class:`repro.graphs.graph.LabeledGraph` — the mutable graph type used
  for dataset graphs and query graphs alike;
* :mod:`repro.graphs.features` — monotone feature vectors used by the
  cache's query index to filter sub/supergraph candidates;
* :mod:`repro.graphs.generators` — random graph constructions used by the
  synthetic datasets;
* :mod:`repro.graphs.io` — a line-based serialization (compatible with the
  common ``t # i / v / e`` exchange format used for AIDS-style datasets).
"""

from repro.graphs.features import GraphFeatures
from repro.graphs.graph import LabeledGraph

__all__ = ["LabeledGraph", "GraphFeatures"]
