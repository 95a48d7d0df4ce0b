"""Subgraph-isomorphism (sub-iso) algorithms — the paper's "Method M".

The paper evaluates GC+ over three well-established SI methods (§7.1):

* **VF2** (vanilla) — Cordella et al. [3]; :mod:`repro.matching.vf2`.
* **VF2+** — the modified VF2 of the CT-index work [11], with a
  rarity/connectivity-driven variable order and stronger pruning;
  :mod:`repro.matching.vf2plus`.
* **GraphQL** — He & Singh's algorithm as packaged by [14], with
  neighborhood-profile candidate filtering, arc-consistency style global
  refinement, and least-candidates-first search;
  :mod:`repro.matching.graphql`.

These three are the whole registry; the test suite keeps its oracles (an
Ullmann matcher, an embedding enumerator, the pre-plan kernels) itself.

All matchers decide *non-induced* subgraph isomorphism of labeled
undirected graphs — the decision problem; GC+ only needs Y/N per dataset
graph (§2).  Every matcher counts its search states so benchmarks can
report deterministic work metrics alongside wall-clock time.
"""

from repro.matching.base import MatcherStats, SubgraphMatcher
from repro.matching.graphql import GraphQLMatcher
from repro.matching.vf2 import VF2Matcher
from repro.matching.vf2plus import VF2PlusMatcher

MATCHERS = {
    "vf2": VF2Matcher,
    "vf2+": VF2PlusMatcher,
    "graphql": GraphQLMatcher,
}


def make_matcher(name: str) -> SubgraphMatcher:
    """Instantiate a matcher by its paper name (``vf2``, ``vf2+``, ``graphql``)."""
    try:
        return MATCHERS[name.lower()]()
    except KeyError:
        raise ValueError(
            f"unknown matcher {name!r}; choose from {sorted(MATCHERS)}"
        ) from None


__all__ = [
    "SubgraphMatcher",
    "MatcherStats",
    "VF2Matcher",
    "VF2PlusMatcher",
    "GraphQLMatcher",
    "MATCHERS",
    "make_matcher",
]
