"""Explain plans — what the cache *would* do for a query, and why.

:meth:`~repro.api.service.GraphCacheService.explain` runs the pipeline's
own hit discovery and pruning formulas (1)-(5) read-only and returns a
:class:`QueryPlan`: the containment hits found, the per-entry formula
applications (donations and filters), the test-free answers, and the
reduced candidate set the Method-M verifier would receive.  Nothing is
admitted, credited, validated or recorded — the plan separates "what the
cache decided" from "what the matcher executed".
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["PlanStep", "QueryPlan"]


@dataclass(frozen=True)
class PlanStep:
    """One pruning-formula application by one cached entry."""

    formula: str              # e.g. "(1) answer donation", "(4)+(5) filter"
    entry_id: int             # the contributing cache entry
    affected_ids: frozenset[int]  # dataset-graph ids donated / filtered out

    def __str__(self) -> str:
        return (f"{self.formula} by entry #{self.entry_id}: "
                f"{len(self.affected_ids)} graph(s)")


@dataclass(frozen=True)
class QueryPlan:
    """A structured receipt for one prospective query execution.

    All fields describe the cache state *as it currently stands*; when
    ``pending_log_records > 0`` the dataset has changed since the cache
    last validated and an actual ``execute()`` would first run the
    consistency protocol (possibly shrinking the hits below).
    """

    query_vertices: int
    query_edges: int
    candidate_size: int            # |CS_M| — the full live dataset
    containing_hits: tuple[int, ...]   # entry ids with g ⊆ g'
    contained_hits: tuple[int, ...]    # entry ids with g'' ⊆ g
    exact_hits: tuple[int, ...]        # entry ids isomorphic to g
    internal_tests: int            # discovery verification cost
    steps: tuple[PlanStep, ...] = ()
    test_free_answers: frozenset[int] = frozenset()  # formula (1) donations
    reduced_candidates: frozenset[int] = frozenset()  # CS_GC+ for Mverifier
    exact_hit: bool = False        # §6.3 optimal case 1
    empty_shortcut: bool = False   # §6.3 optimal case 2
    pending_log_records: int = 0   # dataset changes not yet validated

    @property
    def tests_saved(self) -> int:
        """Sub-iso tests the cache removes from the critical path."""
        return self.candidate_size - len(self.reduced_candidates)

    @property
    def is_hit(self) -> bool:
        return bool(self.containing_hits or self.contained_hits)

    def describe(self) -> str:
        """A human-readable rendering of the plan."""
        lines = [
            f"query: |V|={self.query_vertices} |E|={self.query_edges}",
            f"candidate set: {self.candidate_size} live graphs",
            f"hits: {len(self.containing_hits)} containing, "
            f"{len(self.contained_hits)} contained, "
            f"{len(self.exact_hits)} exact "
            f"({self.internal_tests} internal tests)",
        ]
        for step in self.steps:
            lines.append(f"  {step}")
        lines.append(
            f"test-free answers: {len(self.test_free_answers)}; "
            f"reduced candidates: {len(self.reduced_candidates)} "
            f"({self.tests_saved} tests saved)"
        )
        if self.exact_hit:
            lines.append("optimal case: fully-valid exact hit (zero tests)")
        if self.empty_shortcut:
            lines.append("optimal case: empty-answer shortcut (zero tests)")
        if self.pending_log_records:
            lines.append(
                f"warning: {self.pending_log_records} dataset change(s) "
                f"pending validation — execute() would reconcile them first"
            )
        return "\n".join(lines)
