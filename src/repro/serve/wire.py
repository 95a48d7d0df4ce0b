"""The JSON wire format of the serving sidecar.

Everything crossing the HTTP boundary is plain JSON built from the same
vocabulary the rest of the reproduction uses internally:

* a **graph** is ``{"labels": [...], "edges": [[u, v], ...]}`` — the
  JSON twin of the ``t/v/e`` exchange format (:mod:`repro.graphs.io`):
  vertex ``i`` carries ``labels[i]``, edges are undirected pairs;
* a **query result** carries the answer ids plus the per-query
  :class:`~repro.runtime.monitor.QueryMetrics` breakdown (the paper's
  reporting surface, per request instead of per run);
* an **explain receipt** is the serialized
  :class:`~repro.api.plan.QueryPlan` — what the cache did and why,
  formula application by formula application;
* a **mutation outcome** echoes the op that was applied, in the shape of
  :class:`~repro.dataset.change_plan.AppliedOp`.

Malformed payloads raise :class:`WireError`; the server maps it to a
400 with the message in the body, so clients see *why* a request was
rejected, never a stack trace.
"""

from __future__ import annotations

import math
from typing import Any

from repro.api.plan import QueryPlan
from repro.dataset.change_plan import AppliedOp
from repro.graphs.graph import LabeledGraph
from repro.runtime.monitor import QueryMetrics, QueryResult

__all__ = [
    "WireError",
    "graph_from_wire",
    "graph_to_wire",
    "metrics_to_wire",
    "applied_op_to_wire",
    "plan_to_wire",
    "result_to_wire",
    "require",
]


class WireError(ValueError):
    """A request payload that does not follow the wire format."""


_LABEL_TYPES = frozenset((str, int, float))


def require(payload: Any, key: str, kind: type | tuple[type, ...]) -> Any:
    """Fetch ``payload[key]``, type-checked; :class:`WireError` on miss.

    ``bool`` is rejected where an ``int`` is required (it is an ``int``
    subclass, but ``"graph_id": true`` is always a client bug).
    """
    if not isinstance(payload, dict):
        raise WireError(f"expected a JSON object, got {type(payload).__name__}")
    if key not in payload:
        raise WireError(f"missing required field {key!r}")
    value = payload[key]
    if not isinstance(value, kind) or (isinstance(value, bool)
                                       and kind in (int, (int,))):
        expected = (kind.__name__ if isinstance(kind, type)
                    else "/".join(k.__name__ for k in kind))
        raise WireError(
            f"field {key!r} must be {expected}, got {type(value).__name__}"
        )
    return value


# ----------------------------------------------------------------------
# Graphs
# ----------------------------------------------------------------------
def graph_to_wire(graph: LabeledGraph) -> dict[str, Any]:
    """``LabeledGraph`` → ``{"labels": [...], "edges": [[u, v], ...]}``."""
    return {
        "labels": list(graph.labels),
        "edges": sorted([u, v] for u, v in graph.edges()),
    }


def graph_from_wire(payload: Any) -> LabeledGraph:
    """Decode a wire graph, validating structure before construction."""
    labels = require(payload, "labels", list)
    edges = require(payload, "edges", list)
    # Exact types: JSON decodes to exactly these, and a bool (an int
    # subclass) is always a client bug.  Python's decoder also accepts
    # NaN, Infinity and overflowing literals (1e400); NaN equals no
    # label, itself included, so matchers that compare labels and
    # matchers that probe dicts would answer differently.
    for label in labels:
        if type(label) not in _LABEL_TYPES:
            raise WireError(
                f"labels must be JSON strings or numbers, got {label!r}"
            )
        if type(label) is float and not math.isfinite(label):
            raise WireError(f"labels must be finite numbers, got {label!r}")
    for pair in edges:
        if not (type(pair) is list and len(pair) == 2
                and type(pair[0]) is int and type(pair[1]) is int):
            raise WireError(f"edges must be [u, v] integer pairs, got {pair!r}")
    try:
        return LabeledGraph.from_edges(labels, edges)
    except (ValueError, IndexError) as exc:
        raise WireError(str(exc)) from exc


# ----------------------------------------------------------------------
# Query results and metrics
# ----------------------------------------------------------------------
def metrics_to_wire(metrics: QueryMetrics) -> dict[str, Any]:
    """The per-query breakdown a client sees next to its answer."""
    return {
        "method_tests": metrics.method_tests,
        "candidate_size": metrics.candidate_size,
        "pruned_candidate_size": metrics.pruned_candidate_size,
        "tests_saved": metrics.tests_saved,
        "containing_hits": metrics.containing_hits,
        "contained_hits": metrics.contained_hits,
        "exact_hits": metrics.exact_hits,
        "exact_hit_valid": metrics.exact_hit_valid,
        "empty_shortcut": metrics.empty_shortcut,
        "query_ms": metrics.query_seconds * 1000.0,
        "overhead_ms": metrics.overhead_seconds * 1000.0,
    }


def result_to_wire(result: QueryResult) -> dict[str, Any]:
    return {
        "answer_ids": list(result.answer),
        "metrics": metrics_to_wire(result.metrics),
    }


# ----------------------------------------------------------------------
# Mutation outcomes
# ----------------------------------------------------------------------
def applied_op_to_wire(op: AppliedOp) -> dict[str, Any]:
    return {
        "op": op.op.name,
        "graph_id": op.graph_id,
        "edge": list(op.edge) if op.edge is not None else None,
    }


# ----------------------------------------------------------------------
# Explain receipts
# ----------------------------------------------------------------------
def plan_to_wire(plan: QueryPlan) -> dict[str, Any]:
    """Serialize a :class:`QueryPlan` receipt, structured + rendered.

    The structured fields let ops tooling aggregate (hit counts, tests
    saved per entry); ``describe`` carries the human rendering so a
    ``curl | jq -r .describe`` reads like the CLI's ``--explain``.
    """
    return {
        "query_vertices": plan.query_vertices,
        "query_edges": plan.query_edges,
        "candidate_size": plan.candidate_size,
        "containing_hits": list(plan.containing_hits),
        "contained_hits": list(plan.contained_hits),
        "exact_hits": list(plan.exact_hits),
        "internal_tests": plan.internal_tests,
        "steps": [
            {
                "formula": step.formula,
                "entry_id": step.entry_id,
                "affected_ids": sorted(step.affected_ids),
            }
            for step in plan.steps
        ],
        "test_free_answers": sorted(plan.test_free_answers),
        "reduced_candidates": sorted(plan.reduced_candidates),
        "tests_saved": plan.tests_saved,
        "exact_hit": plan.exact_hit,
        "empty_shortcut": plan.empty_shortcut,
        "is_hit": plan.is_hit,
        "pending_log_records": plan.pending_log_records,
        "describe": plan.describe(),
    }
