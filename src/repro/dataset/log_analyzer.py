"""Log Analyzer — Algorithm 1 of the paper.

Extracts the incremental (not-yet-reflected) records from the dataset
update log and buckets them into three per-graph counters:

* ``CT`` — total operations touching the graph;
* ``CA`` — UA (edge-addition) operations only;
* ``CR`` — UR (edge-removal) operations only.

The Cache Validator (Algorithm 2) then inspects, per touched graph,
whether the operations were *UA-exclusive* (``CT == CA``) or
*UR-exclusive* (``CT == CR``) to decide which cached relations survive.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.dataset.log import OpType, UpdateLog

__all__ = ["ChangeCounters", "analyze_log"]


@dataclass
class ChangeCounters:
    """The counter container ``C`` of Algorithm 1.

    Maps are keyed by dataset-graph id, mirroring the paper's HashMaps.
    """

    total: dict[int, int] = field(default_factory=dict)       # CT
    edge_added: dict[int, int] = field(default_factory=dict)  # CA
    edge_removed: dict[int, int] = field(default_factory=dict)  # CR

    def is_empty(self) -> bool:
        return not self.total

    def ua_exclusive(self, graph_id: int) -> bool:
        """All operations on ``graph_id`` were UA (``tc == uac``)."""
        return self.total.get(graph_id, 0) == self.edge_added.get(graph_id, 0)

    def ur_exclusive(self, graph_id: int) -> bool:
        """All operations on ``graph_id`` were UR (``tc == urc``)."""
        return self.total.get(graph_id, 0) == self.edge_removed.get(graph_id, 0)


def analyze_log(log: UpdateLog, cursor: int) -> tuple[ChangeCounters, int]:
    """Algorithm 1: categorize operations past ``cursor``.

    Returns the filled counter container and the new cursor (the last
    sequence number consumed), so the caller can advance its
    reflected-up-to watermark atomically with validation.
    """
    counters = ChangeCounters()
    new_cursor = cursor
    for record in log.records_since(cursor):
        gid = record.graph_id
        if record.op is OpType.UA:
            counters.edge_added[gid] = counters.edge_added.get(gid, 0) + 1
        elif record.op is OpType.UR:
            counters.edge_removed[gid] = counters.edge_removed.get(gid, 0) + 1
        counters.total[gid] = counters.total.get(gid, 0) + 1
        new_cursor = record.seq
    return counters, new_cursor
