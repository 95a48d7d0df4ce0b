"""Line-based graph (de)serialization.

Implements the de-facto exchange format used by graph-indexing papers and
the AIDS dataset distributions::

    t # <graph-id>
    v <vertex-id> <label>
    e <u> <v> [<edge-label>]

Edge labels are accepted on input and ignored (GC+ follows the paper in
using vertex labels only); on output a ``0`` placeholder is written for
compatibility with third-party tools.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from pathlib import Path

from repro.graphs.graph import LabeledGraph

__all__ = ["dumps", "loads", "dump_file", "load_file"]


def dumps(graphs: Iterable[tuple[int, LabeledGraph]]) -> str:
    """Serialize ``(graph_id, graph)`` pairs into the ``t/v/e`` format."""
    lines: list[str] = []
    for graph_id, g in graphs:
        lines.append(f"t # {graph_id}")
        for v in g.vertices():
            lines.append(f"v {v} {g.label(v)}")
        for u, v in sorted(g.edges()):
            lines.append(f"e {u} {v} 0")
    lines.append("")
    return "\n".join(lines)


def loads(text: str) -> list[tuple[int, LabeledGraph]]:
    """Parse the ``t/v/e`` format into ``(graph_id, graph)`` pairs."""
    return list(_parse(text.splitlines()))


def _ids(fields: list[str], count: int, lineno: int) -> list[int]:
    """The first ``count`` fields of a record as integer ids."""
    if len(fields) < count:
        raise ValueError(
            f"line {lineno}: record needs {count} id field(s), "
            f"got {len(fields)}"
        )
    try:
        return [int(token) for token in fields[:count]]
    except ValueError:
        raise ValueError(
            f"line {lineno}: non-integer id in {fields[:count]}"
        ) from None


def _parse(lines: Iterable[str]) -> Iterator[tuple[int, LabeledGraph]]:
    current: LabeledGraph | None = None
    current_id: int | None = None
    vertex_map: dict[int, int] = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        tag = parts[0]
        if tag == "t":
            if current is not None:
                assert current_id is not None
                yield current_id, current
            # Accept both "t # 5" and "t 5".
            fields = parts[2:] if parts[1:2] == ["#"] else parts[1:]
            (current_id,) = _ids(fields, 1, lineno)
            if current_id == -1:  # conventional end-of-file sentinel
                current = None
                current_id = None
                continue
            current = LabeledGraph()
            vertex_map = {}
        elif tag == "v":
            if current is None:
                raise ValueError(f"line {lineno}: vertex before graph header")
            (declared,) = _ids(parts[1:], 1, lineno)
            label = " ".join(parts[2:]) if len(parts) > 2 else ""
            vertex_map[declared] = current.add_vertex(label)
        elif tag == "e":
            if current is None:
                raise ValueError(f"line {lineno}: edge before graph header")
            u, v = _ids(parts[1:], 2, lineno)
            try:
                current.add_edge(vertex_map[u], vertex_map[v])
            except KeyError as exc:
                raise ValueError(
                    f"line {lineno}: edge references unknown vertex {exc}"
                ) from exc
        else:
            raise ValueError(f"line {lineno}: unknown record type {tag!r}")
    if current is not None:
        assert current_id is not None
        yield current_id, current


def dump_file(path: str | Path,
              graphs: Iterable[tuple[int, LabeledGraph]]) -> None:
    Path(path).write_text(dumps(graphs), encoding="utf-8")


def load_file(path: str | Path) -> list[tuple[int, LabeledGraph]]:
    return loads(Path(path).read_text(encoding="utf-8"))
