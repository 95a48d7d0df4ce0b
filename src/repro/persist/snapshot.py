"""Versioned JSON-lines snapshot codec for the GC+ cache.

A snapshot file is plain JSON-lines (one JSON object per line, UTF-8):

* **line 1 — header**: format tag, codec ``version``, the saving
  service's config fingerprint, the stream position
  (``query_counter``), ``next_entry_id``, the dataset ``log_cursor``,
  the replacement policy (name + HD regime tallies) and the entry
  counts that follow;
* **one line per entry**: location (``cache`` or ``window``), the query
  graph embedded as ``t/v/e`` text (the :mod:`repro.graphs.io` exchange
  idiom), the ``Answer`` and ``CGvalid`` indicators as
  ``{"size", "hex"}`` pairs (``size`` is the indicator's
  ``bit_length()``; see :func:`_decode_indicator`), and the entry's accrued
  :class:`~repro.cache.statistics.EntryStats`.

Cache entries are written in ascending ``entry_id``; window entries
follow **in FIFO order** (which the decoder preserves — it determines
the next promotion batch).  Encoding is deterministic (sorted keys, no
timestamps, floats via ``repr`` round-trip), so
``encode(decode(text)) == text`` — pinned by the round-trip tests and
handy for content-addressed storage and diffing.

Versioning: the ``version`` field gates decoding — a reader rejects
snapshots written by a *newer* codec outright rather than guessing.
Adding fields to version N is allowed only with defaults that preserve
old-file semantics; anything else bumps the version.

What a snapshot deliberately does **not** carry:

* the dataset itself — a snapshot is *derived* state over a dataset the
  caller re-provides; the ``log_cursor`` plus the consistency protocol
  reconcile the two on restore (see ``docs/persistence.md``);
* per-process instrumentation (eviction/admission tallies, monitor
  aggregates) — those describe a run, not the cache;
* vertex-label Python types: labels round-trip through ``t/v/e`` text
  as strings, the exchange contract of :mod:`repro.graphs.io`.  Every
  bundled dataset/workload uses string labels; exotic label types
  would restore as their string form (answers stay exact either way —
  discovery always verifies with real sub-iso tests).
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from dataclasses import dataclass, fields
from pathlib import Path
from typing import TYPE_CHECKING, Any

from repro.cache.entry import CacheEntry, QueryType
from repro.cache.statistics import EntryStats
from repro.graphs import io as graph_io
from repro.graphs.graph import LabeledGraph
from repro.persist.state import CacheState, EntryRecord

if TYPE_CHECKING:   # import cycle: repro.api builds on repro.persist
    from repro.api.config import GCConfig
    from repro.dataset.store import GraphStore

__all__ = [
    "SNAPSHOT_FORMAT",
    "SNAPSHOT_VERSION",
    "FINGERPRINT_FIELDS",
    "RETIRED_FINGERPRINT_FIELDS",
    "SnapshotError",
    "SnapshotFormatError",
    "SnapshotMismatchError",
    "Snapshot",
    "config_fingerprint",
    "dataset_fingerprint",
    "encode_snapshot",
    "decode_snapshot",
    "save_snapshot",
    "load_snapshot",
]

SNAPSHOT_FORMAT = "gcplus-cache-snapshot"
SNAPSHOT_VERSION = 1

#: The :class:`~repro.api.config.GCConfig` fields that determine whether
#: a snapshot's state is *meaningful* for a service: cache semantics and
#: capacities.  Pure performance knobs (``lock_mode``,
#: ``max_sessions``) are deliberately excluded — restoring a cache into
#: a differently-parallelised service is sound.
FINGERPRINT_FIELDS = (
    "model",
    "query_type",
    "matcher",
    "cache_capacity",
    "window_capacity",
    "policy",
)

#: Fingerprint keys of config fields that no longer exist.  The decoder
#: drops them at any value, so snapshots written while they did still
#: restore: none of them changed what a set ``CGvalid`` bit means
#: (``docs/persistence.md``, "Retired keys").  Any other unknown key
#: still fails the restore with :class:`SnapshotMismatchError`.
RETIRED_FINGERPRINT_FIELDS = ("internal_verifier", "retro_budget",
                              "caching_enabled")


class SnapshotError(Exception):
    """Base class for snapshot persistence failures."""


class SnapshotFormatError(SnapshotError):
    """The file is not a decodable GC+ snapshot (not UTF-8, wrong format
    tag, unsupported version, malformed or inconsistent records)."""


class SnapshotMismatchError(SnapshotError):
    """The snapshot decoded fine but cannot be restored *here*: its
    config fingerprint differs from the target service's, or it
    reflects a dataset log the target store has never seen."""


def config_fingerprint(config: GCConfig) -> dict[str, Any]:
    """The semantic subset of a config, as stored in snapshot headers.

    Two services with equal fingerprints interpret a cache state
    identically; :meth:`repro.api.service.GraphCacheService.load`
    rejects a snapshot whose fingerprint differs from its own.
    """
    as_dict = config.to_dict()
    return {name: as_dict[name] for name in FINGERPRINT_FIELDS}


def dataset_fingerprint(store: GraphStore) -> dict[str, Any]:
    """Identity of the dataset a cache state was derived over.

    ``Answer``/``CGvalid`` bits are indexed by *this dataset's* graph
    ids; restored against any other dataset they would silently alias
    foreign graphs, so the snapshot records a content digest (stable
    SHA-256 over ids, labels and edges — never the process-salted
    ``hash()``) plus the id high-water mark and live count.  The digest
    describes the dataset **at the snapshot's log cursor**; restore can
    therefore verify it exactly only when the target log has not moved
    past that cursor (see :meth:`GraphCacheService.restore`).
    """
    digest = hashlib.sha256()
    for gid in sorted(store.ids()):
        graph = store.get(gid)
        digest.update(
            f"g{gid}:{graph.num_vertices}:{graph.num_edges}\n".encode()
        )
        for v in graph.vertices():
            digest.update(f"v{v}:{graph.label(v)!r}\n".encode())
        for u, v in sorted(graph.edges()):
            digest.update(f"e{u},{v}\n".encode())
    return {
        "digest": digest.hexdigest(),
        "max_id": store.max_id,
        "live_graphs": len(store),
    }


@dataclass(frozen=True)
class Snapshot:
    """A decoded snapshot: header metadata + the cache state proper."""

    fingerprint: dict[str, Any]
    query_counter: int
    state: CacheState
    dataset: dict[str, Any] | None = None
    version: int = SNAPSHOT_VERSION


# ----------------------------------------------------------------------
# Field-level encoding
# ----------------------------------------------------------------------
def _encode_indicator(bits: int) -> dict[str, Any]:
    return {"size": bits.bit_length(), "hex": format(bits, "x")}


def _decode_indicator(obj: Any, what: str) -> int:
    """The ``int`` an encoded indicator holds.

    ``size`` carries no meaning of its own any more — ids past an
    indicator's ``bit_length()`` read 0 — but version-1 files have it
    (older writers recorded a logical length, which may exceed the
    ``bit_length()``), and it is still a corruption check: a
    non-integer or negative ``size``, or hex with a bit at or past
    ``size``, is rejected.  It is dropped once checked.
    """
    try:
        size, digits = obj["size"], obj["hex"]
        if not isinstance(size, int) or size < 0:
            raise ValueError(f"size must be a non-negative integer, "
                             f"got {size!r}")
        bits = int(digits, 16) if digits else 0
        if bits < 0:
            raise ValueError(f"hex digits must encode a non-negative "
                             f"value, got {digits!r}")
        if bits >> size:
            raise ValueError(f"hex digits {digits!r} set bits beyond "
                             f"size {size}")
    except (TypeError, KeyError, ValueError) as exc:
        raise SnapshotFormatError(f"bad {what} indicator: {exc}") from exc
    return bits


def _encode_graph(graph: LabeledGraph) -> str:
    return graph_io.dumps([(0, graph)])


def _decode_graph(text: Any) -> LabeledGraph:
    try:
        pairs = graph_io.loads(text)
    except (TypeError, AttributeError, ValueError) as exc:
        raise SnapshotFormatError(f"bad query graph: {exc}") from exc
    if len(pairs) != 1:
        raise SnapshotFormatError(
            f"entry must embed exactly one query graph, found {len(pairs)}"
        )
    return pairs[0][1]


_STATS_FIELDS = tuple(f.name for f in fields(EntryStats))


def _encode_entry(where: str, record: EntryRecord) -> dict[str, Any]:
    entry, stats = record.entry, record.stats
    return {
        "where": where,
        "entry_id": entry.entry_id,
        "created_at": entry.created_at,
        "query_type": entry.query_type.value,
        "query": _encode_graph(entry.query),
        "answer": _encode_indicator(entry.answer),
        "valid": _encode_indicator(entry.valid),
        "stats": {name: getattr(stats, name) for name in _STATS_FIELDS},
    }


def _decode_entry(obj: dict[str, Any], lineno: int) -> tuple[str, EntryRecord]:
    where = obj.get("where")
    if where not in ("cache", "window"):
        raise SnapshotFormatError(
            f"line {lineno}: entry 'where' must be 'cache' or 'window', "
            f"got {where!r}"
        )
    try:
        query_type = QueryType(obj["query_type"])
        entry = CacheEntry(
            entry_id=int(obj["entry_id"]),
            query=_decode_graph(obj["query"]),
            query_type=query_type,
            answer=_decode_indicator(obj["answer"], "answer"),
            valid=_decode_indicator(obj["valid"], "valid"),
            created_at=int(obj["created_at"]),
        )
        raw_stats = obj["stats"]
        stats = EntryStats(**{name: raw_stats[name]
                              for name in _STATS_FIELDS})
    except SnapshotFormatError as exc:
        raise SnapshotFormatError(f"line {lineno}: {exc}") from exc
    except (TypeError, KeyError, ValueError) as exc:
        raise SnapshotFormatError(
            f"line {lineno}: malformed entry record: {exc!r}"
        ) from exc
    return where, EntryRecord(entry=entry, stats=stats)


# ----------------------------------------------------------------------
# Whole-snapshot encoding
# ----------------------------------------------------------------------
def _dump_line(obj: dict[str, Any]) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def encode_snapshot(snapshot: Snapshot) -> str:
    """Serialise to the JSON-lines wire form (deterministic)."""
    state = snapshot.state
    header = {
        "format": SNAPSHOT_FORMAT,
        "version": snapshot.version,
        "fingerprint": snapshot.fingerprint,
        "dataset": snapshot.dataset,
        "query_counter": snapshot.query_counter,
        "next_entry_id": state.next_entry_id,
        "log_cursor": state.log_cursor,
        "policy": {
            "name": state.policy_name,
            "pin_rounds": state.pin_rounds,
            "pinc_rounds": state.pinc_rounds,
        },
        "entries": {"cache": len(state.cache), "window": len(state.window)},
    }
    lines = [_dump_line(header)]
    lines.extend(_dump_line(_encode_entry("cache", record))
                 for record in state.cache)
    lines.extend(_dump_line(_encode_entry("window", record))
                 for record in state.window)
    return "\n".join(lines) + "\n"


def decode_snapshot(text: str) -> Snapshot:
    """Parse and validate the JSON-lines wire form."""
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise SnapshotFormatError("empty snapshot file")
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        raise SnapshotFormatError(f"header is not JSON: {exc}") from exc
    if not isinstance(header, dict) or header.get("format") != SNAPSHOT_FORMAT:
        raise SnapshotFormatError(
            f"not a GC+ cache snapshot (format tag "
            f"{header.get('format') if isinstance(header, dict) else None!r})"
        )
    version = header.get("version")
    if not isinstance(version, int) or not 1 <= version <= SNAPSHOT_VERSION:
        raise SnapshotFormatError(
            f"snapshot codec version {version!r} is not supported by this "
            f"reader (understands 1..{SNAPSHOT_VERSION}); upgrade the "
            f"software, not the snapshot"
        )
    try:
        fingerprint = dict(header["fingerprint"])
        for retired in RETIRED_FINGERPRINT_FIELDS:
            fingerprint.pop(retired, None)
        raw_dataset = header.get("dataset")
        dataset = dict(raw_dataset) if raw_dataset is not None else None
        query_counter = int(header["query_counter"])
        next_entry_id = int(header["next_entry_id"])
        log_cursor = int(header["log_cursor"])
        policy = header["policy"]
        policy_name = str(policy["name"])
        pin_rounds = int(policy["pin_rounds"])
        pinc_rounds = int(policy["pinc_rounds"])
        expected = header["entries"]
        expected_cache = int(expected["cache"])
        expected_window = int(expected["window"])
    except (TypeError, KeyError, ValueError) as exc:
        raise SnapshotFormatError(
            f"malformed snapshot header: {exc!r}"
        ) from exc
    if fingerprint.get("policy", policy_name) != policy_name:
        raise SnapshotFormatError(
            f"inconsistent snapshot header: policy {policy_name!r} "
            f"contradicts the fingerprint's {fingerprint['policy']!r}"
        )

    cache: list[EntryRecord] = []
    window: list[EntryRecord] = []
    seen_ids: set[int] = set()
    for lineno, line in enumerate(lines[1:], start=2):
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise SnapshotFormatError(
                f"line {lineno} is not JSON: {exc}"
            ) from exc
        where, record = _decode_entry(obj, lineno)
        entry_id = record.entry.entry_id
        if entry_id in seen_ids:
            raise SnapshotFormatError(
                f"line {lineno}: duplicate entry id {entry_id}"
            )
        if entry_id >= next_entry_id:
            raise SnapshotFormatError(
                f"line {lineno}: entry id {entry_id} is not below the "
                f"header's next_entry_id {next_entry_id}"
            )
        seen_ids.add(entry_id)
        (cache if where == "cache" else window).append(record)
    if len(cache) != expected_cache or len(window) != expected_window:
        raise SnapshotFormatError(
            f"truncated or padded snapshot: header promises "
            f"{expected_cache} cache + {expected_window} window entries, "
            f"found {len(cache)} + {len(window)}"
        )
    return Snapshot(
        fingerprint=fingerprint,
        dataset=dataset,
        query_counter=query_counter,
        state=CacheState(
            cache=cache,
            window=window,
            next_entry_id=next_entry_id,
            log_cursor=log_cursor,
            policy_name=policy_name,
            pin_rounds=pin_rounds,
            pinc_rounds=pinc_rounds,
        ),
        version=version,
    )


# ----------------------------------------------------------------------
# File I/O
# ----------------------------------------------------------------------
def save_snapshot(path: str | Path, snapshot: Snapshot) -> Path:
    """Write atomically: a uniquely named temp file in the target
    directory, fsynced, then ``os.replace``d over the destination — a
    crashed autosave can never leave a torn snapshot behind, and two
    *processes* saving to the same path (an autosaving server plus an
    operator's ``run --save-snapshot``) cannot clobber each other's
    in-progress writes; last ``replace`` wins with a complete file."""
    target = Path(path)
    data = encode_snapshot(snapshot)
    handle = tempfile.NamedTemporaryFile(
        "w", encoding="utf-8", dir=target.parent,
        prefix=target.name + ".", suffix=".tmp", delete=False,
    )
    try:
        with handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(handle.name, target)
    except BaseException:
        try:
            os.unlink(handle.name)
        except OSError:
            pass
        raise
    return target


def load_snapshot(path: str | Path) -> Snapshot:
    """Read and decode one snapshot file (bytes that are not UTF-8 are a
    :class:`SnapshotFormatError`, like any other corruption)."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise SnapshotFormatError(f"snapshot is not UTF-8: {exc}") from exc
    return decode_snapshot(text)
