"""Feature-based index over cached queries — the iGQ substrate ([25]).

When a query ``g`` arrives, the GC+sub / GC+super processors must find
cached queries ``g'`` with ``g ⊆ g'`` and ``g'' ⊆ g``.  Testing all
cached queries with a sub-iso verifier would itself be costly, so —
following the authors' earlier "indexing query graphs" work — the index
keeps monotone features per cached query and filters impossible
directions before verification:

* ``g ⊆ g'`` requires ``features(g) ≤ features(g')`` componentwise;
* ``g'' ⊆ g`` requires ``features(g'') ≤ features(g)``.

Filtering is *complete* (never discards a true containment — guaranteed
by :class:`repro.graphs.features.GraphFeatures` and property-tested), so
GC+ misses no hits; verification of survivors is exact.

Index organisation
------------------
A flat scan running the componentwise feature comparison against every
cached entry per query made the cache itself the bottleneck at scale,
so lookups are served from an inverted structure maintained
incrementally on admit/evict/purge:

* entries are **bucketed by** ``(num_vertices, num_edges)``; a lookup
  only touches buckets that can satisfy the monotone size-dominance
  check (``≥`` the query's sizes for the supergraph direction, ``≤``
  for the subgraph direction), skipping whole groups of entries with
  two integer comparisons;
* the dominance test itself runs on **packed feature signatures**: all
  monotone components of an entry's features (vertex/edge counts,
  per-label counts, per-label-pair edge counts, and per-label counts of
  vertices with degree ≥ d) are packed into fixed-width fields of one
  Python big integer, with a guard bit atop each field.  Componentwise
  ``query ≤ entry`` then collapses to three C-level big-int operations
  — ``((entry | guards) - query) & query_guards == query_guards`` — the
  classic SWAR borrow trick: a field's guard bit survives the
  subtraction iff that field did not underflow, i.e. iff the entry's
  count dominates the query's;
* entries with **identical feature vectors share one signature group**
  (the packed signature is a bijective encoding, so it doubles as the
  group key).  The paper's Zipf-repeating workloads make duplicated
  cached queries the norm, so each lookup pays one dominance test per
  *distinct* signature rather than per entry.

Next to the feature structure the index keeps one exact map, from the
**structural key** of every resident query (its labels and degrees in
vertex order) to the entries of that key, among which graph equality —
same labels, same edges, same vertex numbering: identity, not
isomorphism — picks the one an arrival is identical to.  That is the
common case under the paper's repeating workloads, and everything that
depends on one graph alone — its features, its packed signature, the
matchers' compiled plans on its memo — already sits on that resident;
:meth:`QueryIndex.identical_resident` finds it with one dict probe and
one comparison, so the pipeline can run the arrival *as* the resident,
and a new entry of that structure shares the resident's graph instead
of copying it.  A query's packed signature is memoised on its
:class:`GraphFeatures` (a complete one for good, as field offsets are
append-only), so an arrival run on a resident's features finds it
there.

The signature test is *exactly* equivalent to
:meth:`GraphFeatures.may_be_subgraph_of` (for the degree component:
positional dominance of descending degree sequences ⟺ for every ``d``,
the count of vertices with degree ≥ ``d`` dominates), so lookups return
*identical* candidate pools to a linear scan — same entries, in the
same ascending-``entry_id`` order the historical dict-scan produced —
which the property tests assert against the brute-force scan.
"""

from __future__ import annotations

from repro.cache.entry import CacheEntry
from repro.graphs.features import GraphFeatures
from repro.graphs.graph import LabeledGraph

__all__ = ["QueryIndex"]

#: Bits per packed field; counts must stay below the guard bit.  16
#: bits keeps the packed integers half the size of a 32-bit layout
#: (bigint ops scale with byte length) while allowing graphs of up to
#: 32767 vertices/edges — far beyond the workloads' query sizes.
#: Graphs that do exceed it are still served exactly, through the
#: unpacked fallback below.
_WIDTH = 16
_GUARD = 1 << (_WIDTH - 1)
_MAX_COUNT = _GUARD - 1

#: Degree levels packed per label: one field per ``d`` in ``1..degree``.
#: Unbounded, a single admitted star-of-degree-20000 query would
#: permanently register 20000 fields and inflate every signature, so
#: graphs with a vertex degree beyond this go to the unpacked overflow
#: population instead (the paper's workloads peak around degree ~20).
_MAX_DEGREE_LEVELS = 64


class _FieldOverflow(Exception):
    """Features don't fit the packed layout (gigantic or ultra-dense
    graph); the owner is served through the unpacked fallback."""


def _overflows(features: GraphFeatures) -> bool:
    """True when ``features`` cannot be packed: a count beyond the
    field width (label/pair/degree counts are all bounded by the vertex
    and edge counts, so checking those two suffices) or a vertex degree
    beyond the per-label field budget."""
    if (features.num_vertices > _MAX_COUNT
            or features.num_edges > _MAX_COUNT):
        return True
    return any(
        degs and degs[0] > _MAX_DEGREE_LEVELS
        for degs in features.degrees_by_label.values()
    )


def _feature_fields(features: GraphFeatures):
    """Yield ``(field_key, count)`` for every monotone component.

    Zero counts are never yielded: a zero imposes no dominance
    constraint and packs to no bits.
    """
    if features.num_vertices:
        yield ("#v",), features.num_vertices
    if features.num_edges:
        yield ("#e",), features.num_edges
    for label, count in features.label_counts.items():
        yield ("l", label), count
    for pair, count in features.edge_label_counts.items():
        yield ("p", pair), count
    for label, degs in features.degrees_by_label.items():
        # degs is sorted descending; count of vertices with degree >= d
        # for every d present.  Positional dominance of the sorted
        # sequences is equivalent to dominance of these tail counts.
        if not degs or degs[0] == 0:
            continue
        remaining = len(degs)
        i = 0
        for d in range(1, degs[0] + 1):
            while i < len(degs) and degs[len(degs) - 1 - i] < d:
                i += 1
            remaining = len(degs) - i
            if remaining == 0:
                break
            yield ("d", label, d), remaining


def _structural_key(graph: LabeledGraph) -> tuple:
    """What ``graph`` is filed under in the structural map: its labels
    and degrees in vertex order.  Identical graphs have equal keys;
    graph equality (same labels, same edges, same numbering — an
    isomorphic relabelling is another graph) then decides among the few
    entries sharing one.  Labels go by ``repr``, the way
    :class:`GraphFeatures` keys them, so that graphs of one key *and*
    equal under ``==`` have equal features: ``1``, ``1.0`` and ``True``
    hash and compare equal, their features do not."""
    return (tuple(map(repr, graph._labels)),
            tuple(map(len, graph._adjacency)))


class QueryIndex:
    """Containment-direction prefilter over the cache + window entries.

    Single-threaded by contract, like the owning
    :class:`~repro.cache.manager.CacheManager`: the index takes no lock,
    and the service reaches it only while holding its own.
    """

    def __init__(self) -> None:
        self._entries: dict[int, CacheEntry] = {}
        #: ``(num_vertices, num_edges)`` → ``{sig: group}`` where
        #: ``group = [sig, guard_mask, sig | all_guards, members]`` and
        #: ``members`` maps entry id → entry.  Entries with identical
        #: feature vectors — ubiquitous under the paper's Zipf-repeating
        #: workloads — share one group, so each lookup pays one dominance
        #: test per *distinct* signature, not per entry.  The packed
        #: ``sig`` itself is the group key: it encodes every (field,
        #: count) pair bijectively, so equal sigs ⟺ equal feature
        #: vectors.
        self._buckets: dict[tuple[int, int], dict[int, list]] = {}
        #: field key → bit offset (append-only, so packed signatures of
        #: existing entries stay valid as new labels/degrees appear)
        self._offsets: dict[tuple, int] = {}
        #: guard bit of every registered field
        self._all_guards = 0
        #: entry id → its group (the same list object as in the bucket)
        self._sigs: dict[int, list] = {}
        #: entries whose feature counts overflow the packed fields
        #: (gigantic graphs) — served through the unpacked feature check
        self._oversized: dict[int, CacheEntry] = {}
        #: :func:`_structural_key` → entries of that key, by id (oldest
        #: first); no key is kept for an empty population
        self._identical: dict[tuple, dict[int, CacheEntry]] = {}

    # ------------------------------------------------------------------
    # Signature packing
    # ------------------------------------------------------------------
    def _register(self, key: tuple) -> int:
        offset = self._offsets.get(key)
        if offset is None:
            offset = len(self._offsets) * _WIDTH
            self._offsets[key] = offset
            self._all_guards |= _GUARD << offset
        return offset

    def _pack_entry(self, features: GraphFeatures) -> tuple[int, int]:
        """(sig, guard_mask), growing the field registry as needed.

        Raises :class:`_FieldOverflow` for features the packed layout
        cannot represent (see :func:`_overflows`); the caller then files
        the entry in the unpacked overflow population instead.
        """
        memo = self._memo(features)
        if memo is not None and memo[2]:
            # Packed complete by a lookup: every field is registered
            # already, nothing to register now.
            return memo[0], memo[1]
        if _overflows(features):
            raise _FieldOverflow
        sig = 0
        guards = 0
        for key, count in _feature_fields(features):
            offset = self._register(key)
            sig |= count << offset
            guards |= _GUARD << offset
        return sig, guards

    def _refresh_guards(self) -> None:
        """Re-cache ``sig | all_guards`` on every group after registry
        growth.  Amortized cheap: the field registry only grows when an
        admitted entry carries a never-seen label/degree level, which
        dries up once the workload's label universe has been met."""
        all_guards = self._all_guards
        for bucket in self._buckets.values():
            for group in bucket.values():
                group[2] = group[0] | all_guards

    def _pack_query(self, features: GraphFeatures) -> tuple[int, int, bool]:
        """(sig, guard_mask, complete) against the current registry.

        ``complete`` is False when the query has a field no entry ever
        had — then nothing can dominate it (supergraph direction short-
        circuits); such fields impose no constraint on the subgraph
        direction, where entries only carry registered fields.  Raises
        :class:`_FieldOverflow` for unpackable queries (see
        :func:`_overflows`); the lookup then falls back to the unpacked
        scan.
        """
        if _overflows(features):
            raise _FieldOverflow
        sig = 0
        guards = 0
        complete = True
        offsets = self._offsets
        for key, count in _feature_fields(features):
            offset = offsets.get(key)
            if offset is None:
                complete = False
                continue
            sig |= count << offset
            guards |= _GUARD << offset
        return sig, guards, complete

    # ------------------------------------------------------------------
    # Maintenance (called by the Cache Manager on admit/evict/purge)
    # ------------------------------------------------------------------
    def add(self, entry: CacheEntry) -> None:
        if entry.entry_id in self._entries:
            # Re-adding under the same id replaces the bucket state
            # wholesale so no stale references can linger.
            self.remove(entry.entry_id)
        self._entries[entry.entry_id] = entry
        registered = len(self._offsets)
        twin = self._file_identical(entry)
        if twin is not None:
            # Equal graphs of one key have equal features: file the
            # entry where its twin is, without packing the signature.
            group = self._sigs.get(twin.entry_id)
        else:
            try:
                sig, guards = self._pack_entry(entry.features)
            except _FieldOverflow:
                group = None
            else:
                bucket = self._buckets.setdefault(
                    (entry.num_vertices, entry.num_edges), {}
                )
                group = bucket.get(sig)
                if group is None:
                    group = [sig, guards, sig | self._all_guards, {}]
                    bucket[sig] = group
        if group is None:
            self._oversized[entry.entry_id] = entry
        else:
            group[3][entry.entry_id] = entry
            self._sigs[entry.entry_id] = group
        if len(self._offsets) != registered:
            # Only here does the registry grow: re-cache the guarded
            # signatures now, so every lookup finds them fresh.
            self._refresh_guards()

    @staticmethod
    def _holding(same_key: dict[int, CacheEntry],
                 graph: LabeledGraph) -> CacheEntry | None:
        """The oldest of one key's entries whose query equals ``graph``."""
        for entry in same_key.values():
            if entry.query == graph:
                return entry
        return None

    def _file_identical(self, entry: CacheEntry) -> CacheEntry | None:
        """Enter ``entry`` in the structural map; returns the oldest
        resident entry holding the same query, if any.  The key is
        memoised on the entry's graph — immutable once cached, and one
        object for all the entries that share it."""
        key = entry.query.derived("structural_key", _structural_key)
        same_key = self._identical.get(key)
        if same_key is None:
            self._identical[key] = {entry.entry_id: entry}
            return None
        twin = self._holding(same_key, entry.query)
        same_key[entry.entry_id] = entry
        return twin

    def remove(self, entry_id: int) -> None:
        entry = self._entries.pop(entry_id, None)
        if entry is None:
            return
        group = self._sigs.pop(entry_id, None)
        if group is None:
            del self._oversized[entry_id]
        else:
            group[3].pop(entry_id, None)
            if not group[3]:
                key = (entry.num_vertices, entry.num_edges)
                bucket = self._buckets.get(key)
                if bucket is not None:
                    bucket.pop(group[0], None)
                    if not bucket:
                        del self._buckets[key]
        key = entry.query.derived("structural_key", _structural_key)
        same_key = self._identical.get(key)
        if same_key is not None:
            same_key.pop(entry_id, None)
            if not same_key:
                del self._identical[key]

    def clear(self) -> None:
        self._entries.clear()
        self._buckets.clear()
        self._sigs.clear()
        self._oversized.clear()
        self._identical.clear()
        # The field registry survives purges deliberately: offsets are
        # append-only so signatures can never be misread, and the label
        # universe of a workload is small and recurring.

    def __len__(self) -> int:
        return len(self._entries)

    @staticmethod
    def _scan(entries, predicate) -> list[CacheEntry]:
        """Unpacked filter over a (sub)population, id-ordered."""
        out = [(e.entry_id, e) for e in entries if predicate(e)]
        out.sort()
        return [entry for _, entry in out]

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def identical_resident(self, query: LabeledGraph) -> CacheEntry | None:
        """The oldest resident entry whose query *is* ``query`` — same
        labels, same edges, same vertex numbering — or ``None``.

        Read-side, and ``query`` is only read.  What it returns stands
        in for the arrival wherever one graph alone matters: the
        entry's graph (with the memo the matchers filled) and its
        features (with the packed signature memoised on them).
        """
        same_key = self._identical.get(_structural_key(query))
        return self._holding(same_key, query) if same_key else None

    def _memo(self, features: GraphFeatures) -> tuple[int, int, bool] | None:
        """What :meth:`_pack_query` returned for ``features`` against
        this index, while it still holds: a complete signature for
        good (offsets are append-only), an incomplete one until a field
        is registered (which can complete it)."""
        memo = features._packed
        if memo is not None and memo[0] is self._offsets and (
                memo[2][2] or memo[1] == len(self._offsets)):
            return memo[2]
        return None

    def _packed(self, features: GraphFeatures) -> tuple[int, int, bool]:
        """:meth:`_pack_query`, packed once: the result is memoised on
        ``features`` (keyed by this index's registry and its size),
        where the second lookup, the admission's :meth:`add` and every
        later arrival run on the same features find it.
        """
        packed = self._memo(features)
        if packed is None:
            packed = self._pack_query(features)
            object.__setattr__(features, "_packed",
                               (self._offsets, len(self._offsets), packed))
        return packed

    def candidate_supergraphs(self, features: GraphFeatures,
                              ) -> list[CacheEntry]:
        """Entries whose query might *contain* the new query
        (``g ⊆ g'`` candidates — the GC+sub processor's pool)."""
        if not self._entries:
            return []
        try:
            q_sig, q_guards, complete = self._packed(features)
        except _FieldOverflow:
            # A gigantic query: nothing packable can contain it, so only
            # the (equally gigantic) overflow population needs checking.
            return self._scan(
                self._oversized.values(),
                lambda e: features.may_be_subgraph_of(e.features),
            )
        if complete:
            nv, ne = features.num_vertices, features.num_edges
            out: list[tuple[int, CacheEntry]] = []
            for (bv, be), bucket in self._buckets.items():
                if bv < nv or be < ne:
                    continue
                # One dominance test per distinct signature: a guard bit
                # survives the subtraction iff the group's field
                # dominates the query's (see module docstring).
                for g in bucket.values():
                    if (g[2] - q_sig) & q_guards == q_guards:
                        out += g[3].items()
        else:
            # Some query feature was never packed by any entry: no
            # packed entry can contain the query.
            out = []
        for entry_id, entry in self._oversized.items():
            if features.may_be_subgraph_of(entry.features):
                out.append((entry_id, entry))
        out.sort()  # ids are unique: entries are never compared
        return [entry for _, entry in out]

    def candidate_subgraphs(self, features: GraphFeatures,
                            ) -> list[CacheEntry]:
        """Entries whose query might be *contained in* the new query
        (``g'' ⊆ g`` candidates — the GC+super processor's pool)."""
        if not self._entries:
            return []
        try:
            q_sig, _, _ = self._packed(features)
        except _FieldOverflow:
            # A gigantic query may contain anything: unpacked full scan.
            return self._scan(
                self._entries.values(),
                lambda e: e.features.may_be_subgraph_of(features),
            )
        q_guarded = q_sig | self._all_guards
        nv, ne = features.num_vertices, features.num_edges
        out: list[tuple[int, CacheEntry]] = []
        for (bv, be), bucket in self._buckets.items():
            if bv > nv or be > ne:
                continue
            for g in bucket.values():
                if (q_guarded - g[0]) & g[1] == g[1]:
                    out += g[3].items()
        for entry_id, entry in self._oversized.items():
            if entry.features.may_be_subgraph_of(features):
                out.append((entry_id, entry))
        out.sort()  # ids are unique: entries are never compared
        return [entry for _, entry in out]
