"""GraphCacheService — the service-layer session facade for GC+.

The full per-query flow of the paper (Figure 1, §4) lives here:

1. the Dataset Manager checks whether the dataset changed since the
   cache last reflected it; if so the Cache Validator runs (EVI purge,
   or CON log analysis + validity refresh);
2. the GC+sub / GC+super processors discover containment relations
   between the query and cached queries (an arrival identical to a
   resident cached query runs this step and the next two *as* that
   resident — on its graph, features, signature and compiled plans);
3. the Candidate Set Pruner applies formulas (1)-(5), producing
   test-free answers and a reduced candidate set;
4. Mverifier (Method M) sub-iso tests the reduced candidate set;
5. the executed query, its answer, and per-entry benefit statistics are
   fed back to the Cache Manager (window admission, replacement — or,
   when a resident isomorphic twin's ``CGvalid`` has faded, renewal of
   that twin in place).

On top of the per-query engine the service adds the session surface:

* construction from one validated :class:`~repro.api.config.GCConfig`;
* ``execute_many(queries)`` — ``execute`` once per query, in order;
  each query runs its own O(1) staleness guard, and a consistency pass
  only when the dataset log has moved;
* ``explain(query)`` — read-only, steps 2-3 as ``execute`` runs them;
* a mutation API (``apply``, ``add_graph``, ...) so callers never juggle
  the :class:`GraphStore` and the cache separately;
* ``save`` / ``load`` / ``autosave`` snapshots, and context-manager
  semantics for session scoping;
* **concurrent serving**: :meth:`GraphCacheService.session` hands out
  up to ``GCConfig.max_sessions`` lightweight :class:`ServiceSession`
  handles that share one cache and one dataset, so N worker threads can
  serve a query stream against a single shared cache (the paper's
  Figure 1 deployment).  The service has one lock, and every public
  call that reads or writes the cache or the dataset holds it from
  start to finish: a query's five steps are one atomic transition over
  the shared state.  See ``docs/concurrency.md``.
"""

from __future__ import annotations

import contextlib
import threading
import warnings
from collections.abc import Iterable
from pathlib import Path
from time import perf_counter

from repro.api.config import GCConfig
from repro.api.plan import PlanStep, QueryPlan
from repro.cache.entry import CacheEntry
from repro.cache.manager import CacheManager, ConsistencyReport
from repro.cache.replacement import HybridPolicy
from repro.persist import (
    Snapshot,
    SnapshotFormatError,
    SnapshotMismatchError,
    config_fingerprint,
    dataset_fingerprint,
    load_snapshot,
    save_snapshot,
)
from repro.dataset.change_plan import AppliedOp, ChangePlan
from repro.dataset.store import GraphStore
from repro.graphs.features import GraphFeatures
from repro.graphs.graph import LabeledGraph
from repro.matching import MATCHERS, make_matcher
from repro.matching.base import SubgraphMatcher
from repro.runtime.method_m import MethodM
from repro.runtime.monitor import QueryMetrics, QueryResult, StatisticsMonitor
from repro.runtime.processors import DiscoveryResult, HitDiscovery
from repro.runtime.pruner import PruneOutcome, prune_candidate_set
from repro.util.bits import bit_ids

__all__ = ["GraphCacheService", "ServiceSession"]

class GraphCacheService:
    """A GC+ session over one :class:`GraphStore`.

    >>> from repro.api import GCConfig, GraphCacheService
    >>> from repro.dataset.store import GraphStore
    >>> from repro.graphs.graph import LabeledGraph
    >>> store = GraphStore.from_graphs(
    ...     [LabeledGraph.from_edges("CCO", [(0, 1), (1, 2)])])
    >>> with GraphCacheService(store, GCConfig(model="CON")) as service:
    ...     result = service.execute(
    ...         LabeledGraph.from_edges("CO", [(0, 1)]))
    >>> sorted(result.answer_ids)
    [0]
    """

    def __init__(self, store: GraphStore, config: GCConfig | None = None,
                 *, matcher: SubgraphMatcher | None = None,
                 internal_verifier: SubgraphMatcher | None = None,
                 **overrides: object) -> None:
        """``config`` defaults to ``GCConfig()``; keyword ``overrides``
        are applied on top via :meth:`GCConfig.replace`.  ``matcher``
        accepts a ready instance and takes precedence over the config's
        matcher name; ``internal_verifier`` substitutes the matcher hit
        discovery tests queries against each other with."""
        config = config if config is not None else GCConfig()
        if overrides:
            config = config.replace(**overrides)
        self.store = store
        if matcher is None:
            matcher = make_matcher(config.matcher)
        else:
            # Keep the config honest about the session's effective
            # matcher, so config.to_dict() reconstructs this system (a
            # custom instance not in the registry can't be named).
            name = getattr(matcher, "name", None)
            if name in MATCHERS and config.matcher != name:
                config = config.replace(matcher=name)
        self.method_m = MethodM(matcher, store)
        self.query_type = config.query_type
        self.cache = CacheManager.from_config(config)
        self.config = config
        self.discovery = HitDiscovery(internal_verifier)
        self.monitor = StatisticsMonitor()
        self._query_counter = 0
        self._closed = False
        # close() must be idempotent and race-free: the serving drain
        # path, __exit__ and user code may all reach it concurrently.
        self._close_lock = threading.Lock()
        # --- Concurrent serving state ---------------------------------
        # The one lock over the cache, the dataset and the stream
        # position.  Under lock_mode="auto" it is a no-op (one caller at
        # a time by contract) until session() swaps in a real lock; a
        # ``with`` block releases the object it entered, so the swap
        # never strands a holder.  Not reentrant: public methods call
        # unlocked private helpers.
        self._lock: contextlib.AbstractContextManager[object] = (
            threading.Lock() if config.lock_mode == "rw"
            else contextlib.nullcontext())
        # Open ServiceSession handles sharing this service's cache.
        self._session_guard = threading.Lock()
        #: open sessions by id; a session removes itself when it closes
        self._sessions: dict[int, "ServiceSession"] = {}
        self._next_session_id = 0
        # --- Autosave: (target, every), every 0 = off, and the
        # ``cache.admissions`` count it last saved at.  Both under _lock.
        self._autosave = (Path(), 0)
        self._autosave_base = 0
        # Serialises whole save() calls, so two sessions' saves to one
        # path cannot interleave.
        self._save_lock = threading.Lock()

    def autosave(self, path: str | Path, every: int) -> None:
        """Save to ``path`` every ``every`` admissions (a later call
        retargets and keeps the count; renewals do not count).  The save
        runs on the thread of the query whose admission crossed the
        threshold, after that query released the service lock."""
        if not isinstance(every, int) or isinstance(every, bool) or every < 1:
            raise ValueError(
                f"autosave every must be a positive integer, got {every!r}")
        self._check_open()
        with self._lock:
            if not self._autosave[1]:
                self._autosave_base = self.cache.admissions
            self._autosave = (Path(path), every)

    def _autosave_to(self, target: Path) -> None:
        """Write an autosave to ``target``.  An I/O failure (disk full,
        directory gone) must not fail the query that triggered it — warn
        and keep serving; the next threshold crossing retries."""
        try:
            self.save(target)
        except OSError as exc:
            warnings.warn(
                f"autosave to {str(target)!r} failed "
                f"({exc}); continuing without a snapshot",
                RuntimeWarning,
                stacklevel=4,
            )

    # ------------------------------------------------------------------
    # Session lifecycle
    # ------------------------------------------------------------------
    def __enter__(self) -> "GraphCacheService":
        self._check_open()
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        self.close()

    def close(self) -> None:
        """End the session: close any open shared-cache sessions;
        further queries raise.

        Idempotent — a second (or concurrent) call is a no-op, so the
        serving drain path, ``__exit__`` and user code can all call it
        without coordinating.  If an autosave is mid-save on
        another thread when ``close`` is called, ``close`` waits for
        that save's write to finish (the ``_save_lock`` hold), so the
        snapshot on disk is never torn by a shutdown racing an autosave.
        """
        with self._close_lock:
            if self._closed:
                return
            self._closed = True
        with self._session_guard:
            sessions, self._sessions = self._sessions, {}
        for session in sessions.values():
            session._closed = True
        # Wait out any in-flight save() (autosaves run on session
        # threads); new saves after this point still work — see save().
        with self._save_lock:
            pass

    @property
    def closed(self) -> bool:
        return self._closed

    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError("GraphCacheService session is closed")

    # ------------------------------------------------------------------
    # Shared-cache sessions
    # ------------------------------------------------------------------
    def session(self) -> "ServiceSession":
        """Open a :class:`ServiceSession` sharing this service's cache.

        Sessions are the unit of concurrent serving: each worker thread
        holds one, all of them execute against the same cache, dataset
        and statistics, and the service lock runs their queries one at
        a time, each from start to finish.

        Under ``lock_mode="auto"`` the first call installs the lock
        (until then the service takes none); open sessions **before**
        issuing concurrent queries so the swap happens at a quiescent
        point.  At most ``GCConfig.max_sessions`` sessions may
        be open at once; closing one (it is a context manager) frees its
        slot.
        """
        self._check_open()
        with self._session_guard:
            if isinstance(self._lock, contextlib.nullcontext):
                # lock_mode="auto": install the lock at this quiescent point.
                self._lock = threading.Lock()
            if len(self._sessions) >= self.config.max_sessions:
                raise RuntimeError(
                    f"max_sessions={self.config.max_sessions} sessions "
                    f"already open; close one first (or raise "
                    f"GCConfig.max_sessions)"
                )
            session = ServiceSession(self, self._next_session_id)
            self._next_session_id += 1
            self._sessions[session.session_id] = session
            return session

    @property
    def open_sessions(self) -> int:
        """How many shared-cache sessions are currently open."""
        with self._session_guard:
            return len(self._sessions)

    # ------------------------------------------------------------------
    # Query execution
    # ------------------------------------------------------------------
    def execute(self, query: LabeledGraph) -> QueryResult:
        """Answer one graph-pattern query, maintaining the cache."""
        self._check_open()
        return self._execute_pipeline(query)

    def execute_many(self, queries: Iterable[LabeledGraph]) -> list[QueryResult]:
        """Answer ``queries`` in order: ``[execute(q) for q in queries]``.

        Nothing is amortised over the batch that :meth:`execute` does
        not amortise already: every query starts with the same O(1)
        staleness guard, and the consistency protocol runs — charged to
        that query's metrics — only when the dataset log has moved,
        including mid-batch (a generator side effect, raw store access).
        """
        self._check_open()
        return [self._execute_pipeline(query) for query in queries]

    def _execute_pipeline(self, query: LabeledGraph) -> QueryResult:
        """The full Figure-1 per-query flow, steps 1-5 in one hold of
        the service lock: the answer, the benefit credits and the
        admission all belong to one dataset state, and no other call
        observes the cache between two steps.  A due autosave runs
        after the release."""
        metrics = QueryMetrics()
        cache = self.cache      # read once per query
        store = self.store

        with self._lock:
            query_index = self._query_counter
            self._query_counter += 1
            # (1) Consistency: reflect dataset changes logged since the
            # cache last looked.
            if cache.pending_log_records(store):
                report = cache.ensure_consistency(store)
                metrics.analyze_seconds = report.analyze_seconds
                metrics.validate_seconds = report.validate_seconds
                metrics.purge_seconds = report.purge_seconds
            try:
                # (2)-(3) Hit discovery and candidate set pruning.
                run, features, resident, hits, outcome = \
                    self._discover_and_prune(query, metrics)

                # (4) Method-M verification of the reduced candidate set.
                started = perf_counter()
                candidates = outcome.candidates
                verified, tests = self.method_m.verify(run, candidates,
                                                       self.query_type)
                answer = verified | outcome.answer_free
                metrics.verify_seconds = perf_counter() - started
                metrics.method_tests = tests
                metrics.pruned_candidate_size = candidates.bit_count()
                metrics.tests_saved = metrics.candidate_size - tests
                metrics.answer_size = answer.bit_count()

                # (5) Feed back to the Cache Manager: benefit credits +
                # admission (or renewal of a faded exact twin).
                started = perf_counter()
                self._credit_contributions(query, outcome.contributions,
                                           query_index)
                cache.admit(query, answer, store, query_index,
                            features=features, twins=hits.exact,
                            same_as=resident)
                metrics.admission_seconds = perf_counter() - started
            finally:
                # Unless the query ran as a resident, steps 2 and 4
                # memoised plans and a host table on the caller's
                # object.  A new entry took them with its copy of the
                # graph (CacheManager.admit); whatever is left must not
                # outlive the query: callers keep, reuse and mutate
                # their query objects.  Both happen under the service
                # lock, the only place a memo moves between two graphs.
                query.forget_derived()
            self.monitor.record(metrics)
            save_to = None
            target, every = self._autosave
            if every and cache.admissions - self._autosave_base >= every:
                self._autosave_base = cache.admissions
                save_to = target
        if save_to is not None:
            self._autosave_to(save_to)
        return QueryResult(answer_bits=answer, metrics=metrics)

    def _discover_and_prune(self, query: LabeledGraph, metrics: QueryMetrics,
                            ) -> tuple[LabeledGraph, GraphFeatures,
                                       CacheEntry | None, DiscoveryResult,
                                       PruneOutcome]:
        """Pipeline steps 2-3 under the caller's lock hold, filling their
        ``metrics``; returns ``(run, features, resident, hits, outcome)``
        — ``run`` / ``features`` are what steps 4-5 use."""
        cs_m = self.store.ids_bitset()
        metrics.candidate_size = cs_m.bit_count()

        # (2) Hit discovery (GC+sub / GC+super processors).  An arrival
        # identical to a resident query runs *as* that resident from
        # here to the end of step 4: its graph (whose memo holds the
        # matchers' compiled plans) and its features (which memoise the
        # index's packed signature) — compiled once per distinct query,
        # not once per arrival.  Same graph, so same candidates, tests
        # and answer; the resident is still tested like any candidate.
        # Otherwise the features are computed exactly once here, for
        # discovery and admission.
        started = perf_counter()
        index = self.cache.index
        resident = index.identical_resident(query)
        if resident is None:
            run, features = query, GraphFeatures.of(query)
        else:
            run, features = resident.query, resident.features
            metrics.interned = True
        hits = self.discovery.discover(run, index, features)
        metrics.discovery_seconds = perf_counter() - started
        metrics.containing_hits = len(hits.containing)
        metrics.contained_hits = len(hits.contained)
        metrics.exact_hits = len(hits.exact)
        metrics.internal_tests = hits.internal_tests

        # (3) Candidate set pruning (formulas (1)-(5)).  For an SI Method
        # M, CS_M is the whole live dataset, which is exactly the id set
        # the §6.3 optimal-case checks must test validity against.
        started = perf_counter()
        outcome = prune_candidate_set(self.query_type, cs_m, hits,
                                      self.store.max_id + 1, live_ids=cs_m)
        metrics.prune_seconds = perf_counter() - started
        metrics.exact_hit_valid = outcome.exact_hit
        metrics.empty_shortcut = outcome.empty_shortcut
        return run, features, resident, hits, outcome

    def _credit_contributions(self, query: LabeledGraph,
                              contributions: dict[int, int],
                              query_index: int) -> None:
        """Credit each contributing entry with its alleviated tests (R)
        and their estimated cost (C) — the PIN/PINC inputs.

        C uses the O(1) population estimate (query size × mean live graph
        size per saved test) rather than per-graph sizes: the heuristic
        only needs to separate cheap saved tests from expensive ones
        across *entries*, and entries always save tests of one query at a
        time, so the per-graph spread washes out.
        """
        cost_per_test = query.num_vertices * self.store.mean_vertices
        self.cache.credit_all(contributions, cost_per_test, query_index)

    def explain(self, query: LabeledGraph) -> QueryPlan:
        """What the cache would do for ``query`` — without doing it.

        Runs the pipeline's own steps 2-3 (interning included) under the
        service lock: no consistency pass, no admission, no benefit
        crediting, no monitor record.  Pending (unvalidated) dataset
        changes are reported on the plan instead of being reconciled.
        """
        self._check_open()
        metrics = QueryMetrics()   # read for the plan, recorded nowhere
        with self._lock:
            try:
                _, _, _, hits, outcome = self._discover_and_prune(query,
                                                                  metrics)
            finally:
                query.forget_derived()  # as the pipeline: the caller owns it
            pending = self.cache.pending_log_records(self.store)
        # Zero-effect applications (e.g. a hit whose CGvalid bits all
        # faded) are real discoveries but contributed nothing — they stay
        # visible in the hit lists, not as formula steps.
        steps = tuple(
            PlanStep(formula, entry_id, frozenset(bit_ids(ids)))
            for formula, per_entry in (
                ("(1) answer donation", outcome.donations),
                ("(4)+(5) candidate filter", outcome.filtered))
            for entry_id, ids in per_entry.items()
            if ids
        )
        return QueryPlan(
            query_vertices=query.num_vertices,
            query_edges=query.num_edges,
            candidate_size=metrics.candidate_size,
            containing_hits=tuple(e.entry_id for e in hits.containing),
            contained_hits=tuple(e.entry_id for e in hits.contained),
            exact_hits=tuple(e.entry_id for e in hits.exact),
            internal_tests=hits.internal_tests,
            steps=steps,
            test_free_answers=frozenset(bit_ids(outcome.answer_free)),
            reduced_candidates=frozenset(bit_ids(outcome.candidates)),
            exact_hit=outcome.exact_hit,
            empty_shortcut=outcome.empty_shortcut,
            pending_log_records=pending,
        )

    # ------------------------------------------------------------------
    # Mutation API — callers need not touch the GraphStore directly
    # ------------------------------------------------------------------
    def apply(self, plan: ChangePlan, query_index: int) -> list[AppliedOp]:
        """Fire every due batch of a :class:`ChangePlan` at this stream
        position; the next query (or batch) reconciles the cache.

        Like every mutation below, the application holds the service
        lock: no query ever observes a half-applied batch.
        """
        self._check_open()
        with self._lock:
            return plan.apply_due(self.store, query_index)

    def add_graph(self, graph: LabeledGraph) -> int:
        """ADD a dataset graph; returns its new id."""
        self._check_open()
        with self._lock:
            return self.store.add_graph(graph)

    def delete_graph(self, graph_id: int) -> None:
        """DEL a dataset graph (its id is never reused)."""
        self._check_open()
        with self._lock:
            self.store.delete_graph(graph_id)

    def add_edge(self, graph_id: int, u: int, v: int) -> None:
        """UA: add an edge to a dataset graph."""
        self._check_open()
        with self._lock:
            self.store.add_edge(graph_id, u, v)

    def remove_edge(self, graph_id: int, u: int, v: int) -> None:
        """UR: remove an edge from a dataset graph."""
        self._check_open()
        with self._lock:
            self.store.remove_edge(graph_id, u, v)

    def refresh(self) -> ConsistencyReport:
        """Run the consistency protocol now (normally it runs lazily on
        the next query); useful before inspecting cache entries."""
        self._check_open()
        with self._lock:
            return self.cache.ensure_consistency(self.store)

    def purge(self) -> None:
        """Manually drop every cached entry (cache + window).

        The purge counts as having reflected all dataset changes logged
        so far — an empty cache is consistent with any dataset state —
        so the next query does **not** run a spurious consistency pass.
        """
        self._check_open()
        with self._lock:
            self.cache.clear(self.store)

    # ------------------------------------------------------------------
    # Snapshot persistence (see docs/persistence.md)
    # ------------------------------------------------------------------
    def save(self, path: str | Path) -> Path:
        """Persist the full cache state to a snapshot file at ``path``.

        The capture holds the service lock (safe while sessions are
        serving on other threads — they queue behind it exactly as behind
        a dataset mutation); the file write runs after its release and is
        atomic (temp file + ``os.replace``), so readers and crashed
        autosaves can never observe a torn snapshot.  Returns the path
        written.

        Unlike queries, saving is allowed on a **closed** service: the
        capture is a read-only observation of state that outlives
        :meth:`close`.  This is what makes a shutdown racing an autosave
        safe — the autosave completes instead of failing on the closed
        service — and what lets the drain path snapshot *after* it
        stopped accepting sessions.
        """
        with self._save_lock:
            # One hold covers the cache capture, the dataset fingerprint
            # and the stream position, so all three describe one state.
            with self._lock:
                state = self.cache.snapshot_state()
                dataset = dataset_fingerprint(self.store)
                query_counter = self._query_counter
            snapshot = Snapshot(
                fingerprint=config_fingerprint(self.config),
                query_counter=query_counter,
                state=state,
                dataset=dataset,
            )
            return save_snapshot(path, snapshot)

    def load(self, path: str | Path) -> ConsistencyReport:
        """Warm-start: replace the cache state with the snapshot's at
        ``path``.  Its config fingerprint must match this service's
        (:class:`~repro.persist.SnapshotMismatchError` otherwise — a
        cache state is only meaningful under the semantics and
        capacities that produced it), and its dataset-log cursor must
        not lie beyond this store's log (a cursor the store never
        reached means the snapshot belongs to a different dataset).

        A dataset log that moved *past* the snapshot's cursor while the
        state was on disk is reconciled immediately through the normal
        consistency protocol — CON revalidates every restored entry
        against the missed log suffix, EVI purges (the paper's Figure-2
        semantics; persisted derived results are never trusted against
        a base that kept evolving).  Returns that pass's
        :class:`ConsistencyReport` (``NOOP_CONSISTENCY`` when the log
        never moved).  The query-stream position resumes at the
        snapshot's, so stream indices (recency, ``created_at``) stay
        monotone across the restart.
        """
        self._check_open()
        return self.restore(load_snapshot(path))

    def restore(self, snapshot: Snapshot) -> ConsistencyReport:
        """Restore from an already-decoded :class:`~repro.persist.Snapshot`
        (what :meth:`load` does after reading the file; callers that
        inspected a snapshot first restore the same object instead of
        re-reading a path that may have changed underneath them).

        A state that no live manager of this shape could have produced
        (overfull, colliding or out-of-range ids, a foreign policy)
        raises :class:`~repro.persist.SnapshotFormatError`."""
        self._check_open()
        expected = config_fingerprint(self.config)
        if snapshot.fingerprint != expected:
            differing = sorted(
                name for name in set(expected) | set(snapshot.fingerprint)
                if snapshot.fingerprint.get(name) != expected.get(name)
            )
            raise SnapshotMismatchError(
                f"snapshot config does not match this service's; "
                f"differing fields: {differing} (snapshot "
                f"{ {n: snapshot.fingerprint.get(n) for n in differing} }, "
                f"service { {n: expected.get(n) for n in differing} })"
            )
        with self._lock:
            return self._restore(snapshot)

    def _restore(self, snapshot: Snapshot) -> ConsistencyReport:
        """:meth:`restore` past the config check, under the lock: the
        dataset checks, the state transplant and the catch-up pass see
        one dataset state."""
        if snapshot.state.log_cursor > self.store.log.last_seq:
            raise SnapshotMismatchError(
                f"snapshot reflects dataset log records up to seq "
                f"{snapshot.state.log_cursor}, but this store's log only "
                f"reaches {self.store.log.last_seq} — the snapshot was "
                f"taken over a different (or newer) dataset"
            )
        if snapshot.dataset is not None:
            # Identity check: Answer/CGvalid bits are indexed by *this*
            # dataset's graph ids.  The digest describes the dataset at
            # the snapshot's cursor, so it is verifiable exactly when
            # the target log has not moved past that cursor — which
            # includes the dangerous silent case (two freshly loaded
            # datasets, both logs at 0).  Past the cursor, the id
            # high-water mark (monotone, never reused) still must hold.
            if self.store.max_id < snapshot.dataset.get("max_id", -1):
                raise SnapshotMismatchError(
                    f"snapshot was taken over a dataset with ids up to "
                    f"{snapshot.dataset['max_id']}, but this store has "
                    f"only assigned up to {self.store.max_id} — "
                    f"different dataset"
                )
            if self.store.log.last_seq == snapshot.state.log_cursor:
                current = dataset_fingerprint(self.store)
                if current != snapshot.dataset:
                    raise SnapshotMismatchError(
                        "snapshot was taken over a different dataset: "
                        "content fingerprints differ at the same log "
                        "position (restoring would alias cached "
                        "Answer/CGvalid bits onto foreign graph ids)"
                    )
        try:
            self.cache.restore_state(snapshot.state)
        except ValueError as exc:
            # A state no live manager of this shape could have produced
            # is a corrupt file, not a programming error.
            raise SnapshotFormatError(
                f"snapshot state rejected: {exc}"
            ) from exc
        self._query_counter = max(self._query_counter,
                                  snapshot.query_counter)
        return self.cache.ensure_consistency(self.store)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def matcher(self) -> SubgraphMatcher:
        return self.method_m.matcher

    def counters(self) -> dict[str, int]:
        """Cumulative, monotonically non-decreasing ops counters.

        Merges the :class:`StatisticsMonitor` tallies (queries, cache
        hits/misses, sub-iso test totals) with the
        cache manager's lifetime admission/renewal/eviction/purge
        counts.  None of these ever decrease — purges and ``clear()``
        reset windowed statistics, never these — so the serving layer
        can expose them verbatim as Prometheus counters
        (``repro.serve.metrics``).
        """
        counters = self.monitor.counters()
        counters["admissions"] = self.cache.admissions
        counters["evictions"] = self.cache.evictions
        counters["renewals"] = self.cache.renewals
        counters["purges"] = self.cache.purges
        return counters

    def summary(self) -> dict[str, float]:
        """The monitor's flat aggregate dict over every query this service
        and its sessions executed.

        Under the HD replacement policy the dict additionally carries
        ``hd_pin_rounds`` / ``hd_pinc_rounds`` — how many eviction
        rounds each scoring regime won — so ablation reports can say
        which regime dominated a run.  The tallies reset on purge.
        """
        aggregate = self.monitor.summary()
        policy = self.cache.policy
        if isinstance(policy, HybridPolicy):
            aggregate["hd_pin_rounds"] = policy.pin_rounds
            aggregate["hd_pinc_rounds"] = policy.pinc_rounds
        return aggregate

    def __repr__(self) -> str:
        state = "closed" if self._closed else "open"
        return (
            f"GraphCacheService(model={self.cache.model}, "
            f"method={self.matcher.name}, type={self.query_type}, "
            f"queries={self._query_counter}, {state})"
        )


class ServiceSession:
    """One worker's handle onto a shared :class:`GraphCacheService`.

    Obtained via :meth:`GraphCacheService.session`.  All sessions of a
    service execute against the **same** cache, dataset and statistics;
    the service lock runs their queries one at a time.
    Every query is recorded in the service's one
    :class:`StatisticsMonitor` (:meth:`GraphCacheService.summary`).

    A session only executes queries; everything else (explain plans,
    mutations, persistence) goes through :attr:`service`.

    Sessions are context managers; closing one frees its
    ``max_sessions`` slot.  Closing the parent service closes every
    session.

    >>> from repro.api import GCConfig, GraphCacheService
    >>> from repro.dataset.store import GraphStore
    >>> from repro.graphs.graph import LabeledGraph
    >>> store = GraphStore.from_graphs(
    ...     [LabeledGraph.from_edges("CCO", [(0, 1), (1, 2)])])
    >>> service = GraphCacheService(store, GCConfig(model="CON"))
    >>> with service.session() as session:
    ...     result = session.execute(LabeledGraph.from_edges("CO", [(0, 1)]))
    >>> sorted(result.answer_ids)
    [0]
    >>> service.close()
    """

    def __init__(self, parent: GraphCacheService, session_id: int) -> None:
        self._parent = parent
        self.session_id = session_id
        self._closed = False

    def __enter__(self) -> "ServiceSession":
        self._check_open()
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        self.close()

    def close(self) -> None:
        """Release this session's ``max_sessions`` slot; further queries
        through it raise.  The shared cache is untouched."""
        self._closed = True
        with self._parent._session_guard:
            self._parent._sessions.pop(self.session_id, None)

    @property
    def closed(self) -> bool:
        return self._closed or self._parent.closed

    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError("ServiceSession is closed")
        self._parent._check_open()

    def execute(self, query: LabeledGraph) -> QueryResult:
        """Answer one query through the shared cache."""
        self._check_open()
        return self._parent._execute_pipeline(query)

    def execute_many(self, queries: Iterable[LabeledGraph]) -> list[QueryResult]:
        """Answer a batch of queries through the shared cache."""
        return [self.execute(query) for query in queries]

    @property
    def service(self) -> GraphCacheService:
        """The shared parent service."""
        return self._parent

    def __repr__(self) -> str:
        state = "closed" if self.closed else "open"
        return f"ServiceSession(id={self.session_id}, {state})"
