"""Method M — the external SI method GC+ is called to expedite.

Per the paper (§4): *"Method M subsystem includes an SI implementation,
denoted Mverifier, sub-iso testing candidate set ``M_CS`` (the whole
dataset when GC+ is not used)."*  SI methods test every candidate graph;
there is no FTV dataset index (none supports updates — §1), so the bare
baseline candidate set is the entire live dataset.
"""

from __future__ import annotations

import threading
from collections.abc import Callable, Iterable, Sequence
from concurrent.futures import ThreadPoolExecutor

from repro.cache.entry import QueryType
from repro.dataset.store import GraphStore
from repro.graphs.graph import LabeledGraph
from repro.matching.base import SubgraphMatcher
from repro.util.bitset import BitSet

__all__ = ["MethodM", "ParallelMethodM", "ProcessMethodM", "MethodMRunner",
           "WORKER_BACKENDS", "estimate_test_cost", "make_method_m"]

#: Mverifier pool flavours selectable via ``GCConfig.worker_backend``.
WORKER_BACKENDS = frozenset({"thread", "process"})


def estimate_test_cost(query: LabeledGraph, host: LabeledGraph) -> float:
    """Heuristic cost of one sub-iso test (feeds the PINC statistic C).

    The classic candidate-pair-space proxy ``|V(query)| · |V(host)|``
    (see :mod:`repro.cache.statistics` for why any monotone proxy works).
    """
    return float(query.num_vertices * host.num_vertices)


def _verify_ids(is_sub: Callable[[LabeledGraph, LabeledGraph], bool],
                store: GraphStore, query: LabeledGraph,
                ids: Iterable[int], size: int,
                subgraph_semantics: bool) -> tuple[BitSet, int]:
    """The Mverifier loop: one ``is_sub`` call per live id in ``ids``;
    returns (answer bits over ``size`` ids, tests performed).  Ids of
    deleted graphs are skipped."""
    answer = BitSet(size)
    tests = 0
    for gid in ids:
        if gid not in store:
            continue
        host = store.get(gid)
        tests += 1
        if subgraph_semantics:
            hit = is_sub(query, host)
        else:
            hit = is_sub(host, query)
        if hit:
            answer.set(gid)
    return answer, tests


class MethodM:
    """Mverifier bound to a dataset: runs sub-iso tests over candidates."""

    def __init__(self, matcher: SubgraphMatcher, store: GraphStore) -> None:
        self.matcher = matcher
        self.store = store

    def verify(self, query: LabeledGraph, candidate_ids: BitSet,
               query_type: QueryType) -> tuple[BitSet, int]:
        """Test every candidate; returns (answer bits, tests performed).

        Candidate ids referring to deleted graphs are skipped defensively
        (GC+ never produces them — candidate sets are intersections with
        the live id set — but user code may).
        """
        return _verify_ids(self.matcher.is_subgraph_isomorphic, self.store,
                           query, candidate_ids, candidate_ids.size,
                           query_type is QueryType.SUBGRAPH)

    def close(self) -> None:
        """Release verifier resources (no-op for the sequential path)."""


class ParallelMethodM(MethodM):
    """Mverifier that chunks the candidate bitset across a worker pool.

    The candidate ids are split into ``workers`` contiguous chunks, each
    verified on its own thread, and the per-chunk answer bitsets are
    OR-merged.  The partition is deterministic, every candidate is
    tested exactly once, and bitset OR is commutative — so the answer
    *and* the test count are identical to the sequential path for any
    worker count and any thread schedule.

    ``workers=1`` bypasses the pool entirely and runs the inherited
    sequential loop, byte-for-byte the same code path as
    :class:`MethodM`.

    Threads vs processes
    --------------------
    Threads are the first (and default) pool flavour deliberately: the
    bundled matchers are pure Python, so under CPython's GIL ``workers >
    1`` yields little wall-clock gain *today* — the knob exists so that
    a matcher backed by GIL-releasing native code (or a free-threaded
    CPython build) parallelises with zero further plumbing, and so the
    chunked-merge verification semantics are locked in by tests now.
    Processes were rejected for the first cut: candidate bitsets and
    mutable ``LabeledGraph`` stores would have to be pickled per query,
    which costs more than the sub-iso tests they would parallelise.

    ``matcher_factory`` builds one private matcher per worker, so no
    matcher instance is ever shared across threads (user matchers may
    keep per-call state on ``self``) and the per-matcher work counters
    (:class:`~repro.matching.base.MatcherStats`) are updated race-free;
    the clones' counters are folded back into the primary matcher after
    every parallel verification.  Without a factory — a custom matcher
    instance, or a registered one carrying non-default configuration
    that a by-name clone would not reproduce — verification falls back
    to the sequential path: correctness is never traded for
    parallelism.

    :meth:`verify` itself may be called from several threads at once
    (concurrent shared-cache sessions run it read-side — see
    ``docs/concurrency.md``): each *calling* thread keeps its own set
    of worker-matcher clones (so clones are never shared between
    in-flight verifications either), the executor is created under a
    lock, and stat folding into the primary matcher is serialised.
    """

    def __init__(self, matcher: SubgraphMatcher, store: GraphStore,
                 workers: int,
                 matcher_factory: Callable[[], SubgraphMatcher] | None = None,
                 ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        super().__init__(matcher, store)
        self.workers = workers
        self._factory = matcher_factory
        self._executor: ThreadPoolExecutor | None = None
        self._init_lock = threading.Lock()     # guards executor creation
        self._stats_lock = threading.Lock()    # guards primary-stats folds
        self._clones_local = threading.local()  # per-calling-thread clones

    def verify(self, query: LabeledGraph, candidate_ids: BitSet,
               query_type: QueryType) -> tuple[BitSet, int]:
        if self.workers == 1 or self._factory is None:
            return super().verify(query, candidate_ids, query_type)
        ids = list(candidate_ids)
        if len(ids) < 2:
            return super().verify(query, candidate_ids, query_type)
        chunks = _split_chunks(ids, self.workers)
        matchers = self._worker_matchers()  # this calling thread's clones
        subgraph_semantics = query_type is QueryType.SUBGRAPH
        futures = [
            self._pool().submit(_verify_ids,
                                matchers[i].is_subgraph_isomorphic,
                                self.store, query, chunk,
                                candidate_ids.size, subgraph_semantics)
            for i, chunk in enumerate(chunks)
        ]
        answer = BitSet(candidate_ids.size)
        tests = 0
        for future in futures:
            chunk_answer, chunk_tests = future.result()
            answer = answer | chunk_answer
            tests += chunk_tests
        self._fold_clone_stats(matchers)
        return answer, tests

    def _pool(self) -> ThreadPoolExecutor:
        if self._executor is None:
            with self._init_lock:
                if self._executor is None:
                    self._executor = ThreadPoolExecutor(
                        max_workers=self.workers,
                        thread_name_prefix="mverifier",
                    )
        return self._executor

    def _worker_matchers(self) -> list[SubgraphMatcher]:
        """This calling thread's private clone set.  One clone per chunk
        slot; within one ``verify`` each clone serves exactly one chunk,
        and distinct calling threads never see each other's clones."""
        clones = getattr(self._clones_local, "clones", None)
        if clones is None:
            clones = [self._factory() for _ in range(self.workers)]
            self._clones_local.clones = clones
        return clones

    def _fold_clone_stats(self, clones: list[SubgraphMatcher]) -> None:
        """Accumulate the worker matchers' counters into the primary
        matcher so ``service.matcher.stats`` keeps reporting totals."""
        with self._stats_lock:
            main = self.matcher.stats
            for clone in clones:
                s = clone.stats
                main.tests += s.tests
                main.states += s.states
                main.found += s.found
                s.reset()

    def close(self) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None


class ProcessMethodM(MethodM):
    """Mverifier that chunks candidates across persistent **processes**.

    Where :class:`ParallelMethodM` is GIL-bound for pure-Python matchers
    (``BENCH_concurrent``'s CPU-bound cell: 0.99× at 8 threads), this
    backend runs each chunk's sub-iso tests in a separate interpreter.
    The design trades per-query pickling — the cost that ruled processes
    out of the first cut — for amortised state replication:

    * workers are spawned **once** (lazily, on the first parallel
      verify) and each seeds a read-only dataset replica from one
      :func:`repro.persist.encode_store` payload;
    * dataset changes reach replicas as **incremental deltas** derived
      from the update log past the replica cursor
      (:func:`repro.runtime.worker_pool.build_delta`) — a cache
      reconcile epoch broadcasts only what changed, never the store;
    * per query, only the query's ``t/v/e`` text and the chunk id lists
      cross the pipe; answers return as indicator hex + counters.

    Chunks are **cost-balanced** with :func:`estimate_test_cost`
    (contiguous split at near-equal prefix-cost cuts), because process
    dispatch has no work-stealing: one oversized chunk would serialise
    the whole query.  The partition keeps every ``_split_chunks``
    invariant — deterministic, contiguous, each candidate exactly once —
    and OR-merging indicator bitsets is commutative, so answers and test
    counts are bit-identical to the sequential reference.

    Fallbacks mirror the thread pool: ``workers=1``, fewer than two
    candidates, or a matcher that cannot be faithfully cloned by
    registered name all run the inherited sequential loop (correctness
    is never traded for parallelism).  All pool access is serialised by
    an internal lock, so concurrent sessions may call :meth:`verify`
    freely; replica staleness is impossible because every verify first
    compares the replica cursor against ``store.log.last_seq`` (an O(1)
    check) and ships the missing slice.
    """

    def __init__(self, matcher: SubgraphMatcher, store: GraphStore,
                 workers: int, clone_name: str | None = None) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        super().__init__(matcher, store)
        self.workers = workers
        self._clone_name = (clone_name if clone_name is not None
                            else _faithful_clone_name(matcher))
        self._ipc_lock = threading.RLock()  # serialises pool + cursor use
        self._pool = None  # type: ignore[assignment]  # WorkerPool | None
        self._cursor = 0   # log position the replicas reflect

    def verify(self, query: LabeledGraph, candidate_ids: BitSet,
               query_type: QueryType) -> tuple[BitSet, int]:
        if self.workers == 1 or self._clone_name is None:
            return super().verify(query, candidate_ids, query_type)
        ids = list(candidate_ids)
        if len(ids) < 2:
            return super().verify(query, candidate_ids, query_type)
        from repro.graphs import io as graph_io
        with self._ipc_lock:
            pool = self._ensure_started()
            self._sync_locked()
            store = self.store
            costs = [
                estimate_test_cost(query, store.get(gid))
                if gid in store else 0.0
                for gid in ids
            ]
            chunks = _split_chunks_balanced(ids, costs, self.workers)
            replies = pool.verify(
                graph_io.dumps([(0, query)]), chunks, candidate_ids.size,
                query_type is QueryType.SUBGRAPH,
            )
        answer = BitSet(candidate_ids.size)
        tests = 0
        d_tests = d_states = d_found = 0
        for answer_hex, chunk_tests, (dt, ds, df) in replies:
            answer = answer | BitSet.from_hex(answer_hex, candidate_ids.size)
            tests += chunk_tests
            d_tests += dt
            d_states += ds
            d_found += df
        main = self.matcher.stats
        main.tests += d_tests
        main.states += d_states
        main.found += d_found
        return answer, tests

    def sync_replicas(self, store: GraphStore | None = None) -> None:
        """Push log records past the replica cursor to every worker.

        This is the change-plan **epoch hook**: the cache manager calls
        it at the end of each reconcile epoch (a quiescent point — the
        write lock is held, no verify is in flight), so replicas advance
        in epoch-sized deltas instead of per-query catch-up bursts.  It
        is an optimisation, not a correctness requirement: verify
        re-checks the cursor anyway, so a missed hook never yields stale
        answers.  No-op before the pool has started.
        """
        if store is not None and store is not self.store:
            raise ValueError(
                "sync_replicas called with a different GraphStore than the "
                "one the worker replicas were seeded from"
            )
        with self._ipc_lock:
            if self._pool is not None:
                self._sync_locked()

    def _ensure_started(self):
        """Spawn + seed the pool on first use (caller holds _ipc_lock).

        Lazy so that ``worker_backend="process"`` with an all-sequential
        workload (``workers=1`` fallbacks, tiny candidate sets) never
        pays the spawn cost, and so the seed payload reflects the store
        as of first parallel use rather than construction time.
        """
        if self._pool is None:
            from repro.persist import encode_store
            from repro.runtime.worker_pool import WorkerPool

            assert self._clone_name is not None
            pool = WorkerPool(self.workers, self._clone_name)
            self._cursor = self.store.log.last_seq
            pool.start(encode_store(self.store))
            self._pool = pool
        return self._pool

    def _sync_locked(self) -> None:
        """Ship log records past the cursor (caller holds _ipc_lock)."""
        last = self.store.log.last_seq
        if last == self._cursor:
            return
        from repro.runtime.worker_pool import build_delta

        self._pool.broadcast_delta(build_delta(self.store, self._cursor))
        self._cursor = last

    def close(self) -> None:
        with self._ipc_lock:
            if self._pool is not None:
                self._pool.close()
                self._pool = None


def _split_chunks(ids: Sequence[int], workers: int) -> list[Sequence[int]]:
    """Deterministic near-equal contiguous partition, empty chunks
    dropped."""
    n = len(ids)
    base, extra = divmod(n, workers)
    chunks: list[Sequence[int]] = []
    start = 0
    for i in range(workers):
        length = base + (1 if i < extra else 0)
        if length == 0:
            break
        chunks.append(ids[start:start + length])
        start += length
    return chunks


def _split_chunks_balanced(ids: Sequence[int], costs: Sequence[float],
                           workers: int) -> list[Sequence[int]]:
    """Contiguous partition with near-equal **cost** per chunk.

    Keeps every :func:`_split_chunks` invariant (deterministic,
    contiguous, every id exactly once, at most ``workers`` chunks, no
    empty chunks) but places the cut points at the ideal prefix-cost
    quantiles instead of equal counts — for process dispatch there is no
    work stealing, so one heavy chunk would serialise the query.  Falls
    back to the count split when the total cost is not positive.
    """
    import bisect
    import itertools

    n = len(ids)
    if n == 0:
        return []
    prefix = list(itertools.accumulate(costs))
    total = prefix[-1]
    if total <= 0.0:
        return _split_chunks(ids, workers)
    bounds = [0]
    for j in range(1, workers):
        cut = bisect.bisect_left(prefix, total * j / workers,
                                 lo=bounds[-1]) + 1
        cut = min(max(cut, bounds[-1] + 1), n)
        if cut == n:
            break
        bounds.append(cut)
    bounds.append(n)
    return [ids[bounds[i]:bounds[i + 1]] for i in range(len(bounds) - 1)]


def _faithful_clone_name(matcher: SubgraphMatcher) -> str | None:
    """Registered name that faithfully clones ``matcher``, else None.

    Cloning by registered name is only valid when the instance is
    interchangeable with a default-constructed one — a custom-configured
    matcher (e.g. a GraphQL matcher with a non-default profile radius)
    must not be silently mixed with default-parameter clones.
    """
    from repro.matching import MATCHERS, make_matcher

    name = getattr(matcher, "name", None)
    if name not in MATCHERS:
        return None
    probe = make_matcher(name)
    if type(probe) is not type(matcher):
        return None

    def config_state(m: SubgraphMatcher) -> dict:
        return {k: v for k, v in vars(m).items() if k != "stats"}

    if config_state(probe) != config_state(matcher):
        return None
    return name


def _registry_factory(
    matcher: SubgraphMatcher,
) -> Callable[[], SubgraphMatcher] | None:
    """Per-worker clone factory, or None to share the one instance.

    See :func:`_faithful_clone_name` for when by-name cloning is valid;
    without a factory :class:`ParallelMethodM` verifies sequentially
    (instances are never shared across threads: a user matcher may keep
    per-call state on ``self``).
    """
    from repro.matching import make_matcher

    name = _faithful_clone_name(matcher)
    if name is None:
        return None
    return lambda: make_matcher(name)


def make_method_m(matcher: SubgraphMatcher, store: GraphStore,
                  workers: int = 1,
                  matcher_factory: Callable[[], SubgraphMatcher] | None = None,
                  backend: str = "thread",
                  ) -> MethodM:
    """The Mverifier for a worker count: sequential for ``workers=1``
    (exactly the historical code path), chunked-parallel otherwise —
    thread pool or process pool per ``backend``.

    ``matcher_factory`` defaults to cloning ``matcher`` by its
    registered name, so parallel workers always run the same algorithm
    and configuration as the primary matcher; for matchers no factory
    can faithfully clone, the parallel verifier degrades to the
    sequential path rather than share one instance across threads.  The
    process backend clones by registered name only (a callable factory
    cannot cross an interpreter boundary), so passing one with
    ``backend="process"`` is rejected rather than silently ignored.
    """
    if backend not in WORKER_BACKENDS:
        raise ValueError(
            f"unknown worker backend {backend!r}; "
            f"expected one of {sorted(WORKER_BACKENDS)}"
        )
    if workers == 1:
        return MethodM(matcher, store)
    if backend == "process":
        if matcher_factory is not None:
            raise ValueError(
                "matcher_factory is not supported by the process backend: "
                "worker processes rebuild matchers by registered name"
            )
        return ProcessMethodM(matcher, store, workers)
    if matcher_factory is None:
        matcher_factory = _registry_factory(matcher)
    return ParallelMethodM(matcher, store, workers,
                           matcher_factory=matcher_factory)


class MethodMRunner:
    """The bare baseline: Method M over the whole dataset, no cache.

    Exposes the same ``execute`` surface as
    :class:`repro.api.service.GraphCacheService` so benchmark harnesses
    can swap them freely.
    """

    def __init__(self, store: GraphStore, matcher: SubgraphMatcher,
                 query_type: QueryType = QueryType.SUBGRAPH,
                 workers: int = 1, backend: str = "thread") -> None:
        self.store = store
        self.method_m = make_method_m(matcher, store, workers,
                                      backend=backend)
        self.query_type = query_type

    def execute(self, query: LabeledGraph):
        """Run one query against the full dataset."""
        from repro.runtime.monitor import QueryMetrics, QueryResult
        from repro.util.timing import Stopwatch

        sw = Stopwatch()
        try:
            with sw:
                candidates = self.store.ids_bitset()
                answer, tests = self.method_m.verify(query, candidates,
                                                     self.query_type)
        finally:
            # As the service's pipeline: the matcher's plan does not
            # outlive the query on the caller's object, so harness cells
            # that share workload objects start equal.
            query.forget_derived()
        metrics = QueryMetrics(
            method_tests=tests,
            candidate_size=candidates.cardinality(),
            verify_seconds=sw.elapsed,
        )
        return QueryResult(answer=answer, metrics=metrics)

    def close(self) -> None:
        """Release the verifier's worker pool (no-op for ``workers=1``)."""
        self.method_m.close()
