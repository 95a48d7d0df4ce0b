"""Concurrent workload driver — N threads, one shared cache.

The sampled-interleaving oracle of ``tests/test_concurrent_service.py``.
The paper's Figure 1 deployment is a *service*: one GC+ cache absorbing
a stream of queries from many users while the dataset churns underneath.
:class:`ConcurrentDriver` replays exactly that shape: a (query,
mutation) trace is partitioned into **epochs** at the change plan's
batch times, every epoch's queries are served concurrently by worker
threads holding :class:`~repro.api.service.ServiceSession` handles, and
each mutation batch is applied at the epoch barrier — a quiescent point
where the driver also asserts the cache's structural invariants.

Every query holds the service's one lock from its consistency pass to
its admission, so the threads interleave at query boundaries only; what
the schedule decides is the *order* in which an epoch's queries reach
the cache.

Why epochs make concurrency *checkable*: within an epoch the dataset is
frozen (mutations only happen at barriers), and a GC+ answer is a pure
function of (query, dataset state) — the §6 correctness claim, which
holds regardless of what the cache contains or how admissions
interleave.  Every query therefore returns exactly the answer a
sequential replay of the same trace produces at the same stream index —
not merely the same multiset, though the multiset is what
:func:`sequential_replay`-based tests usually assert.  The cache
*contents* may differ between schedules (admission order is
nondeterministic); the answers cannot.

The driver measures nothing: timing the serving path is the job of the
repository's benchmark (``perf/``), whose ``http_hit`` workload drives
the same service over HTTP.
"""

from __future__ import annotations

import dataclasses
import threading
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass, field

from repro.api.config import GCConfig
from repro.api.service import GraphCacheService
from repro.dataset.change_plan import ChangePlan
from repro.dataset.store import GraphStore
from repro.graphs.graph import LabeledGraph
from tests.index_audit import audit

__all__ = [
    "ConcurrentDriver",
    "ConcurrentRunResult",
    "sequential_replay",
    "assert_quiescent_invariants",
]


def assert_quiescent_invariants(service: GraphCacheService) -> None:
    """Structural invariants that must hold at any quiescent point
    (no query mid-pipeline): capacity bounds, index/entry population
    agreement, statistics registered for every hit-eligible entry."""
    cache = service.cache
    assert cache.cache_size <= cache.capacity, (
        f"cache overflow: {cache.cache_size} > capacity {cache.capacity}"
    )
    assert cache.window_size <= cache.window.capacity, (
        f"window overflow: {cache.window_size} > "
        f"capacity {cache.window.capacity}"
    )
    entries = cache.all_entries()
    assert len(cache.index) == len(entries), (
        f"index population {len(cache.index)} != "
        f"cache∪window {len(entries)}"
    )
    for entry in entries:
        assert entry.entry_id in cache.statistics, (
            f"entry {entry.entry_id} is hit-eligible but untracked by "
            f"the statistics manager"
        )
    audit(cache.index)


@dataclass
class ConcurrentRunResult:
    """What one run answered.

    ``answers`` maps stream index → answer id-set, so correctness
    harnesses can compare per-index (stronger than the multiset check);
    :meth:`answer_multiset` gives the order-insensitive view.
    """

    answers: dict[int, frozenset[int]] = field(repr=False)
    applied_ops: int

    def answer_multiset(self) -> Counter:
        """Multiset of answer id-sets — the concurrency oracle's unit of
        comparison against a sequential replay."""
        return Counter(self.answers.values())


class ConcurrentDriver:
    """Replay a (query, mutation) trace across ``threads`` workers.

    ``service`` must allow sessions (``lock_mode`` ``"auto"`` or
    ``"rw"``); the driver opens one :class:`ServiceSession` per worker,
    so ``GCConfig.max_sessions`` must be ≥ ``threads``.

    Worker scheduling is deterministic (query ``i`` of an epoch goes to
    worker ``i mod threads``); the *interleaving* is of course up to the
    OS, which is exactly what the answer-equivalence oracle exercises.
    """

    def __init__(self, service: GraphCacheService, threads: int) -> None:
        if threads < 1:
            raise ValueError(f"threads must be >= 1, got {threads}")
        self.service = service
        self.threads = threads

    # ------------------------------------------------------------------
    def run(self, queries: Sequence[LabeledGraph],
            plan: ChangePlan | None = None) -> ConcurrentRunResult:
        """Serve the whole stream; returns the answers.

        Mutation batches fire at epoch barriers with all workers
        quiesced, at the same stream indices a sequential
        ``plan.apply_due(store, i)`` loop fires them, so the dataset
        evolution — and therefore every answer — matches a sequential
        replay of the identical trace.  The driver asserts
        :func:`assert_quiescent_invariants` at every barrier.
        """
        service = self.service
        if plan is not None:
            plan = dataclasses.replace(plan)    # rewound: cursor 0
        segments = self._segments(len(queries), plan)
        sessions = [service.session() for _ in range(self.threads)]
        start_barrier = threading.Barrier(self.threads + 1)
        end_barrier = threading.Barrier(self.threads + 1)
        current: dict = {"segment": None}
        answers: dict[int, frozenset[int]] = {}
        answers_lock = threading.Lock()
        failures: list[BaseException] = []

        def worker(wid: int) -> None:
            session = sessions[wid]
            try:
                while True:
                    start_barrier.wait()
                    segment = current["segment"]
                    if segment is None:
                        return
                    lo, hi = segment
                    for qi in range(lo + wid, hi, self.threads):
                        result = session.execute(queries[qi])
                        with answers_lock:
                            answers[qi] = frozenset(result.answer)
                    end_barrier.wait()
            except BaseException as exc:  # propagate to the main thread
                failures.append(exc)
                start_barrier.abort()
                end_barrier.abort()

        workers = [
            threading.Thread(target=worker, args=(wid,),
                             name=f"gc-driver-{wid}", daemon=True)
            for wid in range(self.threads)
        ]
        for thread in workers:
            thread.start()

        applied = 0
        try:
            for lo, hi in segments:
                if plan is not None:
                    applied += len(service.apply(plan, lo))
                current["segment"] = (lo, hi)
                start_barrier.wait()
                end_barrier.wait()
                assert_quiescent_invariants(service)
            current["segment"] = None
            start_barrier.wait()
        except threading.BrokenBarrierError:
            pass  # a worker failed; re-raised below
        except BaseException:
            # A main-thread failure (invariant assertion, plan error):
            # break the barriers so parked workers exit immediately
            # instead of each join below burning its full timeout.
            start_barrier.abort()
            end_barrier.abort()
            raise
        finally:
            for thread in workers:
                thread.join(timeout=30.0)
            for session in sessions:
                session.close()
        if failures:
            raise failures[0]
        return ConcurrentRunResult(answers=answers, applied_ops=applied)

    # ------------------------------------------------------------------
    @staticmethod
    def _segments(num_queries: int,
                  plan: ChangePlan | None) -> list[tuple[int, int]]:
        """Epoch boundaries: the change plan's batch times (each batch
        fires *before* the query at its time index, exactly as
        ``apply_due`` does in a sequential loop) plus the stream ends."""
        cuts = {0, num_queries}
        if plan is not None:
            cuts.update(b.time for b in plan.batches
                        if 0 <= b.time < num_queries)
        ordered = sorted(cuts)
        return [(ordered[i], ordered[i + 1])
                for i in range(len(ordered) - 1)
                if ordered[i] < ordered[i + 1]]


def sequential_replay(graphs: Sequence[LabeledGraph],
                      queries: Sequence[LabeledGraph],
                      plan: ChangePlan | None = None,
                      config: GCConfig | None = None) -> ConcurrentRunResult:
    """The single-threaded oracle: a fresh store + service, the plan
    applied at every stream index, queries answered one by one.

    Deliberately a plain loop over ``service.execute`` — no sessions,
    no barriers, no locks beyond the service defaults — so the
    concurrency tests compare two genuinely different execution paths.
    """
    store = GraphStore.from_graphs(graphs)
    if plan is not None:
        plan = dataclasses.replace(plan)    # rewound: cursor 0
    service = GraphCacheService(
        store, config if config is not None else GCConfig()
    )
    answers: dict[int, frozenset[int]] = {}
    applied = 0
    try:
        for index, query in enumerate(queries):
            if plan is not None:
                applied += len(plan.apply_due(store, index))
            answers[index] = frozenset(service.execute(query).answer)
    finally:
        service.close()
    return ConcurrentRunResult(answers=answers, applied_ops=applied)
