"""Lock discipline: GC+'s consistency argument needs each query's five
steps to be one atomic transition over the shared cache, and the
service lock is what makes it one (``docs/concurrency.md``).

**GC120, checked with** :mod:`ast` **over** ``src/repro``:

* in ``GraphCacheService`` and ``ServiceSession``, every method call on
  ``self.cache`` or ``self.store`` (or a local name bound from them),
  every assignment through them, and every write of ``_query_counter``
  sits inside ``with self._lock:`` — or in a private method whose every
  caller is such a block (or such a method).  Plain attribute reads
  stay legal (``counters()``, ``summary()``, ``__repr__``), and so does
  the constructor;
* ``StatisticsMonitor``'s public methods touch its fields only under
  ``with self._mutex:``;
* no module writes an attribute of a ``CacheManager``,
  ``StatisticsMonitor`` or ``QueryIndex`` from outside that class: no
  store through a name the tree gives such an object (``cache``,
  ``index``, ``monitor``: read off its annotations and constructions).

**GC110 and GC111, checked where the locks run:** the
:func:`~tests.lockdep.lock_discipline` fixture (``tests/lockdep.py``),
applied to the concurrency, session, serve, persistence and autosave
tests.  Here: every lock the package constructs is one the fixture
wraps, each of them is taken under it, and each rule fires.
"""

from __future__ import annotations

import ast
import http.client
import json
import threading
import time
from pathlib import Path

import pytest

from repro.api import GCConfig, GraphCacheService
from repro.dataset.store import GraphStore
from repro.graphs.graph import LabeledGraph
from repro.persist import load_snapshot, save_snapshot
from repro.serve.server import CacheServer
from repro.serve.wire import graph_to_wire
from tests.conftest import fresh_profile_registry
from tests.lockdep import (LOCKS, RECORDER, Recorder, RecordingLock,
                           find_path, install)

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src" / "repro"

SERVICE_CLASSES = ("GraphCacheService", "ServiceSession")
SHARED = frozenset({"cache", "store"})
TRACKED = frozenset({"CacheManager", "StatisticsMonitor", "QueryIndex"})
LOCK_KINDS = frozenset({"Lock", "RLock", "Condition", "Semaphore",
                        "BoundedSemaphore"})


def _dotted(node: ast.AST) -> str | None:
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    return (".".join([node.id, *reversed(parts)])
            if isinstance(node, ast.Name) else None)


def _stores(node: ast.AST) -> list[ast.expr]:
    """The targets ``node`` assigns or deletes, tuples unpacked."""
    if isinstance(node, ast.Assign):
        targets = list(node.targets)
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        targets = [node.target]
    elif isinstance(node, ast.Delete):
        targets = list(node.targets)
    else:
        return []
    flat: list[ast.expr] = []
    while targets:
        target = targets.pop()
        if isinstance(target, (ast.Tuple, ast.List)):
            targets.extend(target.elts)
        elif isinstance(target, ast.Starred):
            targets.append(target.value)
        else:
            flat.append(target)
    return flat


def _holds(node: ast.With, lock: str) -> bool:
    return any(_dotted(item.context_expr) in (f"self.{lock}",
                                              f"self._parent.{lock}")
               for item in node.items)


def _walk(node: ast.AST, locked: bool, lock: str):
    """``(node, locked)`` for every node under ``node``; a nested
    function or lambda may run later, so it starts unlocked."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                              ast.Lambda)):
            yield from _walk(child, False, lock)
            continue
        yield child, locked
        yield from _walk(child, locked or isinstance(child, ast.With)
                         and _holds(child, lock), lock)


# ----------------------------------------------------------------------
# GC120: the service's shared state under its lock
# ----------------------------------------------------------------------
def _through_shared(node: ast.AST, aliases: set[str]) -> bool:
    """``node`` is ``self.cache`` / ``self.store`` (a session's through
    ``self._parent``), an alias of them, or a chain starting there."""
    while True:
        if isinstance(node, ast.Attribute):
            if node.attr in SHARED and _dotted(node.value) in (
                    "self", "self._parent"):
                return True
            node = node.value
        elif isinstance(node, ast.Subscript):
            node = node.value
        elif isinstance(node, ast.Call):
            node = node.func
        else:
            return isinstance(node, ast.Name) and node.id in aliases


def _touches(function: ast.FunctionDef):
    """``(line, what, locked)`` for each touch of the shared state, and
    ``(owner, callee, locked)`` for each ``self.<m>()`` /
    ``self._parent.<m>()`` call, in one method."""
    aliases: set[str] = set()
    grew = True
    while grew:
        grew = False
        for node in ast.walk(function):
            if (isinstance(node, ast.Assign)
                    and _through_shared(node.value, aliases)):
                for target in _stores(node):
                    if (isinstance(target, ast.Name)
                            and target.id not in aliases):
                        aliases.add(target.id)
                        grew = True
    touches, calls = [], []
    for node, locked in _walk(function, False, "_lock"):
        if isinstance(node, ast.Call) and isinstance(node.func,
                                                     ast.Attribute):
            if _through_shared(node.func.value, aliases):
                touches.append((node.lineno, "calls "
                                + ast.unparse(node.func), locked))
            owner = _dotted(node.func.value)
            if owner in ("self", "self._parent"):
                calls.append((owner, node.func.attr, locked))
        for target in _stores(node):
            if (isinstance(target, (ast.Attribute, ast.Subscript))
                    and _through_shared(target.value, aliases)
                    or isinstance(target, ast.Attribute)
                    and target.attr == "_query_counter"):
                touches.append((node.lineno, "writes "
                                + ast.unparse(target), locked))
    return touches, calls


def unguarded_service_touches(tree: ast.Module) -> list[str]:
    """GC120 over the service classes of ``tree``, as
    ``Class.method:line what``."""
    info = {(cls.name, function.name): _touches(function)
            for cls in tree.body
            if isinstance(cls, ast.ClassDef) and cls.name in SERVICE_CLASSES
            for function in cls.body if isinstance(function, ast.FunctionDef)}
    # A private method is covered while every call of it is locked or
    # sits in a covered method (a greatest fixpoint).
    covered = {key for key in info
               if key[1].startswith("_") and not key[1].startswith("__")}
    shrunk = True
    while shrunk:
        shrunk = False
        for key in sorted(covered):
            sites = [(caller, locked)
                     for caller, (_, calls) in info.items()
                     for owner, callee, locked in calls
                     if callee == key[1] and key[0] == (
                         "GraphCacheService" if owner == "self._parent"
                         else caller[0])]
            if not sites or any(not locked and caller not in covered
                                for caller, locked in sites):
                covered.discard(key)
                shrunk = True
    return [f"{cls}.{name}:{line} {what}"
            for (cls, name), (touches, _) in info.items()
            if name != "__init__" and (cls, name) not in covered
            for line, what, locked in touches if not locked]


def unguarded_monitor_fields(tree: ast.Module) -> list[str]:
    """GC120 over ``StatisticsMonitor``: its public methods touch its
    fields under ``with self._mutex:``."""
    found = []
    for cls in tree.body:
        if not (isinstance(cls, ast.ClassDef)
                and cls.name == "StatisticsMonitor"):
            continue
        fields = {node.target.id for node in cls.body
                  if isinstance(node, ast.AnnAssign)
                  and isinstance(node.target, ast.Name)} - {"_mutex"}
        for function in cls.body:
            if (isinstance(function, ast.FunctionDef)
                    and not function.name.startswith("_")):
                found.extend(
                    f"{cls.name}.{function.name}:{node.lineno} "
                    f"self.{node.attr}"
                    for node, locked in _walk(function, False, "_mutex")
                    if isinstance(node, ast.Attribute)
                    and _dotted(node.value) == "self"
                    and node.attr in fields and not locked)
    return found


def shared_state_names(trees: dict[str, ast.Module]) -> set[str]:
    """The names the tree gives a ``CacheManager``, ``StatisticsMonitor``
    or ``QueryIndex``: annotated with one, or bound to a construction."""
    names: set[str] = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.arg) and node.annotation is not None:
                annotated = {_dotted(n) for n in ast.walk(node.annotation)}
                if annotated & TRACKED:
                    names.add(node.arg)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                value = node.value
                built = (isinstance(value, ast.Call)
                         and (_dotted(value.func) or "").split(".")[0]
                         in TRACKED)
                annotated = (isinstance(node, ast.AnnAssign)
                             and {_dotted(n) for n in ast.walk(
                                 node.annotation)} & TRACKED)
                if built or annotated:
                    for target in _stores(node):
                        if isinstance(target, (ast.Name, ast.Attribute)):
                            names.add(target.id if isinstance(
                                target, ast.Name) else target.attr)
    return names


def outside_writes(trees: dict[str, ast.Module]) -> list[str]:
    """Every store through a shared-state name, as ``file:line target``."""
    names = shared_state_names(trees)
    found = []
    for rel, tree in sorted(trees.items()):
        for node in ast.walk(tree):
            for target in _stores(node):
                if not isinstance(target, (ast.Attribute, ast.Subscript)):
                    continue
                receiver = target.value
                if isinstance(target, ast.Subscript):
                    # ``x.table[k] = v`` writes into ``x``'s table
                    if not isinstance(receiver, ast.Attribute):
                        continue
                    receiver = receiver.value
                last = (receiver.id if isinstance(receiver, ast.Name)
                        else getattr(receiver, "attr", None))
                if last in names:
                    found.append(f"{rel}:{node.lineno} "
                                 f"{ast.unparse(target)}")
    return found


def _parse_tree() -> dict[str, ast.Module]:
    return {path.relative_to(SRC).as_posix():
            ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(SRC.rglob("*.py"))}


TREE = _parse_tree()


def test_service_touches_shared_state_under_its_lock():
    assert unguarded_service_touches(TREE["api/service.py"]) == []


def test_monitor_touches_its_fields_under_its_mutex():
    assert unguarded_monitor_fields(TREE["runtime/monitor.py"]) == []


def test_no_module_writes_shared_state_from_outside():
    assert {"cache", "index", "monitor"} <= shared_state_names(TREE)
    assert outside_writes(TREE) == []


SERVICE_HEAD = "class GraphCacheService:\n"
SEEDED = {  # test id: (checker, source, findings it must report)
    "method-call-unlocked": ("service", SERVICE_HEAD + (
        "    def counters(self):\n"
        "        self.cache.clear(self.store)\n"), 1),
    "method-call-locked": ("service", SERVICE_HEAD + (
        "    def purge(self):\n"
        "        with self._lock:\n"
        "            self.cache.clear(self.store)\n"), 0),
    "read-is-legal": ("service", SERVICE_HEAD + (
        "    def counters(self):\n"
        "        return {'admissions': self.cache.admissions}\n"), 0),
    "alias-call-unlocked": ("service", SERVICE_HEAD + (
        "    def peek(self, query):\n"
        "        index = self.cache.index\n"
        "        return index.identical_resident(query)\n"), 1),
    "write-through-unlocked": ("service", SERVICE_HEAD + (
        "    def reset(self):\n"
        "        self.cache.index.generation = 0\n"), 1),
    "counter-write-unlocked": ("service", SERVICE_HEAD + (
        "    def skip(self):\n"
        "        self._query_counter += 1\n"), 1),
    "constructor-is-legal": ("service", SERVICE_HEAD + (
        "    def __init__(self, store):\n"
        "        self._query_counter = 0\n"
        "        store.log.mark()\n"), 0),
    "helper-called-under-lock": ("service", SERVICE_HEAD + (
        "    def refresh(self):\n"
        "        with self._lock:\n"
        "            return self._refresh()\n"
        "    def _refresh(self):\n"
        "        return self.cache.ensure_consistency(self.store)\n"), 0),
    "helper-called-unlocked": ("service", SERVICE_HEAD + (
        "    def refresh(self):\n"
        "        with self._lock:\n"
        "            self._refresh()\n"
        "        return self._refresh()\n"
        "    def _refresh(self):\n"
        "        return self.cache.ensure_consistency(self.store)\n"), 1),
    "session-through-parent": ("service", (
        "class ServiceSession:\n"
        "    def purge(self):\n"
        "        self._parent.cache.clear(self._parent.store)\n"), 1),
    "closure-runs-unlocked": ("service", SERVICE_HEAD + (
        "    def later(self):\n"
        "        with self._lock:\n"
        "            return lambda: self.cache.clear(self.store)\n"), 1),
    "monitor-field-unlocked": ("monitor", (
        "class StatisticsMonitor:\n"
        "    queries: int = 0\n"
        "    def peek(self):\n"
        "        return self.queries\n"), 1),
    "monitor-field-locked": ("monitor", (
        "class StatisticsMonitor:\n"
        "    queries: int = 0\n"
        "    def peek(self):\n"
        "        with self._mutex:\n"
        "            return self.queries\n"), 0),
    "outside-write-by-attribute": ("outside", (
        "class Server:\n"
        "    def reset(self):\n"
        "        self.service.cache.renewals = 0\n"), 1),
    "outside-write-by-annotation": ("outside", (
        "def bump(index: QueryIndex):\n"
        "    index.generation += 1\n"), 1),
    "own-attribute-write": ("outside", (
        "class QueryIndex:\n"
        "    def bump(self):\n"
        "        self.generation += 1\n"), 0),
}
CHECKERS = {
    "service": unguarded_service_touches,
    "monitor": unguarded_monitor_fields,
    # with the tree's names for the shared objects, plus the snippet's
    "outside": lambda tree: [
        found for found in outside_writes({**TREE, "seeded.py": tree})
        if found.startswith("seeded.py:")],
}


@pytest.mark.parametrize("checker,source,expected", SEEDED.values(),
                         ids=SEEDED)
def test_seeded_gc120(checker, source, expected):
    assert len(CHECKERS[checker](ast.parse(source))) == expected


# ----------------------------------------------------------------------
# GC110 / GC111: the fixture wraps every lock, and each rule fires
# ----------------------------------------------------------------------
def constructed_locks(trees: dict[str, ast.Module]) -> set[str]:
    """``Owner.attribute`` (a module's stem for a module-level lock) of
    every ``threading`` lock or condition constructed in the tree; a
    construction that is not assigned is named by ``file:line``."""
    found = set()
    for rel, tree in trees.items():
        imported = {alias.asname or alias.name
                    for node in ast.walk(tree)
                    if isinstance(node, ast.ImportFrom)
                    and node.module == "threading"
                    for alias in node.names if alias.name in LOCK_KINDS}

        def is_lock(node: ast.AST) -> bool:
            name = _dotted(node)
            return name is not None and (
                name.startswith("threading.") and name[10:] in LOCK_KINDS
                or name in imported)

        def visit(node: ast.AST, owner: str, assigned: str | None) -> None:
            if isinstance(node, ast.ClassDef):
                owner = node.name
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = _stores(node)
                target = targets[0] if len(targets) == 1 else None
                attribute = (target.attr if isinstance(target, ast.Attribute)
                             else getattr(target, "id", None))
                assigned = attribute and f"{owner}.{attribute}"
                if node.value is not None:
                    visit(node.value, owner, assigned)
                return
            if (isinstance(node, ast.Call) and is_lock(node.func)
                    or isinstance(node, ast.keyword)
                    and node.arg == "default_factory"
                    and is_lock(node.value)):
                found.add(assigned or f"{rel}:{node.lineno}")
            for child in ast.iter_child_nodes(node):
                visit(child, owner, assigned)

        visit(tree, Path(rel).stem, None)
    return found


def test_the_fixture_wraps_every_lock_the_package_constructs():
    assert constructed_locks(TREE) == set(LOCKS)
    assert len(LOCKS) == 9


def _request(port: int, method: str, path: str,
             payload: object = None) -> int:
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
    try:
        body = None if payload is None else json.dumps(payload).encode()
        connection.request(method, path, body=body)
        response = connection.getresponse()
        response.read()
        return response.status
    finally:
        connection.close()


def test_every_wrapped_lock_is_taken(lock_discipline, tmp_path):
    """A sidecar under ``lock_mode="auto"`` serves a query and a scrape
    and drains to a snapshot: that takes all nine locks, so a lock the
    fixture stopped wrapping (or a wrapper that stopped recording)
    shows here."""
    before = RECORDER.acquired.copy()
    with fresh_profile_registry():   # new atoms: plans._ATOMS_LOCK
        store = GraphStore.from_graphs(
            [LabeledGraph.from_edges("CCO", [(0, 1), (1, 2)])])
        service = GraphCacheService(store, GCConfig(model="CON",
                                                    max_sessions=2))
        server = CacheServer(service, snapshot_path=tmp_path / "s.jsonl")
        server.start()
        try:
            query = LabeledGraph.from_edges("CO", [(0, 1)])
            assert _request(server.port, "POST", "/query",
                            {"graph": graph_to_wire(query)}) == 200
            assert _request(server.port, "GET", "/metrics") == 200
        finally:
            report = server.drain(timeout=5.0)
    assert report.snapshot_path is not None
    taken = RECORDER.acquired - before
    assert {name for name in LOCKS if not taken[name]} == set()


@pytest.fixture(params=["rw", "auto"])
def service(request):
    """A service whose ``_lock`` is a real lock (``rw``) or, with no
    session open, the no-op ``nullcontext`` of ``lock_mode="auto"``:
    the fixture records both alike."""
    store = GraphStore.from_graphs(
        [LabeledGraph.from_edges("CCO", [(0, 1), (1, 2)])])
    with GraphCacheService(store, GCConfig(model="CON",
                                           lock_mode=request.param)
                           ) as service:
        yield service


def test_a_lock_order_cycle_is_found(service):
    """``_session_guard`` inside ``_lock`` on one path and the reverse
    on another is a cycle, though neither path deadlocked."""
    recorder = Recorder()
    mark = recorder.mark()
    with pytest.MonkeyPatch.context() as monkeypatch:
        install(monkeypatch, recorder)
        with service._lock:
            with service._session_guard:
                pass
        assert recorder.faults_since(mark) == []
        with service._session_guard:
            with service._lock:
                pass
    [fault] = recorder.faults_since(mark)
    assert fault.startswith(
        "lock-order cycle (GC110) GraphCacheService._lock -> "
        "GraphCacheService._session_guard -> GraphCacheService._lock: ")
    assert fault.count("first at") == 2


def test_blocking_under_the_service_lock_is_found(service, tmp_path):
    """The package encoding and writing a snapshot under the service
    lock is recorded; the test's own sleep and ``save_snapshot`` call
    under it are not the package's, and are not."""
    recorder = Recorder()
    snapshot = load_snapshot(service.save(tmp_path / "a.jsonl"))
    with pytest.MonkeyPatch.context() as monkeypatch:
        install(monkeypatch, recorder)
        with service._lock:
            time.sleep(0)
        assert recorder.blocked == []
        with service._lock:
            save_snapshot(tmp_path / "b.jsonl", snapshot)
        under = list(recorder.blocked)
        save_snapshot(tmp_path / "c.jsonl", snapshot)
    assert recorder.blocked == under
    blocked = " ".join(under)
    for call in ("encode_snapshot", "open", "replace"):
        assert f"{call} under GraphCacheService._lock" in blocked
    # the test called save_snapshot itself; the package called the rest
    assert "save_snapshot under" not in blocked
    assert "persist/snapshot.py" in blocked


def test_a_one_caller_query_holds_the_recorded_lock(service):
    recorder = Recorder()
    with pytest.MonkeyPatch.context() as monkeypatch:
        install(monkeypatch, recorder)
        service.execute(LabeledGraph.from_edges("CO", [(0, 1)]))
    assert recorder.acquired["GraphCacheService._lock"] == 1
    assert recorder.held() == []


def test_a_cycle_fails_the_test_that_closed_it():
    """Later tests that add no edge do not fail on an old cycle."""
    recorder = Recorder()
    a = RecordingLock("a", threading.Lock(), recorder)
    b = RecordingLock("b", threading.Lock(), recorder)
    with a, b:
        pass
    mark = recorder.mark()
    with b, a:
        pass
    assert [fault.split(":")[0] for fault in recorder.faults_since(mark)
            ] == ["lock-order cycle (GC110) b -> a -> b"]
    later = recorder.mark()
    c = RecordingLock("c", threading.Lock(), recorder)
    with a, b:   # an edge already in the graph
        pass
    with c, a:   # a new edge, on no cycle
        pass
    assert recorder.faults_since(later) == []


def test_find_path():
    edges = [("a", "b"), ("b", "c"), ("c", "a"), ("d", "a")]
    assert find_path(edges, "a", "c") == ["a", "b", "c"]
    assert find_path(edges, "a", "a") == ["a"]
    assert find_path(edges, "a", "d") is None


def test_threads_keep_their_own_held_stacks():
    recorder = Recorder()
    a = RecordingLock("a", threading.Lock(), recorder)
    b = RecordingLock("b", threading.Lock(), recorder)
    holding, done = threading.Event(), threading.Event()

    def hold_a():
        with a:
            holding.set()
            done.wait(timeout=10)

    thread = threading.Thread(target=hold_a)
    thread.start()
    assert holding.wait(timeout=10)
    with b:       # another thread holds "a": no edge a -> b
        pass
    done.set()
    thread.join()
    assert recorder.edges == {}
    assert recorder.acquired == {"a": 1, "b": 1}
