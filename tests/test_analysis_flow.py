"""Unit tests for the gclint v2 flow engine: the intraprocedural CFG,
the project call graph, and the lock-state dataflow that the GC1xx
rules are built on.

These pin the *engine* semantics the rules rely on — may/must entry
contexts, canonical lock identities, acquisition-order edges —
independently of
any rule's message or scoping, so a rule regression and an engine
regression fail different tests.
"""

from __future__ import annotations

import ast
import textwrap
from pathlib import Path

from repro.analysis.callgraph import build_project_graph, module_key
from repro.analysis.cfg import build_cfg
from repro.analysis.core import collect_modules
from repro.analysis.lockstate import ConcurrencyIndex, may_locks


def _func(source: str) -> ast.FunctionDef:
    tree = ast.parse(textwrap.dedent(source))
    (node,) = [n for n in tree.body if isinstance(n, ast.FunctionDef)]
    return node


def _modules(tmp_path: Path, **files: str):
    # Everything goes under src/ so module_key() yields stable dotted
    # names ("cache.m") and intra-tree imports resolve.
    for rel, body in files.items():
        target = tmp_path / "src" / rel.replace("__", "/")
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(textwrap.dedent(body), encoding="utf-8")
    return collect_modules([tmp_path])


# ----------------------------------------------------------------------
# CFG construction
# ----------------------------------------------------------------------
class TestCfg:
    def test_linear_body_chains_entry_to_exit(self):
        cfg = build_cfg(_func("""\
            def f():
                a = 1
                b = 2
                return a + b
            """))
        # entry → 3 stmt nodes → exit, all reachable.
        kinds = [n.kind for n in cfg.nodes]
        assert kinds.count("stmt") == 3
        reached = {cfg.entry}
        frontier = [cfg.entry]
        while frontier:
            for dst, _pops in cfg.succs[frontier.pop()]:
                if dst not in reached:
                    reached.add(dst)
                    frontier.append(dst)
        assert cfg.exit in reached

    def test_with_nodes_pair_enter_and_exit(self):
        cfg = build_cfg(_func("""\
            def f(lock):
                with lock:
                    pass
            """))
        enters = [n for n in cfg.nodes if n.kind == "with_enter"]
        exits = [n for n in cfg.nodes if n.kind == "with_exit"]
        assert len(enters) == 1 and len(exits) == 1
        assert exits[0].enter_id == enters[0].index

    def test_branches_rejoin(self):
        cfg = build_cfg(_func("""\
            def f(flag):
                if flag:
                    a = 1
                else:
                    a = 2
                return a
            """))
        # The return statement has two predecessors (both arms).
        (ret_idx,) = [n.index for n in cfg.nodes
                      if n.kind == "stmt"
                      and isinstance(n.ast_node, ast.Return)]
        preds = [src for src, edges in cfg.succs.items()
                 for dst, _pops in edges if dst == ret_idx]
        assert len(preds) == 2

    def test_break_edge_pops_the_with_region(self):
        cfg = build_cfg(_func("""\
            def f(lock, items):
                for item in items:
                    with lock:
                        break
                return 0
            """))
        (enter,) = [n.index for n in cfg.nodes if n.kind == "with_enter"]
        popping = [pops for _src, edges in cfg.succs.items()
                   for _dst, pops in edges if enter in pops]
        assert popping, "break out of a with must record the region pop"


# ----------------------------------------------------------------------
# Call graph
# ----------------------------------------------------------------------
class TestCallGraph:
    def test_module_key_strips_src_prefix(self):
        assert module_key("src/repro/cache/manager.py") == \
            "repro.cache.manager"
        assert module_key("pkg/__init__.py") == "pkg"

    def test_self_method_call_resolves(self, tmp_path):
        graph = build_project_graph(_modules(tmp_path, **{
            "cache__m.py": """\
                class Manager:
                    def outer(self):
                        return self.inner()

                    def inner(self):
                        return 1
                """,
        }))
        outer = "cache.m.Manager.outer"
        inner = "cache.m.Manager.inner"
        assert inner in [callee for callee, _ in graph.edges[outer]]
        assert outer in [caller for caller, _cid, _ln
                         in graph.callers[inner]]

    def test_attr_type_flows_through_constructor(self, tmp_path):
        graph = build_project_graph(_modules(tmp_path, **{
            "cache__helper.py": """\
                class Helper:
                    def run(self):
                        return 1
                """,
            "cache__owner.py": """\
                from cache.helper import Helper


                class Owner:
                    def __init__(self):
                        self.helper = Helper()

                    def go(self):
                        return self.helper.run()
                """,
        }))
        owner_cls = graph.classes["cache.owner.Owner"]
        assert owner_cls.attr_types["helper"] == "cache.helper.Helper"
        assert "cache.helper.Helper.run" in \
            [callee for callee, _ in graph.edges["cache.owner.Owner.go"]]


# ----------------------------------------------------------------------
# Lock-state dataflow
# ----------------------------------------------------------------------
_PREAMBLE = """\
    class Manager:
        def __init__(self, lock, mutex):
            self.lock = lock
            self._mutex = mutex

"""


class TestLockState:
    def _index(self, tmp_path, methods):
        # _modules dedents the whole file by the preamble's 4 spaces, so
        # 8 here leaves the methods indented one level inside the class.
        body = _PREAMBLE + textwrap.indent(textwrap.dedent(methods),
                                           "        ")
        return ConcurrencyIndex(_modules(tmp_path, **{"cache__m.py": body}))

    def _flow(self, tmp_path, methods, name):
        index = self._index(tmp_path, methods)
        (qualname,) = [q for q in index.flows if q.endswith(name)]
        return index.flows[qualname]

    def test_canonical_ids(self, tmp_path):
        flow = self._flow(tmp_path, """\
            def use(self):
                with self.lock:
                    pass
                lock = self._mutex
                with lock:
                    pass
            """, ".use")
        acquired = [a.lock_id for a in flow.acquisitions]
        assert acquired == ["Manager.lock", "Manager._mutex"]

    def test_sequential_holds_do_not_overlap(self, tmp_path):
        flow = self._flow(tmp_path, """\
            def use(self):
                with self.lock:
                    pass
                with self._mutex:
                    pass
            """, ".use")
        (second,) = [a for a in flow.acquisitions
                     if a.lock_id == "Manager._mutex"]
        assert "Manager.lock" not in may_locks(second.state_before)

    def test_explicit_acquire_release_balances(self, tmp_path):
        # The PR 3 worker loop shape: balanced explicit acquire/release
        # inside a loop must not accumulate phantom holds.
        flow = self._flow(tmp_path, """\
            def pump(self, jobs):
                for job in jobs:
                    self._mutex.acquire()
                    job()
                    self._mutex.release()
                return self.poll()
            """, ".pump")
        states = [state for call, state in flow.calls
                  if isinstance(call.func, ast.Attribute)
                  and call.func.attr == "poll"]
        assert states and "Manager._mutex" not in may_locks(states[0])

    def test_may_entry_propagates_caller_holds(self, tmp_path):
        index = self._index(tmp_path, """\
            def guarded(self):
                with self.lock:
                    return self.helper()

            def helper(self):
                return 1
            """)
        (helper,) = [q for q in index.flows if q.endswith(".helper")]
        assert "Manager.lock" in index.may_entry[helper]
        chain = index.entry_chain(helper, "Manager.lock")
        assert chain and "guarded" in chain[0]

    def test_must_entry_is_empty_with_an_unlocked_caller(self, tmp_path):
        index = self._index(tmp_path, """\
            def guarded(self):
                with self.lock:
                    return self.helper()

            def bare(self):
                return self.helper()

            def helper(self):
                return 1
            """)
        (helper,) = [q for q in index.flows if q.endswith(".helper")]
        # may: the hold can be inherited; must: the bare caller means
        # nothing is guaranteed.
        assert "Manager.lock" in index.may_entry[helper]
        assert index.must_entry[helper] == frozenset()

    def test_uncalled_method_has_top_must_entry(self, tmp_path):
        index = self._index(tmp_path, """\
            def orphan(self):
                return self
            """)
        (orphan,) = [q for q in index.flows if q.endswith(".orphan")]
        assert index.must_entry[orphan] is None

    def test_opposite_order_chains_form_a_cycle(self, tmp_path):
        index = self._index(tmp_path, """\
            def ab(self):
                with self.lock:
                    with self._mutex:
                        pass

            def ba(self):
                with self._mutex:
                    with self.lock:
                        pass
            """)
        (cycle,) = index.lock_order_cycles()
        locks = {edge.held for edge in cycle}
        assert locks == {"Manager.lock", "Manager._mutex"}

    def test_consistent_order_is_acyclic(self, tmp_path):
        index = self._index(tmp_path, """\
            def ab(self):
                with self.lock:
                    with self._mutex:
                        pass

            def ab_again(self):
                self.lock.acquire()
                with self._mutex:
                    pass
                self.lock.release()
            """)
        assert index.lock_order_cycles() == []
        assert {(e.held, e.acquired) for e in index.edges} == {
            ("Manager.lock", "Manager._mutex")}
