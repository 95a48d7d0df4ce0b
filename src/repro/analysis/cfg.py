"""Intraprocedural control-flow graphs for gclint's flow-aware rules.

One :class:`CFG` is built per function body.  Nodes are per-statement
(plus synthetic ``with_enter``/``with_exit`` nodes per ``with`` item),
edges carry the set of ``with`` regions they leave so the lock-state
analysis can release context-manager-held locks on early exits
(``break``/``continue``/``return``/``raise`` and exceptional edges into
``except`` handlers).

Design notes
------------
* ``try`` is modeled conservatively: every node created while the try
  body is open gets an exceptional edge to each handler entry (and to
  the ``finally`` entry when present).  This over-approximates reachable
  states, which is the safe direction for both the may- and the
  must-analysis built on top.
* ``return``/``raise`` edges point at the synthetic exit node and pop
  every open ``with`` region (Python runs ``__exit__`` while unwinding);
  explicit ``lock.acquire()`` holds are *not* popped, which
  matches runtime semantics — an early return genuinely leaks them.
* Nested ``def``/``lambda``/``class`` bodies are opaque single nodes:
  they execute later, under a different lock context.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

__all__ = ["CFG", "CFGNode", "build_cfg"]

ENTRY = "entry"
EXIT = "exit"
STMT = "stmt"
WITH_ENTER = "with_enter"
WITH_EXIT = "with_exit"


@dataclass
class CFGNode:
    """A single CFG vertex.

    ``ast_node`` is the governing statement (or ``withitem`` for the
    synthetic with nodes).  ``enter_id`` links a ``with_exit`` node back
    to its ``with_enter`` twin so the dataflow can pop exactly the holds
    that region pushed.
    """

    index: int
    kind: str
    ast_node: ast.AST | None = None
    enter_id: int | None = None


@dataclass
class CFG:
    nodes: list[CFGNode] = field(default_factory=list)
    # succs[i] -> list of (target index, tuple of with_enter ids popped
    # along this edge, i.e. regions the edge exits).
    succs: dict[int, list[tuple[int, tuple[int, ...]]]] = field(default_factory=dict)
    entry: int = 0
    exit: int = 1

    def add_node(self, kind: str, ast_node: ast.AST | None = None,
                 enter_id: int | None = None) -> int:
        node = CFGNode(index=len(self.nodes), kind=kind, ast_node=ast_node,
                       enter_id=enter_id)
        self.nodes.append(node)
        self.succs[node.index] = []
        return node.index

    def add_edge(self, src: int, dst: int, pops: tuple[int, ...] = ()) -> None:
        edge = (dst, pops)
        bucket = self.succs[src]
        if edge not in bucket:
            bucket.append(edge)


@dataclass
class _LoopCtx:
    head: int
    with_depth: int
    breaks: list[tuple[int, tuple[int, ...]]] = field(default_factory=list)


@dataclass
class _TryCtx:
    handler_entries: list[int]
    with_depth: int


class _Builder:
    def __init__(self) -> None:
        self.cfg = CFG()
        self.cfg.entry = self.cfg.add_node(ENTRY)
        self.cfg.exit = self.cfg.add_node(EXIT)
        self._loops: list[_LoopCtx] = []
        self._tries: list[_TryCtx] = []
        self._with_ctx: list[int] = []

    # -- helpers -----------------------------------------------------------

    def _pops_from(self, depth: int) -> tuple[int, ...]:
        """With regions exited when jumping out to ``depth`` open regions."""
        return tuple(reversed(self._with_ctx[depth:]))

    def _new_node(self, kind: str, ast_node: ast.AST | None = None,
                  enter_id: int | None = None) -> int:
        idx = self.cfg.add_node(kind, ast_node, enter_id)
        # Conservative exceptional edges: anything inside an open try may
        # transfer to its handlers, releasing the with regions opened
        # since the try started.
        for ctx in self._tries:
            pops = self._pops_from(ctx.with_depth)
            for handler in ctx.handler_entries:
                self.cfg.add_edge(idx, handler, pops)
        return idx

    def _link(self, frontier: list[int], target: int) -> None:
        for src in frontier:
            self.cfg.add_edge(src, target)

    # -- statement walk ----------------------------------------------------

    def build(self, func: ast.FunctionDef | ast.AsyncFunctionDef) -> CFG:
        frontier = self._stmts(func.body, [self.cfg.entry])
        self._link(frontier, self.cfg.exit)
        return self.cfg

    def _stmts(self, body: list[ast.stmt], frontier: list[int]) -> list[int]:
        for stmt in body:
            frontier = self._stmt(stmt, frontier)
        return frontier

    def _stmt(self, stmt: ast.stmt, frontier: list[int]) -> list[int]:
        if isinstance(stmt, ast.If):
            return self._if(stmt, frontier)
        if isinstance(stmt, (ast.While,)):
            return self._while(stmt, frontier)
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            return self._for(stmt, frontier)
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            return self._with(stmt, frontier)
        if isinstance(stmt, ast.Try):
            return self._try(stmt, frontier)
        if isinstance(stmt, ast.Match):
            return self._match(stmt, frontier)
        if isinstance(stmt, (ast.Return, ast.Raise)):
            node = self._new_node(STMT, stmt)
            self._link(frontier, node)
            self.cfg.add_edge(node, self.cfg.exit, self._pops_from(0))
            return []
        if isinstance(stmt, ast.Break):
            node = self._new_node(STMT, stmt)
            self._link(frontier, node)
            if self._loops:
                loop = self._loops[-1]
                loop.breaks.append((node, self._pops_from(loop.with_depth)))
            return []
        if isinstance(stmt, ast.Continue):
            node = self._new_node(STMT, stmt)
            self._link(frontier, node)
            if self._loops:
                loop = self._loops[-1]
                self.cfg.add_edge(node, loop.head,
                                  self._pops_from(loop.with_depth))
            return []
        # Everything else (incl. nested def/class, Assign, Expr, Assert,
        # Import, Global, Pass, Delete, AnnAssign, AugAssign) is a plain
        # sequential statement.
        node = self._new_node(STMT, stmt)
        self._link(frontier, node)
        return [node]

    def _if(self, stmt: ast.If, frontier: list[int]) -> list[int]:
        test = self._new_node(STMT, stmt)
        self._link(frontier, test)
        then_out = self._stmts(stmt.body, [test])
        if stmt.orelse:
            else_out = self._stmts(stmt.orelse, [test])
            return then_out + else_out
        return then_out + [test]

    @staticmethod
    def _is_literal_true(expr: ast.expr) -> bool:
        return isinstance(expr, ast.Constant) and expr.value is True

    def _break_frontier(self, loop: _LoopCtx) -> list[int]:
        """Frontier contribution of a loop's break statements.

        A break that exits ``with`` regions needs its pops carried on an
        edge, so those breaks are routed through a synthetic join node.
        """
        out = [node for node, pops in loop.breaks if not pops]
        popping = [(node, pops) for node, pops in loop.breaks if pops]
        if popping:
            join = self._new_node(STMT, None)
            for node, pops in popping:
                self.cfg.add_edge(node, join, pops)
            out.append(join)
        return out

    def _loop(self, stmt: ast.While | ast.For | ast.AsyncFor,
              frontier: list[int], *, may_skip_body: bool) -> list[int]:
        head = self._new_node(STMT, stmt)
        self._link(frontier, head)
        loop = _LoopCtx(head=head, with_depth=len(self._with_ctx))
        self._loops.append(loop)
        body_out = self._stmts(stmt.body, [head])
        self._loops.pop()
        for src in body_out:
            self.cfg.add_edge(src, head)
        out: list[int] = [head] if may_skip_body else []
        if stmt.orelse:
            out = self._stmts(stmt.orelse, out)
        out.extend(self._break_frontier(loop))
        return out

    def _while(self, stmt: ast.While, frontier: list[int]) -> list[int]:
        # ``while True`` only exits through break — keeping the head off
        # the frontier is what lets the acquire/release loop in
        # GraphCacheService._execute_pipeline analyze cleanly.
        return self._loop(stmt, frontier,
                          may_skip_body=not self._is_literal_true(stmt.test))

    def _for(self, stmt: ast.For | ast.AsyncFor, frontier: list[int]) -> list[int]:
        return self._loop(stmt, frontier, may_skip_body=True)

    def _with(self, stmt: ast.With | ast.AsyncWith, frontier: list[int]) -> list[int]:
        enters: list[int] = []
        for item in stmt.items:
            enter = self._new_node(WITH_ENTER, item)
            self._link(frontier, enter)
            frontier = [enter]
            enters.append(enter)
            self._with_ctx.append(enter)
        body_out = self._stmts(stmt.body, frontier)
        for enter in reversed(enters):
            assert self._with_ctx and self._with_ctx[-1] == enter
            self._with_ctx.pop()
            exit_node = self._new_node(WITH_EXIT, self.cfg.nodes[enter].ast_node,
                                       enter_id=enter)
            self._link(body_out, exit_node)
            body_out = [exit_node]
        return body_out

    def _try(self, stmt: ast.Try, frontier: list[int]) -> list[int]:
        depth = len(self._with_ctx)
        handler_entries: list[int] = []
        # Pre-create handler entry nodes so body nodes can target them.
        for handler in stmt.handlers:
            handler_entries.append(self._new_node(STMT, handler))
        ctx = _TryCtx(handler_entries=handler_entries, with_depth=depth)
        self._tries.append(ctx)
        # Exceptions may fire before the first body statement completes:
        # link the incoming frontier to the handlers too.
        for src in frontier:
            for handler in handler_entries:
                self.cfg.add_edge(src, handler)
        body_out = self._stmts(stmt.body, frontier)
        self._tries.pop()

        handler_outs: list[int] = []
        for handler, entry in zip(stmt.handlers, handler_entries):
            handler_outs.extend(self._stmts(handler.body, [entry]))

        else_out = self._stmts(stmt.orelse, body_out) if stmt.orelse else body_out

        out = else_out + handler_outs
        if stmt.finalbody:
            out = self._stmts(stmt.finalbody, out)
        return out

    def _match(self, stmt: ast.Match, frontier: list[int]) -> list[int]:
        subject = self._new_node(STMT, stmt)
        self._link(frontier, subject)
        out: list[int] = []
        for case in stmt.cases:
            out.extend(self._stmts(case.body, [subject]))
        # No case may match.
        out.append(subject)
        return out


def build_cfg(func: ast.FunctionDef | ast.AsyncFunctionDef) -> CFG:
    """Build the control-flow graph for one function body."""
    return _Builder().build(func)
