"""Lock-state abstract interpretation over gclint CFGs.

The abstract domain is a *set of lock stacks*: each stack is one
possible nesting of currently-held locks on some path to the program
point, entries ordered by acquisition.  From the set we derive

* **may-held** — the union over stacks (used by GC110/GC111:
  "could a lock be held here?"), and
* **must-held** — the intersection over stacks (used by GC120: "is this
  mutation provably guarded on every path?").

Lock *identity* is canonicalized through the call graph's attribute
types so ``self._lock`` inside ``GraphCacheService``,
``self.service._lock`` elsewhere, and a local alias
``lock = self.service._lock`` all collapse to
``GraphCacheService._lock``.  A lock is held by ``with <lock>:`` or
between explicit ``acquire()`` / ``release()`` calls.

Interprocedural layer: for every project function the
:class:`ConcurrencyIndex` computes

* ``may_entry(f)`` — locks that may already be held when ``f`` is
  entered, as the union over resolved call sites (fixpoint from ∅); and
* ``must_entry(f)`` — locks held at *every* resolved call site
  (fixpoint from ⊤, so a function the graph cannot see a caller for is
  vacuously guarded — unresolved dynamic dispatch must not turn into
  false positives).

Both propagate through the call graph, so "a helper does pipe I/O three
frames below ``with self._lock:``" is visible without any inlining.
The acquisition-order graph for GC110 falls out of the same pass.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Sequence

from repro.analysis import cfg as cfg_mod
from repro.analysis.callgraph import (FunctionInfo, ProjectGraph,
                                      build_project_graph, module_key)
from repro.analysis.core import ParsedModule, dotted_name

__all__ = [
    "AcquisitionEdge",
    "FunctionFlow",
    "ConcurrencyIndex",
    "LockAcquisition",
    "SERVICE_LOCK",
    "get_index",
    "held_locks", "may_locks", "must_locks", "iter_calls",
]

#: The service's one lock (``GraphCacheService._lock``), held for a
#: whole public call — what GC111 polices.
SERVICE_LOCK = "GraphCacheService._lock"

#: Depth cap per stack and width cap per state set; both are far above
#: anything real code does — they only bound pathological inputs.
_MAX_DEPTH = 10
_MAX_STATES = 64

#: Substrings that mark a receiver as lock-like.  ``cond`` covers
#: ``threading.Condition`` attributes, ``guard`` the service's
#: ``_session_guard``.
_LOCKISH = ("lock", "mutex", "guard", "cond", "sem")

#: Attribute types (dotted, as the call graph resolves them) that are
#: locks regardless of the attribute's name.
_LOCK_TYPES = {
    "threading.Lock", "threading.RLock", "threading.Condition",
    "threading.Semaphore", "threading.BoundedSemaphore",
}

# A hold: (lock_id, tag).  tag is the with_enter CFG node index for
# context-manager holds and -1 for explicit acquire() holds, which
# region-exit edges must NOT release (Python doesn't either).
Hold = tuple[str, int]
Stack = tuple[Hold, ...]
State = frozenset[Stack]

_EMPTY_STATE: State = frozenset({()})


def held_locks(stack: Stack) -> frozenset[str]:
    return frozenset(lock for lock, _tag in stack)


def may_locks(state: State) -> frozenset[str]:
    out: set[str] = set()
    for stack in state:
        out.update(held_locks(stack))
    return frozenset(out)


def must_locks(state: State) -> frozenset[str] | None:
    """Intersection over stacks; ``None`` is ⊤ (unreachable point)."""
    result: frozenset[str] | None = None
    for stack in state:
        locks = held_locks(stack)
        result = locks if result is None else (result & locks)
    return result


@dataclass(frozen=True)
class LockAcquisition:
    """One acquisition site, with the local may-state just before it."""

    lock_id: str
    line: int
    col: int
    state_before: State


@dataclass
class FunctionFlow:
    """Per-function result of the intraprocedural lock-state pass."""

    info: FunctionInfo
    cfg: cfg_mod.CFG
    #: in-state per CFG node index (post-fixpoint)
    node_states: dict[int, State] = field(default_factory=dict)
    acquisitions: list[LockAcquisition] = field(default_factory=list)
    #: id(ast.Call) -> may-state at the call
    call_states: dict[int, State] = field(default_factory=dict)
    #: every analyzed call with its in-state, in CFG order — the rules'
    #: iteration surface (``call_states`` is the by-id lookup twin)
    calls: list[tuple[ast.Call, State]] = field(default_factory=list)
    #: (ast.stmt, in-state) for every plain statement node, in CFG order
    stmt_states: list[tuple[ast.stmt, State]] = field(default_factory=list)

    def may_at_call(self, call_id: int) -> frozenset[str]:
        return may_locks(self.call_states.get(call_id, frozenset()))


class _LockResolver:
    """Canonical lock identities for one function body."""

    def __init__(self, graph: ProjectGraph, func: FunctionInfo) -> None:
        self.graph = graph
        self.func = func
        self.cls = graph.class_of(func)
        self.aliases = self._alias_map(func.node)

    @staticmethod
    def _alias_map(node: ast.FunctionDef | ast.AsyncFunctionDef
                   ) -> dict[str, str]:
        """``lock = self.cache.lock``-style local aliases; a name bound
        to two different chains is dropped."""
        aliases: dict[str, str] = {}
        dropped: set[str] = set()
        for stmt in ast.walk(node):
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                    and stmt is not node:
                continue
            if not (isinstance(stmt, ast.Assign) and len(stmt.targets) == 1):
                continue
            target = stmt.targets[0]
            if not isinstance(target, ast.Name):
                continue
            value = dotted_name(stmt.value)
            if value is None:
                dropped.add(target.id)
                continue
            if target.id in aliases and aliases[target.id] != value:
                dropped.add(target.id)
                continue
            aliases[target.id] = value
        for name in dropped:
            aliases.pop(name, None)
        return aliases

    def _expand(self, dotted: str) -> str:
        for _ in range(3):
            head, _, rest = dotted.partition(".")
            replacement = self.aliases.get(head)
            if replacement is None or replacement == dotted:
                break
            dotted = replacement + ("." + rest if rest else "")
        return dotted

    def _type_of_chain(self, parts: list[str]) -> str | None:
        """Class qualname of the object denoted by ``parts`` (empty
        list → the receiver ``self`` context is not applicable)."""
        if not parts:
            return None
        root, rest = parts[0], parts[1:]
        if root == "self":
            current = self.cls.qualname if self.cls is not None else None
        else:
            current = self.func.local_types.get(root)
        for attr in rest:
            if current is None:
                return None
            current = self.graph.attr_type(current, attr)
        return current

    def resolve(self, expr: ast.expr) -> str | None:
        """Receiver expression → lock_id, or ``None`` when the
        expression is not lock-like."""
        dotted = dotted_name(expr)
        if dotted is None:
            return None
        dotted = self._expand(dotted)
        parts = dotted.split(".")
        leaf = parts[-1]
        attr_type = self._type_of_chain(parts)
        lockish = any(token in leaf.lower() for token in _LOCKISH)
        if not lockish and attr_type not in _LOCK_TYPES:
            return None
        if parts == ["self"] and self.cls is not None:
            return self.cls.qualname.split(".")[-1]
        owner = self._type_of_chain(parts[:-1])
        if owner is not None:
            short = owner.split(".")[-1]
            return f"{short}.{leaf}"
        if parts[0] == "self" and self.cls is not None:
            short = self.cls.qualname.split(".")[-1]
            return f"{short}." + ".".join(parts[1:])
        return f"{module_key(self.func.module.relpath)}:{dotted}"


def _shallow_exprs(stmt: ast.AST) -> list[ast.expr]:
    """Expressions evaluated *at* a statement's own CFG node — header
    expressions only; nested block statements have their own nodes."""
    if isinstance(stmt, ast.If) or isinstance(stmt, ast.While):
        return [stmt.test]
    if isinstance(stmt, (ast.For, ast.AsyncFor)):
        return [stmt.iter, stmt.target]
    if isinstance(stmt, ast.withitem):
        out = [stmt.context_expr]
        if stmt.optional_vars is not None:
            out.append(stmt.optional_vars)
        return out
    if isinstance(stmt, ast.Return):
        return [stmt.value] if stmt.value else []
    if isinstance(stmt, ast.Raise):
        return [e for e in (stmt.exc, stmt.cause) if e is not None]
    if isinstance(stmt, ast.Assign):
        return list(stmt.targets) + [stmt.value]
    if isinstance(stmt, ast.AugAssign):
        return [stmt.target, stmt.value]
    if isinstance(stmt, ast.AnnAssign):
        return ([stmt.target, stmt.value] if stmt.value
                else [stmt.target])
    if isinstance(stmt, ast.Expr):
        return [stmt.value]
    if isinstance(stmt, ast.Assert):
        return [e for e in (stmt.test, stmt.msg) if e is not None]
    if isinstance(stmt, ast.Delete):
        return list(stmt.targets)
    if isinstance(stmt, ast.Match):
        return [stmt.subject]
    if isinstance(stmt, ast.ExceptHandler):
        return [stmt.type] if stmt.type else []
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                         ast.ClassDef)):
        return []
    # Fallback: direct expression children (Global/Pass/Import have none).
    return [child for child in ast.iter_child_nodes(stmt)
            if isinstance(child, ast.expr)]


def iter_calls(exprs: Sequence[ast.expr]) -> list[ast.Call]:
    """All calls in the given expressions, skipping lambda bodies."""
    out: list[ast.Call] = []
    pending: list[ast.AST] = list(exprs)
    while pending:
        item = pending.pop(0)
        if isinstance(item, ast.Lambda):
            continue
        if isinstance(item, ast.Call):
            out.append(item)
        pending.extend(ast.iter_child_nodes(item))
    return out


@dataclass(frozen=True)
class _LockOp:
    kind: str          # "acquire" | "release"
    lock_id: str
    line: int
    col: int


def _lock_ops(resolver: _LockResolver,
              exprs: Sequence[ast.expr]) -> list[_LockOp]:
    """Explicit acquire/release calls inside the given expressions, in
    source order."""
    ops: list[_LockOp] = []
    for call in iter_calls(exprs):
        func = call.func
        if not (isinstance(func, ast.Attribute)
                and func.attr in ("acquire", "release")):
            continue
        lock_id = resolver.resolve(func.value)
        if lock_id is None:
            continue
        ops.append(_LockOp(kind=func.attr, lock_id=lock_id,
                           line=call.lineno, col=call.col_offset + 1))
    ops.sort(key=lambda op: (op.line, op.col))
    return ops


def _classify_with_item(resolver: _LockResolver,
                        item: ast.withitem) -> str | None:
    """``with <expr>:`` → lock_id when the item is a lock."""
    expr = item.context_expr
    if isinstance(expr, (ast.Name, ast.Attribute)):
        return resolver.resolve(expr)
    return None


def _push(state: State, hold: Hold) -> State:
    out = set()
    for stack in state:
        if len(stack) < _MAX_DEPTH:
            out.add(stack + (hold,))
        else:
            out.add(stack)
    return _cap(frozenset(out))


def _pop_lock(state: State, lock_id: str) -> State:
    """Release the topmost hold of ``lock_id`` on each stack, if any."""
    out = set()
    for stack in state:
        idx = None
        for position in range(len(stack) - 1, -1, -1):
            if stack[position][0] == lock_id:
                idx = position
                break
        if idx is None:
            out.add(stack)
        else:
            out.add(stack[:idx] + stack[idx + 1:])
    return _cap(frozenset(out))


def _pop_tags(state: State, tags: tuple[int, ...]) -> State:
    if not tags:
        return state
    tagset = set(tags)
    out = set()
    for stack in state:
        out.add(tuple(hold for hold in stack if hold[1] not in tagset))
    return _cap(frozenset(out))


def _cap(state: State) -> State:
    if len(state) <= _MAX_STATES:
        return state
    return frozenset(sorted(state)[:_MAX_STATES])


def _analyze_function(graph: ProjectGraph, func: FunctionInfo) -> FunctionFlow:
    resolver = _LockResolver(graph, func)
    flow_cfg = cfg_mod.build_cfg(func.node)
    flow = FunctionFlow(info=func, cfg=flow_cfg)

    # Precompute per-node lock ops / with classifications.
    node_ops: dict[int, list[_LockOp]] = {}
    with_locks: dict[int, str | None] = {}
    for node in flow_cfg.nodes:
        if node.kind == cfg_mod.STMT and node.ast_node is not None:
            node_ops[node.index] = _lock_ops(
                resolver, _shallow_exprs(node.ast_node))
        elif node.kind == cfg_mod.WITH_ENTER:
            assert isinstance(node.ast_node, ast.withitem)
            with_locks[node.index] = _classify_with_item(
                resolver, node.ast_node)

    def transfer(index: int, instate: State) -> State:
        node = flow_cfg.nodes[index]
        if node.kind == cfg_mod.WITH_ENTER:
            lock = with_locks.get(index)
            if lock is None:
                return instate
            return _push(instate, (lock, index))
        if node.kind == cfg_mod.WITH_EXIT:
            assert node.enter_id is not None
            if with_locks.get(node.enter_id) is None:
                return instate
            return _pop_tags(instate, (node.enter_id,))
        state = instate
        for op in node_ops.get(index, ()):
            if op.kind == "acquire":
                state = _push(state, (op.lock_id, -1))
            else:
                state = _pop_lock(state, op.lock_id)
        return state

    # Predecessor lists with edge pops.
    preds: dict[int, list[tuple[int, tuple[int, ...]]]] = {
        node.index: [] for node in flow_cfg.nodes}
    for src, edges in flow_cfg.succs.items():
        for dst, pops in edges:
            preds[dst].append((src, pops))

    in_states: dict[int, State] = {flow_cfg.entry: _EMPTY_STATE}
    out_states: dict[int, State] = {}
    worklist = [node.index for node in flow_cfg.nodes]
    while worklist:
        index = worklist.pop(0)
        if index == flow_cfg.entry:
            instate = _EMPTY_STATE
        else:
            merged: set[Stack] = set(in_states.get(index, frozenset()))
            for src, pops in preds[index]:
                src_out = out_states.get(src)
                if src_out is None:
                    continue
                merged.update(_pop_tags(src_out, pops))
            instate = _cap(frozenset(merged))
        in_states[index] = instate
        outstate = transfer(index, instate)
        if out_states.get(index) != outstate:
            out_states[index] = outstate
            for dst, _pops in flow_cfg.succs[index]:
                if dst not in worklist:
                    worklist.append(dst)

    flow.node_states = in_states

    # Event extraction on the stable states.
    for node in flow_cfg.nodes:
        instate = in_states.get(node.index)
        if instate is None:
            continue
        if node.kind == cfg_mod.WITH_ENTER:
            lock = with_locks.get(node.index)
            if lock is not None:
                item = node.ast_node
                line = getattr(item.context_expr, "lineno", 0) \
                    if isinstance(item, ast.withitem) else 0
                col = getattr(item.context_expr, "col_offset", -1) + 1 \
                    if isinstance(item, ast.withitem) else 0
                flow.acquisitions.append(LockAcquisition(
                    lock_id=lock, line=line, col=col, state_before=instate))
            if isinstance(node.ast_node, ast.withitem):
                for call in iter_calls(_shallow_exprs(node.ast_node)):
                    flow.call_states[id(call)] = instate
                    flow.calls.append((call, instate))
            continue
        if node.kind != cfg_mod.STMT or node.ast_node is None:
            continue
        state = instate
        ops = node_ops.get(node.index, [])
        for op in ops:
            if op.kind == "acquire":
                flow.acquisitions.append(LockAcquisition(
                    lock_id=op.lock_id, line=op.line, col=op.col,
                    state_before=state))
                state = _push(state, (op.lock_id, -1))
            else:
                state = _pop_lock(state, op.lock_id)
        flow.stmt_states.append((node.ast_node, instate))
        for call in iter_calls(_shallow_exprs(node.ast_node)):
            flow.call_states[id(call)] = instate
            flow.calls.append((call, instate))
    return flow


@dataclass(frozen=True)
class AcquisitionEdge:
    """Lock A held while lock B is acquired, with one witness site."""

    held: str
    acquired: str
    path: str
    line: int
    function: str
    via_entry: bool


class ConcurrencyIndex:
    """Project-wide lock-state facts, shared by the flow-aware rules."""

    def __init__(self, modules: Sequence[ParsedModule]) -> None:
        self.modules = list(modules)
        self.graph = build_project_graph(self.modules)
        self.flows: dict[str, FunctionFlow] = {}
        for qualname in sorted(self.graph.functions):
            self.flows[qualname] = _analyze_function(
                self.graph, self.graph.functions[qualname])
        self.may_entry: dict[str, frozenset[str]] = {}
        #: provenance: (func, lock) -> (caller, line) of the first edge
        #: that introduced the lock.
        self._entry_via: dict[tuple[str, str], tuple[str, int]] = {}
        self.must_entry: dict[str, frozenset[str] | None] = {}
        self._resolvers: dict[str, _LockResolver] = {}
        self._compute_may_entry()
        self._compute_must_entry()
        self.edges = self._acquisition_edges()

    # -- entry contexts ----------------------------------------------------

    def _call_sites(self, callee: str) -> list[tuple[str, int, int]]:
        """(caller, id(call), lineno) for each resolved site."""
        return [(caller, call_id, line)
                for caller, call_id, line in self.graph.callers.get(callee, ())
                if caller in self.flows]

    def _compute_may_entry(self) -> None:
        may: dict[str, set[str]] = {qualname: set() for qualname in self.flows}
        changed = True
        while changed:
            changed = False
            for callee in sorted(self.flows):
                for caller, call_id, line in self._call_sites(callee):
                    caller_flow = self.flows[caller]
                    contribution = set(caller_flow.may_at_call(call_id))
                    contribution.update(may.get(caller, ()))
                    fresh = contribution - may[callee]
                    if fresh:
                        for lock in sorted(fresh):
                            self._entry_via.setdefault(
                                (callee, lock), (caller, line))
                        may[callee].update(fresh)
                        changed = True
        self.may_entry = {qualname: frozenset(locks)
                          for qualname, locks in may.items()}

    def _compute_must_entry(self) -> None:
        # Two flavours of "no information":
        #
        # * a function with NO resolved caller keeps ⊤ (``None``) — the
        #   graph cannot see how it is reached (public API, dynamic
        #   callbacks), so it must stay vacuously guarded rather than
        #   drown the tree in false positives;
        # * a *caller* whose own entry context is ⊤ contributes only its
        #   local holds to the meet — "somebody unknown calls my caller"
        #   must never launder into "my caller's lock is held".  This is
        #   what catches ``__exit__ → close() →`` unguarded mutation.
        #
        # With ⊤-callers clamped to ∅ the transfer is monotone ascending
        # from ∅, so chaotic iteration converges to the least fixpoint —
        # an under-approximation of must-held, i.e. conservative toward
        # reporting, never toward silence.
        must: dict[str, frozenset[str] | None] = {}
        reachable_sites: dict[str, list[tuple[str, int, int]]] = {}
        for qualname in self.flows:
            sites = self._call_sites(qualname)
            reachable_sites[qualname] = sites
            must[qualname] = frozenset() if sites else None
        changed = True
        while changed:
            changed = False
            for callee in sorted(self.flows):
                sites = reachable_sites[callee]
                if not sites:
                    continue
                meet: frozenset[str] | None = None
                for caller, call_id, _line in sites:
                    state = self.flows[caller].call_states.get(call_id)
                    local = must_locks(state) if state is not None else None
                    if local is None:
                        continue        # unreachable call site
                    inherited = must.get(caller) or frozenset()
                    term = local | inherited
                    meet = term if meet is None else (meet & term)
                if meet is None:
                    # every site unreachable — vacuously guarded
                    if must[callee] is not None:
                        must[callee] = None
                        changed = True
                elif must[callee] != meet:
                    must[callee] = meet
                    changed = True
        self.must_entry = must

    # -- derived views -----------------------------------------------------

    def may_held(self, qualname: str, state: State) -> frozenset[str]:
        """Locally-held ∪ entry context — "could be held here"."""
        return may_locks(state) | self.may_entry.get(qualname, frozenset())

    def must_held(self, qualname: str,
                  state: State) -> frozenset[str] | None:
        """Provably held on every local path and at every resolved
        caller; ``None`` means ⊤ (vacuously guarded — unreachable
        point, or no caller the graph can resolve)."""
        local = must_locks(state)
        entry = self.must_entry.get(qualname)
        if local is None or entry is None:
            return None
        return local | entry

    def owner_of(self, qualname: str,
                 attr: ast.Attribute) -> tuple[str, str] | None:
        """``(owner class short name, attribute name)`` for an attribute
        expression inside function ``qualname`` — the alias-expanded,
        call-graph-typed receiver, or ``None`` when untypeable."""
        flow = self.flows.get(qualname)
        if flow is None:
            return None
        resolver = self._resolvers.get(qualname)
        if resolver is None:
            resolver = _LockResolver(self.graph, flow.info)
            self._resolvers[qualname] = resolver
        dotted = dotted_name(attr.value)
        if dotted is None:
            return None
        parts = resolver._expand(dotted).split(".")
        owner = resolver._type_of_chain(parts)
        if owner is None:
            return None
        return owner.split(".")[-1], attr.attr

    def entry_chain(self, qualname: str, lock: str,
                    limit: int = 5) -> list[str]:
        """Human-readable provenance for an inherited hold."""
        chain: list[str] = []
        current = qualname
        for _ in range(limit):
            via = self._entry_via.get((current, lock))
            if via is None:
                break
            caller, line = via
            chain.append(f"{_short(caller)} (line {line})")
            current = caller
        return chain

    def _acquisition_edges(self) -> list[AcquisitionEdge]:
        edges: list[AcquisitionEdge] = []
        seen: set[tuple[str, str, str, int]] = set()
        for qualname in sorted(self.flows):
            flow = self.flows[qualname]
            entry_locks = self.may_entry.get(qualname, frozenset())
            for acq in flow.acquisitions:
                held_local = may_locks(acq.state_before)
                for held in sorted(held_local | entry_locks):
                    if held == acq.lock_id:
                        continue
                    key = (held, acq.lock_id, flow.info.module.relpath,
                           acq.line)
                    if key in seen:
                        continue
                    seen.add(key)
                    edges.append(AcquisitionEdge(
                        held=held, acquired=acq.lock_id,
                        path=flow.info.module.relpath, line=acq.line,
                        function=qualname,
                        via_entry=held not in held_local,
                    ))
        return edges

    def lock_order_cycles(self) -> list[list[AcquisitionEdge]]:
        """Cycles in the lock-acquisition-order graph, each reported as
        the witness edges along the cycle, deterministically ordered."""
        adjacency: dict[str, dict[str, AcquisitionEdge]] = {}
        for edge in self.edges:
            adjacency.setdefault(edge.held, {})
            # Keep one witness per (src, dst), the first in sorted order.
            adjacency[edge.held].setdefault(edge.acquired, edge)
        cycles: list[list[AcquisitionEdge]] = []
        seen_cycles: set[frozenset[str]] = set()
        for start in sorted(adjacency):
            visited: set[str] = set()

            def dfs(node: str, trail: list[AcquisitionEdge],
                    start: str = start, visited: set[str] = visited) -> None:
                for nxt in sorted(adjacency.get(node, {})):
                    edge = adjacency[node][nxt]
                    if nxt == start and trail:
                        locks = frozenset(e.held for e in trail + [edge])
                        if locks not in seen_cycles:
                            seen_cycles.add(locks)
                            cycles.append(trail + [edge])
                        continue
                    # Only explore nodes above ``start`` so each cycle is
                    # found once, from its smallest lock.
                    if nxt in visited or nxt <= start:
                        continue
                    visited.add(nxt)
                    dfs(nxt, trail + [edge])

            dfs(start, [])
        return cycles


def _short(qualname: str) -> str:
    parts = qualname.split(".")
    return ".".join(parts[-2:]) if len(parts) >= 2 else qualname


# -- caches ----------------------------------------------------------------

#: FIFO cache of project indexes, keyed by module object identity.  The
#: strong references keep ids stable for the cache's lifetime.
_INDEX_CACHE: list[tuple[tuple[int, ...], tuple[ParsedModule, ...],
                         ConcurrencyIndex]] = []
_INDEX_CACHE_CAP = 8


def get_index(modules: Sequence[ParsedModule]) -> ConcurrencyIndex:
    key = tuple(id(module) for module in modules)
    for cached_key, _refs, index in _INDEX_CACHE:
        if cached_key == key:
            return index
    index = ConcurrencyIndex(modules)
    _INDEX_CACHE.append((key, tuple(modules), index))
    if len(_INDEX_CACHE) > _INDEX_CACHE_CAP:
        _INDEX_CACHE.pop(0)
    return index
