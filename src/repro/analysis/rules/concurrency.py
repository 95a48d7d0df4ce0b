"""Lock-discipline rules (``docs/concurrency.md``).

The service holds one lock, ``GraphCacheService._lock``, for the whole
of every public call that reads or writes the cache or the dataset.
All three rules share one
:class:`~repro.analysis.lockstate.ConcurrencyIndex` over the module
set — CFG + call graph + lock-state fixpoint — so the project
pays for the flow analysis once per run:

* **GC110** ``lock-order`` — cycles in the lock-acquisition-order graph
  (lock A held while acquiring B on one chain, B while acquiring A on
  another).
* **GC111** ``blocking-under-lock`` — pipe/socket I/O, file I/O,
  snapshot encode/decode, ``time.sleep`` or ``subprocess`` reachable
  while the service lock may be held: it would stall every session.
  Blocking under a lock whose job is to serialise that I/O
  (``_save_lock``, ``_drain_lock``) stays legal.
* **GC120** ``unguarded-mutation`` — assignments to attributes of the
  shared-state classes (``CacheManager``/``StatisticsMonitor``/
  ``QueryIndex``) on paths where no lock is provably held.  A heuristic
  race detector for exactly the interleavings the runtime tests cannot
  drive.

All three see the same module list, so :func:`get_index` hands each
of them the same cached index.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator, Sequence

from repro.analysis.core import (
    Finding,
    ParsedModule,
    ProjectRule,
    dotted_name,
)
from repro.analysis.lockstate import (
    SERVICE_LOCK,
    get_index,
    may_locks,
)

__all__ = ["LockOrderCycle", "BlockingCallUnderLock",
           "UnguardedSharedMutation", "TRACKED_SHARED_CLASSES"]

#: Shared-state classes whose attributes demand a lock to mutate.
TRACKED_SHARED_CLASSES = frozenset({
    "CacheManager", "StatisticsMonitor", "QueryIndex",
})

#: Constructors may wire attributes before the object is shared.
_CONSTRUCTION_FUNCS = frozenset({"__init__", "__post_init__", "__new__"})

#: Attribute tails that denote an inherently blocking call.
_BLOCKING_ATTRS: dict[str, str] = {
    "send": "pipe/socket send", "recv": "pipe/socket recv",
    "send_bytes": "pipe send", "recv_bytes": "pipe recv",
    "sendall": "socket send", "accept": "socket accept",
    "connect": "socket connect",
    "write_text": "file write", "read_text": "file read",
    "write_bytes": "file write", "read_bytes": "file read",
}

#: Call names (bare or dotted tail) that block regardless of receiver.
_BLOCKING_NAMES: dict[str, str] = {
    "open": "file open",
    "save_snapshot": "snapshot write", "load_snapshot": "snapshot read",
}

#: Exact dotted prefixes that block.
_BLOCKING_EXACT: dict[str, str] = {
    "time.sleep": "sleep",
    "os.replace": "atomic file replace", "os.rename": "file rename",
    "os.fsync": "fsync",
}
_BLOCKING_MODULE_PREFIXES: tuple[tuple[str, str], ...] = (
    ("subprocess.", "subprocess"),
    ("shutil.", "file copy/move"),
)


def _blocking_kind(call: ast.Call) -> str | None:
    """Human label when ``call`` is an inherently blocking primitive."""
    dotted = dotted_name(call.func)
    if dotted is None:
        return None
    label = _BLOCKING_EXACT.get(dotted)
    if label is not None:
        return label
    for prefix, pref_label in _BLOCKING_MODULE_PREFIXES:
        if dotted.startswith(prefix):
            return pref_label
    tail = dotted.split(".")[-1]
    if "." in dotted:
        label = _BLOCKING_ATTRS.get(tail)
        if label is not None:
            return label
    label = _BLOCKING_NAMES.get(tail)
    if label is not None:
        return label
    return None


class LockOrderCycle(ProjectRule):
    rule_id = "GC110"
    slug = "lock-order"
    description = "lock-acquisition-order cycle"

    def check_project(self,
                      modules: Sequence[ParsedModule]) -> Iterator[Finding]:
        index = get_index(modules)
        by_rel = {module.relpath: module for module in modules}

        for cycle in index.lock_order_cycles():
            order = " → ".join([edge.held for edge in cycle]
                               + [cycle[0].held])
            witnesses = "; ".join(
                f"{edge.held} held while acquiring {edge.acquired} at "
                f"{edge.path}:{edge.line}"
                for edge in cycle
            )
            anchor = min(cycle, key=lambda e: (e.path, e.line))
            module = by_rel.get(anchor.path)
            if module is None:
                continue
            yield self.finding(
                module, anchor.line,
                f"lock-order cycle {order}: two call chains acquire "
                f"these locks in opposite orders and can deadlock — "
                f"{witnesses}",
            )


class BlockingCallUnderLock(ProjectRule):
    rule_id = "GC111"
    slug = "blocking-under-lock"
    description = ("blocking primitive (pipe/file I/O, sleep, "
                   "subprocess, snapshot codec) reachable while the "
                   "service lock is held")

    def check_project(self,
                      modules: Sequence[ParsedModule]) -> Iterator[Finding]:
        index = get_index(modules)
        by_rel = {module.relpath: module for module in modules}
        for qualname in sorted(index.flows):
            flow = index.flows[qualname]
            module = by_rel.get(flow.info.module.relpath)
            if module is None:
                continue
            entry = index.may_entry.get(qualname, frozenset())
            for call, state in flow.calls:
                kind = _blocking_kind(call)
                if kind is None:
                    continue
                if SERVICE_LOCK in may_locks(state):
                    where = f"inside the `{SERVICE_LOCK}` region"
                elif SERVICE_LOCK in entry:
                    chain = index.entry_chain(qualname, SERVICE_LOCK)
                    via = " ← ".join(chain) if chain else "a caller"
                    where = f"while `{SERVICE_LOCK}` is held by {via}"
                else:
                    continue
                yield self.finding(
                    module, call.lineno,
                    f"blocking {kind} call "
                    f"`{ast.unparse(call.func)}(...)` in "
                    f"`{_short(qualname)}` {where}; it stalls every "
                    f"session — do the I/O outside the lock (snapshot "
                    f"pattern: capture under the lock, write after "
                    f"release)",
                    col=call.col_offset + 1,
                )


class UnguardedSharedMutation(ProjectRule):
    rule_id = "GC120"
    slug = "unguarded-mutation"
    description = ("attribute of a shared-state class mutated on a "
                   "path where no lock is provably held")

    def check_project(self,
                      modules: Sequence[ParsedModule]) -> Iterator[Finding]:
        index = get_index(modules)
        by_rel = {module.relpath: module for module in modules}
        for qualname in sorted(index.flows):
            flow = index.flows[qualname]
            if flow.info.name in _CONSTRUCTION_FUNCS:
                continue
            module = by_rel.get(flow.info.module.relpath)
            if module is None:
                continue
            for stmt, state in flow.stmt_states:
                for attr in _mutated_attrs(stmt):
                    owner = index.owner_of(qualname, attr)
                    if owner is None or \
                            owner[0] not in TRACKED_SHARED_CLASSES:
                        continue
                    held = index.must_held(qualname, state)
                    if held is None or held:
                        continue    # ⊤ (no caller the graph resolves)
                    guard = ("monitor._mutex"
                             if owner[0] == "StatisticsMonitor"
                             else "service._lock")
                    yield self.finding(
                        module, attr.lineno,
                        f"`{ast.unparse(attr)}` ({owner[0]} shared "
                        f"state) is mutated in `{_short(qualname)}` "
                        f"with no lock provably held on every path; "
                        f"guard the mutation (e.g. `with {guard}:`) or "
                        f"move it into construction",
                        col=attr.col_offset + 1,
                    )


def _mutated_attrs(stmt: ast.stmt) -> list[ast.Attribute]:
    """Attribute expressions a statement assigns/augments/deletes —
    including the root attribute of subscript stores
    (``obj.table[k] = v`` mutates ``obj.table``)."""
    targets: list[ast.expr] = []
    if isinstance(stmt, ast.Assign):
        targets = list(stmt.targets)
    elif isinstance(stmt, ast.AugAssign):
        targets = [stmt.target]
    elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
        targets = [stmt.target]
    elif isinstance(stmt, ast.Delete):
        targets = list(stmt.targets)
    out: list[ast.Attribute] = []
    while targets:
        target = targets.pop(0)
        if isinstance(target, (ast.Tuple, ast.List)):
            targets.extend(target.elts)
        elif isinstance(target, ast.Starred):
            targets.append(target.value)
        elif isinstance(target, ast.Attribute):
            out.append(target)
        elif isinstance(target, ast.Subscript):
            inner = target.value
            while isinstance(inner, ast.Subscript):
                inner = inner.value
            if isinstance(inner, ast.Attribute):
                out.append(inner)
    return out


def _short(qualname: str) -> str:
    parts = qualname.split(".")
    return ".".join(parts[-2:]) if len(parts) >= 2 else qualname
