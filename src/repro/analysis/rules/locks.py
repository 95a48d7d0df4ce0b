"""Lock-discipline rules (the PR 3 concurrency contract).

``docs/concurrency.md`` fixes three conventions that nothing at runtime
enforces:

* **write-side methods** (`CacheManager.admit` / ``credit`` /
  ``credit_all`` / ``clear`` / ``ensure_consistency`` /
  ``restore_state`` / ``snapshot_state``)
  take the write lock themselves — calling one from inside a read hold
  is a read→write upgrade in disguise and deadlocks a real
  :class:`~repro.util.rwlock.RWLock` (GC101);
* a ``with lock.read():`` body must never acquire the write side of any
  lock — the upgrade raises by design (GC102);
* user-facing cache-event hooks (``on_admission`` etc.) must never be
  *invoked* while a cache lock is held; emission goes through the
  deferring ``event_listener``/``_emit`` indirection and runs after
  release (GC103).

Since gclint v2 these run on the lock-state dataflow engine
(:mod:`repro.analysis.lockstate`) instead of a lexical ``with``-stack
walk.  The rules keep their ids and intent but gain path sensitivity:

* a ``while True: acquire/…/release`` loop with balanced explicit lock
  calls no longer reads as "still holding" after the release;
* a read hold *nested inside* a write hold of the same path no longer
  counts as "read context" for GC101 — RWLock permits read-under-write;
* explicit ``acquire_write()`` under a read hold is caught even when
  the read hold came from an aliased lock object
  (``lock = self.cache.lock``).

The rules stay intraprocedural on purpose: cross-function reasoning
(inherited holds, lock-order cycles) belongs to GC110/GC111/GC120.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.analysis.core import (
    Finding,
    ModuleRule,
    ParsedModule,
    Severity,
    dotted_name,
)
from repro.analysis.lockstate import READ, WRITE, module_flows, pairs_of

__all__ = ["WriteCallUnderReadLock", "ReadToWriteUpgrade", "HookUnderLock"]

#: CacheManager operations that self-acquire the write lock.
WRITE_SIDE_METHODS = frozenset({
    "admit", "credit", "credit_all", "ensure_consistency",
    "restore_state", "snapshot_state",
})

#: ``clear`` is write-side too, but the bare name is ubiquitous
#: (``dict.clear``, ``list.clear``) — only flag it when the receiver
#: visibly is the cache subsystem.
AMBIGUOUS_WRITE_METHODS = frozenset({"clear", "purge"})

#: User-hook surfaces that must only ever run via the service's
#: deferred-dispatch machinery, never inline under a lock.
HOOK_NAMES = frozenset({
    "on_admission", "on_eviction", "on_purge", "on_promotion",
    "event_listener", "_dispatch_event",
})


def _call_name(call: ast.Call) -> str | None:
    func = call.func
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return None


def _receiver_text(call: ast.Call) -> str:
    if isinstance(call.func, ast.Attribute):
        name = dotted_name(call.func.value)
        if name is not None:
            return name
        return ast.unparse(call.func.value)
    return ""


class _LockRuleBase(ModuleRule):
    #: The RWLock implementation itself is the mechanism these rules
    #: protect clients of; its internals are exempt by construction.
    exclude_suffixes = ("util/rwlock.py",)


class WriteCallUnderReadLock(_LockRuleBase):
    rule_id = "GC101"
    slug = "write-under-read-lock"
    severity = Severity.ERROR
    description = ("write-side cache operation invoked inside a "
                   "`with lock.read():` region")

    def check(self, module: ParsedModule) -> Iterator[Finding]:
        index = module_flows(module)
        for flow in index.flows.values():
            for call, state in flow.calls:
                name = _call_name(call)
                if name in WRITE_SIDE_METHODS:
                    pass
                elif (name in AMBIGUOUS_WRITE_METHODS
                        and "cache" in _receiver_text(call).lower()):
                    pass
                else:
                    continue
                # Path-sensitive: some path must hold a read lock with
                # no write hold alongside it (read-under-write is legal,
                # so a write-holding stack licenses the call).
                if not any(
                    any(mode == READ for _lock, mode, _tag in stack)
                    and not any(mode == WRITE for _lock, mode, _tag in stack)
                    for stack in state
                ):
                    continue
                target = ast.unparse(call.func)
                yield self.finding(
                    module, call.lineno,
                    f"`{target}(...)` is write-side (self-acquires the "
                    f"write lock) but is called inside a read-lock "
                    f"region; move it after the read hold is released "
                    f"(docs/concurrency.md)",
                    col=call.col_offset + 1,
                )


class ReadToWriteUpgrade(_LockRuleBase):
    rule_id = "GC102"
    slug = "read-write-upgrade"
    severity = Severity.ERROR
    description = ("write-lock acquisition on a path already holding "
                   "the read side (upgrade deadlock)")

    def check(self, module: ParsedModule) -> Iterator[Finding]:
        index = module_flows(module)
        for flow in index.flows.values():
            for lock_id, line, col in flow.upgrades:
                yield self.finding(
                    module, line,
                    f"read→write lock upgrade on `{lock_id}`: RWLock "
                    f"raises on this pattern by design; restructure so "
                    f"the write phase starts after the read hold ends "
                    f"(docs/concurrency.md)",
                    col=col,
                )


class HookUnderLock(_LockRuleBase):
    rule_id = "GC103"
    slug = "hook-under-lock"
    severity = Severity.ERROR
    description = ("cache-event hook invoked while a cache lock is held; "
                   "emission must defer until release")

    def check(self, module: ParsedModule) -> Iterator[Finding]:
        index = module_flows(module)
        for flow in index.flows.values():
            for call, state in flow.calls:
                if _call_name(call) not in HOOK_NAMES:
                    continue
                if not any(
                    any(mode in (READ, WRITE) for mode in
                        (m for _lock, m in pairs_of(stack)))
                    for stack in state
                ):
                    continue
                target = ast.unparse(call.func)
                yield self.finding(
                    module, call.lineno,
                    f"`{target}(...)` runs a cache-event hook inside a "
                    f"lock region; user hooks may re-enter the service "
                    f"and deadlock — buffer through the deferred-event "
                    f"scope instead (GraphCacheService._event_scope)",
                    col=call.col_offset + 1,
                )
