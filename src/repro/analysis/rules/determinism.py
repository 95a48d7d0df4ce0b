"""Determinism rules (the oracle's bit-identical guarantee).

`tests/test_oracle_equivalence.py` pins GC+ answers bit-identical to
direct matchers, and `tests/test_replacement_determinism.py` pins
replacement tie-breaks to a total order.  Both guarantees die the day a
core decision path consults wall-clock time or an unseeded RNG, or lets
hash-order leak into an ordered result.  These rules keep such sources
out of the core packages (``matching``, ``cache``, ``runtime``,
``persist``, ``api``); workload/benchmark/serving code is allowlisted —
load generators *should* use time and randomness (seeded).
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

__all__ = ["WallClockInCore", "UnseededRandomness", "HashOrderDependence",
           "CORE_SEGMENTS", "ALLOWLISTED_SEGMENTS"]

#: Path segments marking the deterministic core.
CORE_SEGMENTS = frozenset({"matching", "cache", "runtime", "persist", "api"})
#: Path segments exempt wholesale (traffic generation, benchmarking and
#: the serving sidecar legitimately consume time and randomness).
ALLOWLISTED_SEGMENTS = frozenset({"workloads", "bench", "serve"})
#: Module-level exemptions finer than a whole segment.
ALLOWLISTED_SUFFIXES = ("graphs/generators.py",)

#: Wall-clock reads.  ``time.perf_counter``/``monotonic`` are *not*
#: listed: interval timing feeds metrics, never decisions.
WALL_CLOCKS = frozenset({
    "time.time", "time.time_ns", "time.localtime", "time.gmtime",
    "datetime.now", "datetime.utcnow", "datetime.today",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
})

#: Calls on the process-global (unseeded, shared) RNG.
GLOBAL_RNG = frozenset({
    "random.random", "random.randint", "random.randrange", "random.choice",
    "random.choices", "random.shuffle", "random.sample", "random.uniform",
    "random.gauss", "random.seed", "random.getrandbits",
})

#: Unconditionally nondeterministic entropy sources.
ENTROPY_SOURCES = frozenset({
    "os.urandom", "uuid.uuid4", "secrets.token_bytes", "secrets.token_hex",
    "secrets.token_urlsafe", "secrets.randbelow", "secrets.choice",
})


class _CoreScoped(ModuleRule):
    include_segments = CORE_SEGMENTS
    exclude_segments = ALLOWLISTED_SEGMENTS
    exclude_suffixes = ALLOWLISTED_SUFFIXES


class WallClockInCore(_CoreScoped):
    rule_id = "GC201"
    slug = "wall-clock"
    severity = Severity.ERROR
    description = ("wall-clock read in a core package; decisions must "
                   "replay bit-identically")

    def check(self, module: ParsedModule) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            name = dotted_name(node.func)
            if name in WALL_CLOCKS:
                yield self.finding(
                    module, node.lineno,
                    f"`{name}()` reads the wall clock in a core package; "
                    f"time intervals with time.perf_counter() or take "
                    f"the timestamp as a parameter",
                )


class UnseededRandomness(_CoreScoped):
    rule_id = "GC202"
    slug = "unseeded-random"
    severity = Severity.ERROR
    description = ("process-global or unseeded randomness in a core "
                   "package")

    def check(self, module: ParsedModule) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            name = dotted_name(node.func)
            if name in GLOBAL_RNG or name in ENTROPY_SOURCES:
                yield self.finding(
                    module, node.lineno,
                    f"`{name}()` draws from nondeterministic or "
                    f"process-global randomness in a core package; take "
                    f"an explicit seeded `random.Random` instead",
                )
            elif (name == "random.Random" and not node.args
                    and not node.keywords):
                yield self.finding(
                    module, node.lineno,
                    "`random.Random()` without a seed is entropy-seeded; "
                    "core packages must thread an explicit seed",
                )


def _is_set_expr(node: ast.expr) -> bool:
    """Expressions whose iteration order is hash-dependent."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        name = dotted_name(node.func)
        return name in ("set", "frozenset")
    return False


class HashOrderDependence(_CoreScoped):
    rule_id = "GC203"
    slug = "hash-order"
    description = ("hash-ordered iteration feeding an ordered result in "
                   "a core package")

    def check(self, module: ParsedModule) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call):
                name = (node.func.attr
                        if isinstance(node.func, ast.Attribute) else None)
                if name == "popitem":
                    # ERROR: dict.popitem takes "some" item — pre-3.7 it
                    # was explicitly arbitrary, and on a set-like receiver
                    # it still is; eviction order must be a total order.
                    yield Finding(
                        rule_id=self.rule_id, slug=self.slug,
                        severity=Severity.ERROR, path=module.relpath,
                        line=node.lineno,
                        message="`.popitem()` pops an unspecified entry; "
                                "core eviction/selection must use an "
                                "explicit total order",
                    )
                # list(set(...)) / tuple({...}): hash order becomes list
                # order.  sorted(set(...)) is the sanctioned spelling.
                func_name = dotted_name(node.func)
                if (func_name in ("list", "tuple") and len(node.args) == 1
                        and _is_set_expr(node.args[0])):
                    yield self._warn(
                        module, node.lineno,
                        f"`{func_name}(<set>)` materialises hash order; "
                        f"wrap in `sorted(...)` (or keep it a set)",
                    )
            elif isinstance(node, ast.For) and _is_set_expr(node.iter):
                yield self._warn(
                    module, node.lineno,
                    "`for` over a set literal/constructor iterates in "
                    "hash order; iterate `sorted(...)` if order can "
                    "reach a result",
                )
            elif isinstance(node, (ast.ListComp, ast.GeneratorExp)):
                for gen in node.generators:
                    if _is_set_expr(gen.iter):
                        yield self._warn(
                            module, node.lineno,
                            "comprehension over a set expression builds "
                            "an ordered result from hash order; iterate "
                            "`sorted(...)`",
                        )

    def _warn(self, module: ParsedModule, line: int, message: str) -> Finding:
        # Heuristic sub-checks stay warnings: a hash-ordered list that
        # feeds a set union is harmless, and the analyzer cannot always
        # see the consumer.
        return Finding(
            rule_id=self.rule_id, slug=self.slug, severity=Severity.WARNING,
            path=module.relpath, line=line, message=message,
        )
