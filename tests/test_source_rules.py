"""Source rules over ``src/repro``, checked with :mod:`ast`.

Cached answers stay bit-identical to the direct matcher only while core
code never reads the wall clock (GC201), never draws unseeded
randomness (GC202) and never takes an order from a hash: no
``.popitem()``, no iteration over a set expression (GC203).
No core function calls itself, by its bare name or as ``self.<name>``
(GC204): recursion fails on a deep enough input, and a nested function
that calls itself is a reference cycle left to the collector.
``persist`` / ``serve`` must not swallow failures: no bare or broad
``except`` unless it ends in a bare ``raise`` (GC401).  Every file
parses (GC000), and a ``# gclint: allow[<id or slug>, ...] <reason>``
pragma, on a finding's line or alone on the line above, suppresses it
only with a reason (GC001); the pragma keeps the spelling of the
linter these rules came from.  Core is a path with a segment in
``CORE`` and none in ``EXEMPT``.  The lock rules (GC110/111/120) are
``tests/test_lock_discipline.py``.
"""

from __future__ import annotations

import ast
import re
from collections import defaultdict
from collections.abc import Iterator
from pathlib import Path, PurePosixPath

import pytest

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src" / "repro"
FIXTURE = REPO / "tests" / "fixtures" / "gclint_violations"

CORE = frozenset({"matching", "cache", "runtime", "persist", "api"})
EXEMPT = frozenset({"workloads", "serve"})
SLUGS = {"GC201": "wall-clock", "GC202": "unseeded-random",
         "GC203": "hash-order", "GC204": "recursion",
         "GC401": "broad-except"}

WALL_CLOCKS = frozenset(
    "time.time time.time_ns time.localtime time.gmtime datetime.now "
    "datetime.utcnow datetime.today datetime.datetime.now "
    "datetime.datetime.utcnow datetime.datetime.today datetime.date.today"
    .split())
RANDOMNESS = frozenset(
    "random.random random.randint random.randrange random.choice "
    "random.choices random.shuffle random.sample random.uniform random.gauss "
    "random.seed random.getrandbits os.urandom uuid.uuid4 secrets.token_bytes "
    "secrets.token_hex secrets.token_urlsafe secrets.randbelow secrets.choice"
    .split())
PRAGMA = re.compile(r"#\s*gclint:\s*allow\[(?P<rules>[^\]]+)\]\s*(?P<why>.*)$")


def _dotted(node: ast.AST) -> str | None:
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    return (".".join([node.id, *reversed(parts)])
            if isinstance(node, ast.Name) else None)


def _is_set(node: ast.AST) -> bool:
    """An expression whose iteration order is hash order."""
    return (isinstance(node, (ast.Set, ast.SetComp))
            or (isinstance(node, ast.Call)
                and _dotted(node.func) in ("set", "frozenset")))


def _swallows(handler: ast.ExceptHandler) -> bool:
    """A bare or broad handler that does not end in a bare ``raise``."""
    last, caught = handler.body[-1], handler.type
    if isinstance(last, ast.Raise) and last.exc is None:
        return False
    names = caught.elts if isinstance(caught, ast.Tuple) else [caught]
    return caught is None or any(getattr(e, "attr", getattr(e, "id", None))
                                 in ("Exception", "BaseException")
                                 for e in names)


def _calls_itself(node: ast.AST, function: ast.AST) -> bool:
    """``node`` calls ``function`` by its bare name or as ``self.<name>``."""
    if not isinstance(node, ast.Call):
        return False
    name = function.name
    return (isinstance(node.func, ast.Name) and node.func.id == name
            or _dotted(node.func) == f"self.{name}")


def raw_findings(tree: ast.AST, rel: str) -> Iterator[tuple[str, int]]:
    """``(rule, line)`` for every GC2xx/GC401 match, before pragmas."""
    parts = set(PurePosixPath(rel).parts)
    core = bool(parts & CORE) and not parts & EXEMPT
    hygiene = bool(parts & {"persist", "serve"})
    for node in ast.walk(tree):
        if core and isinstance(node, ast.Call):
            name = _dotted(node.func)
            if name in WALL_CLOCKS:
                yield "GC201", node.lineno
            if name in RANDOMNESS or (name == "random.Random"
                                      and not node.args and not node.keywords):
                yield "GC202", node.lineno
            if (isinstance(node.func, ast.Attribute)
                    and node.func.attr == "popitem"
                    or name in ("list", "tuple") and len(node.args) == 1
                    and _is_set(node.args[0])):
                yield "GC203", node.lineno
        elif core and (
                isinstance(node, ast.For) and _is_set(node.iter)
                or isinstance(node, (ast.ListComp, ast.GeneratorExp))
                and any(_is_set(gen.iter) for gen in node.generators)):
            yield "GC203", node.lineno
        elif (hygiene and isinstance(node, ast.ExceptHandler)
                and _swallows(node)):
            yield "GC401", node.lineno
        if core and isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from (("GC204", call.lineno) for call in ast.walk(node)
                        if _calls_itself(call, node))


def check(root: Path) -> list[tuple[str, str, int]]:
    """``(rule, path relative to root, line)`` for every finding that
    no pragma suppresses, sorted."""
    found: list[tuple[str, str, int]] = []
    for path in sorted(root.rglob("*.py")):
        rel = path.relative_to(root).as_posix()
        source = path.read_bytes()
        try:
            tree = ast.parse(source, filename=rel)
        except SyntaxError as exc:
            found.append(("GC000", rel, exc.lineno or 1))
            continue
        allowed: dict[int, set[str]] = defaultdict(set)
        lines = source.decode("utf-8", "replace").splitlines()
        for lineno, text in enumerate(lines, start=1):
            if (match := PRAGMA.search(text)) is None:
                continue
            if not match["why"].strip(" -—:\t"):
                found.append(("GC001", rel, lineno))
            rules = {token.strip() for token in match["rules"].split(",")}
            allowed[lineno] |= rules
            if text.strip().startswith("#"):
                allowed[lineno + 1] |= rules
        found.extend((rule, rel, line)
                     for rule, line in raw_findings(tree, rel)
                     if not {rule, SLUGS[rule]} & allowed[line])
    return sorted(found)


def test_tree_is_clean():
    assert check(SRC) == []


def test_server_pragma_is_honoured():
    # The one pragma in the tree: the HTTP dispatcher's catch-all, which
    # must turn a handler bug into a 500 rather than a broken socket.
    rel = "serve/server.py"
    source = (SRC / rel).read_text(encoding="utf-8")
    (line,) = [line for rule, line in raw_findings(ast.parse(source), rel)
               if rule == "GC401"]
    assert "gclint: allow[broad-except]" in source.splitlines()[line - 2]
    assert ("GC401", rel, line) not in check(SRC)


SEEDED = {  # test id: (rule, fixture file, text on the flagged line)
    "GC201-runtime": ("GC201", "runtime/worker_pool.py", "time.time()"),
    "GC202-cache": ("GC202", "cache/manager.py", "random.random()"),
    "GC202-runtime": ("GC202", "runtime/worker_pool.py", "random.random()"),
    "GC203-popitem": ("GC203", "cache/hash_order.py", ".popitem()"),
    "GC203-set-iteration": ("GC203", "cache/hash_order.py", "in set("),
    "GC204-recursion": ("GC204", "matching/recursive.py", "return extend("),
    "GC401-persist": ("GC401", "persist/writer.py", "except Exception"),
    "GC001-no-reason": ("GC001", "cache/pragma.py", "allow[GC202]"),
}


@pytest.mark.parametrize("rule,rel,text", SEEDED.values(), ids=SEEDED)
def test_seeded_violation_is_caught(rule, rel, text):
    lines = (FIXTURE / rel).read_text(encoding="utf-8").splitlines()
    hits = [line for r, path, line in check(FIXTURE)
            if r == rule and path == rel]
    assert any(text in lines[line - 1] for line in hits)


def test_fixture_seeds_nothing_else():
    assert len(check(FIXTURE)) == len(SEEDED)


CLOCK, DRAW = "T = time.time()", "X = random.random()"
SCOPE = {  # test id: (file, source, rules it must raise)
    "syntax-error": ("cache/broken.py", "def broken(:", ["GC000"]),
    "workloads-exempt": ("workloads/gen.py", DRAW, []),
    "seeded-random-in-core": ("cache/pick.py", "X = random.Random(7)", []),
    "unseeded-random-constructor":
        ("runtime/jitter.py", "R = random.Random()", ["GC202"]),
    "wall-clock-in-core": ("persist/stamp.py", CLOCK, ["GC201"]),
    "wall-clock-in-serve": ("serve/stamp.py", CLOCK, []),
    "set-to-list": ("cache/order.py", "X = list(set(Y))", ["GC203"]),
    "sorted-set": ("cache/order.py", "X = sorted(set(Y))", []),
    "popitem": ("cache/evict.py", "X = Y.popitem()", ["GC203"]),
    "recursion-by-name":
        ("matching/walk.py", "def f(n):\n    return f(n - 1)", ["GC204"]),
    "recursion-by-method": ("runtime/plan.py", "class P:\n    def f(self):\n"
                            "        return self.f()", ["GC204"]),
    "nested-self-call": ("matching/walk.py", "def f():\n    def g():\n"
                         "        return g()\n    return g", ["GC204"]),
    "call-of-another": ("cache/walk.py", "def f(other):\n    return g(f)\n"
                        "def g(h):\n    return h.f()", []),
    "recursion-outside-core":
        ("graphs/walk.py", "def f(n):\n    return f(n - 1)", []),
    "reraising-broad-except": ("persist/atomic.py", "try:\n    f()\n"
                               "except BaseException:\n    raise", []),
    "pragma-by-slug": ("cache/pick.py",
                       "# gclint: allow[unseeded-random] demo\n" + DRAW, []),
    "pragma-by-id":
        ("cache/pick.py", DRAW + "  # gclint: allow[GC202] demo", []),
    "pragma-without-reason":
        ("cache/pick.py", DRAW + "  # gclint: allow[GC202]", ["GC001"]),
}


@pytest.mark.parametrize("rel,body,expected", SCOPE.values(), ids=SCOPE)
def test_rule_scope(tmp_path, rel, body, expected):
    (tmp_path / rel).parent.mkdir(parents=True)
    (tmp_path / rel).write_text(body + "\n", encoding="utf-8")
    assert [rule for rule, _, _ in check(tmp_path)] == expected
