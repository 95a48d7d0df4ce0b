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
``CORE`` and none in ``EXEMPT``: the pipeline's layers and the data
layer (graphs, the store and its change plans, the dataset generators,
the utilities), all of which feed answers.  The lock rules
(GC110/111/120) are ``tests/test_lock_discipline.py``.

The package holds only what something calls (GC205, over the whole
tree, core or not): every public function, method and class must be
referenced outside its own definition, by a ``Name`` or ``Attribute``
node of the package itself, or by any node of the package's users
(``perf/``, ``benchmarks/``, ``examples/``), identifier strings
included, since ``perf/`` patches methods by name.  An ``__all__``
string or an ``import`` line is no use; neither is a test, whose
oracles live in ``tests/``.  ``ALLOW`` names the public entry points
nothing in the repository calls, each with its reason.  The rule reads
names, not types, so it cannot tell apart methods that share a name:
one used method keeps every namesake alive.
"""

from __future__ import annotations

import ast
import re
from collections import defaultdict
from collections.abc import Iterable, Iterator
from pathlib import Path, PurePosixPath

import pytest

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src" / "repro"
FIXTURE = REPO / "tests" / "fixtures" / "gclint_violations"

USERS = tuple(REPO / name for name in ("perf", "benchmarks", "examples"))

CORE = frozenset({"matching", "cache", "runtime", "persist", "api",
                  "graphs", "dataset", "datasets", "util"})
EXEMPT = frozenset({"workloads", "serve"})
SLUGS = {"GC201": "wall-clock", "GC202": "unseeded-random",
         "GC203": "hash-order", "GC204": "recursion",
         "GC205": "unreferenced", "GC401": "broad-except"}
ALLOW = {  # GC205: "<path>::<qualified name>": why it stays unreferenced
    "api/service.py::GraphCacheService.purge":
        "library API: a caller drops every cached entry without closing "
        "the service (docs/serving.md names no HTTP route for it)",
    "datasets/aids.py::load_aids_file":
        "loads the real AIDS file, which the repository does not ship; "
        "every run here uses generate_aids_like instead",
}

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


def definitions(tree: ast.Module) -> Iterator[tuple[str, ast.AST]]:
    """``(qualified name, node)`` for every module-level function and
    class and every method of a class; nested functions are local."""
    scopes: list[tuple[str, list[ast.stmt]]] = [("", tree.body)]
    while scopes:
        prefix, body = scopes.pop()
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                yield prefix + node.name, node
                if isinstance(node, ast.ClassDef):
                    scopes.append((f"{prefix}{node.name}.", node.body))


def public_definitions(root: Path) -> list[str]:
    """``<path>::<qualified name>`` of every public definition under
    ``root``, the population GC205 checks (CI prints their number)."""
    return [f"{path.relative_to(root).as_posix()}::{qualname}"
            for path in sorted(root.rglob("*.py"))
            for qualname, node in definitions(ast.parse(path.read_bytes()))
            if not node.name.startswith("_")]


def _used_names(root: Path) -> set[str]:
    """Every identifier any node under ``root`` names: variables,
    attributes, imports and identifier strings (``"credit"``,
    ``"cache.credit"``)."""
    names: set[str] = set()
    for path in root.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_bytes())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.update(node.name.split("."))
                if node.asname:
                    names.add(node.asname)
            elif isinstance(node, ast.Constant) and isinstance(node.value,
                                                               str):
                parts = node.value.split(".")
                if all(part.isidentifier() for part in parts):
                    names.update(parts)
    return names


def unreferenced(trees: dict[str, ast.Module], users: Iterable[Path] = (),
                 allow: Iterable[str] = ALLOW
                 ) -> Iterator[tuple[str, str, int]]:
    """GC205: ``(path, qualified name, line)`` of every public definition
    in ``trees`` (path -> module) that no node outside its own
    definition names."""
    used = set().union(*map(_used_names, users))
    spots: dict[str, list[tuple[str, int]]] = defaultdict(list)
    for rel, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                spots[node.id].append((rel, node.lineno))
            elif isinstance(node, ast.Attribute):
                spots[node.attr].append((rel, node.lineno))
    for rel, tree in trees.items():
        for qualname, node in definitions(tree):
            name = node.name
            if (name.startswith("_") or name in used
                    or f"{rel}::{qualname}" in allow):
                continue
            if not any(path != rel
                       or not node.lineno <= line <= node.end_lineno
                       for path, line in spots[name]):
                yield rel, qualname, node.lineno


def check(root: Path, users: Iterable[Path] = ()
          ) -> list[tuple[str, str, int]]:
    """``(rule, path relative to root, line)`` for every finding that
    no pragma suppresses, sorted; ``users`` are the directories whose
    code counts as a use for GC205."""
    found: list[tuple[str, str, int]] = []
    trees: dict[str, ast.Module] = {}
    allowed: dict[str, dict[int, set[str]]] = {}
    for path in sorted(root.rglob("*.py")):
        rel = path.relative_to(root).as_posix()
        source = path.read_bytes()
        try:
            trees[rel] = ast.parse(source, filename=rel)
        except SyntaxError as exc:
            found.append(("GC000", rel, exc.lineno or 1))
            continue
        allowed[rel] = defaultdict(set)
        lines = source.decode("utf-8", "replace").splitlines()
        for lineno, text in enumerate(lines, start=1):
            if (match := PRAGMA.search(text)) is None:
                continue
            if not match["why"].strip(" -—:\t"):
                found.append(("GC001", rel, lineno))
            rules = {token.strip() for token in match["rules"].split(",")}
            allowed[rel][lineno] |= rules
            if text.strip().startswith("#"):
                allowed[rel][lineno + 1] |= rules
    findings = [(rule, rel, line) for rel, tree in trees.items()
                for rule, line in raw_findings(tree, rel)]
    findings += [("GC205", rel, line)
                 for rel, _, line in unreferenced(trees, users)]
    found.extend((rule, rel, line) for rule, rel, line in findings
                 if not {rule, SLUGS[rule]} & allowed[rel][line])
    return sorted(found)


def test_tree_is_clean():
    assert check(SRC, USERS) == []


def test_allowlist_is_exactly_what_the_tree_needs():
    # Every entry has a reason and still names a definition nothing
    # calls: a stale entry would hide the next dead method of its name.
    assert all(why.strip() for why in ALLOW.values())
    trees = {path.relative_to(SRC).as_posix(): ast.parse(path.read_bytes())
             for path in SRC.rglob("*.py")}
    unused = {f"{rel}::{qualname}"
              for rel, qualname, _ in unreferenced(trees, USERS, allow=())}
    assert unused == set(ALLOW)


def test_server_pragma_is_honoured():
    # The one pragma in the tree: the HTTP dispatcher's catch-all, which
    # must turn a handler bug into a 500 rather than a broken socket.
    rel = "serve/server.py"
    source = (SRC / rel).read_text(encoding="utf-8")
    (line,) = [line for rule, line in raw_findings(ast.parse(source), rel)
               if rule == "GC401"]
    assert "gclint: allow[broad-except]" in source.splitlines()[line - 2]
    assert ("GC401", rel, line) not in check(SRC, USERS)


SEEDED = {  # test id: (rule, fixture file, text on the flagged line)
    "GC201-runtime": ("GC201", "runtime/worker_pool.py", "time.time()"),
    "GC202-cache": ("GC202", "cache/manager.py", "random.random()"),
    "GC202-runtime": ("GC202", "runtime/worker_pool.py", "random.random()"),
    "GC203-popitem": ("GC203", "cache/hash_order.py", ".popitem()"),
    "GC203-set-iteration": ("GC203", "cache/hash_order.py", "in set("),
    "GC204-recursion": ("GC204", "matching/recursive.py", "return extend("),
    "GC205-test-only-helper":
        ("GC205", "graphs/oracle.py", "def is_connected("),
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
PICK = "def pick():\n    return 1"
CREDIT = ("class CacheManager:\n    def credit(self):\n        pass\n"
          "C = CacheManager()")
# A function only its own body calls is unreferenced too (GC205).
SCOPE = {  # test id: (file in the package, source, rules it must raise)
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
    "recursion-by-name": ("matching/walk.py", "def f(n):\n    return f(n - 1)",
                          ["GC204", "GC205"]),
    "recursion-by-method": ("runtime/plan.py", "class P:\n    def f(self):\n"
                            "        return self.f()",
                            ["GC204", "GC205", "GC205"]),
    "nested-self-call": ("matching/walk.py", "def f():\n    def g():\n"
                         "        return g()\n    return g",
                         ["GC204", "GC205"]),
    "call-of-another": ("cache/walk.py", "def f(other):\n    return g(f)\n"
                        "def g(h):\n    return h.f()", []),
    "recursion-outside-core":
        ("workloads/walk.py", "def f(n):\n    return f(n - 1)", ["GC205"]),
    "recursion-in-data-layer":
        ("dataset/walk.py", "def f(n):\n    return f(n - 1)",
         ["GC204", "GC205"]),
    "reraising-broad-except": ("persist/atomic.py", "try:\n    f()\n"
                               "except BaseException:\n    raise", []),
    "pragma-by-slug": ("cache/pick.py",
                       "# gclint: allow[unseeded-random] demo\n" + DRAW, []),
    "pragma-by-id":
        ("cache/pick.py", DRAW + "  # gclint: allow[GC202] demo", []),
    "pragma-without-reason":
        ("cache/pick.py", DRAW + "  # gclint: allow[GC202]", ["GC001"]),
    "unreferenced": ("cache/pick.py", PICK, ["GC205"]),
    "private-unreferenced":
        ("cache/pick.py", "def _pick():\n    return 1", []),
    "used-only-in-all":
        ("cache/pick.py", '__all__ = ["pick"]\n' + PICK, ["GC205"]),
    "used-only-by-import": ("cache/pick.py", PICK, ["GC205"]),
    "called-by-another-module": ("cache/pick.py", PICK, []),
    "string-use-in-perf": ("cache/manager.py", CREDIT, []),
    "string-use-in-package": ("cache/manager.py",
                              CREDIT + '\nWRAP = "credit"', ["GC205"]),
    "allowlisted": ("api/service.py", "class GraphCacheService:\n"
                    "    def purge(self):\n        pass\n"
                    "S = GraphCacheService()", []),
}
OTHERS = {  # test id: {file under the checkout: source} beside the case's
    "used-only-by-import":
        {"repro/cache/__init__.py": "from repro.cache.pick import pick"},
    "called-by-another-module": {"repro/api/service.py": "X = pick()"},
    "string-use-in-perf":
        {"perf/passes.py": 'tracer.wrap(cache, "credit", "cache.credit")'},
}


@pytest.mark.parametrize("case", SCOPE)
def test_rule_scope(tmp_path, case):
    rel, body, expected = SCOPE[case]
    files = {f"repro/{rel}": body, **OTHERS.get(case, {})}
    for name, source in files.items():
        (tmp_path / name).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / name).write_text(source + "\n", encoding="utf-8")
    found = check(tmp_path / "repro", [tmp_path / "perf"])
    assert [rule for rule, _, _ in found] == expected
