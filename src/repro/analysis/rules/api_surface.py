"""API-surface rule: an honest ``__all__``.

GC501 keeps every module's declared public surface real: each name in
``__all__`` must be defined or imported in the module, and each public
top-level ``def``/``class`` must appear in ``__all__`` (modules without
an ``__all__`` are out of scope — they have not declared a surface).
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.analysis.core import Finding, ModuleRule, ParsedModule, Severity

__all__ = ["DunderAllIntegrity"]


def _module_all(tree: ast.Module) -> tuple[list[str], int] | None:
    for stmt in tree.body:
        targets: list[ast.expr]
        if isinstance(stmt, ast.Assign):
            targets = stmt.targets
        elif isinstance(stmt, ast.AnnAssign):
            targets = [stmt.target]
        else:
            continue
        if not any(isinstance(t, ast.Name) and t.id == "__all__"
                   for t in targets):
            continue
        value = stmt.value
        if value is None or not isinstance(value, (ast.List, ast.Tuple)):
            return None   # computed __all__ — out of this rule's reach
        names = [element.value for element in value.elts
                 if isinstance(element, ast.Constant)
                 and isinstance(element.value, str)]
        return names, stmt.lineno
    return None


def _top_level_bindings(tree: ast.Module) -> set[str]:
    names: set[str] = set()
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names.add(stmt.name)
        elif isinstance(stmt, (ast.Import, ast.ImportFrom)):
            for alias in stmt.names:
                names.add((alias.asname or alias.name).split(".")[0])
        elif isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                for node in ast.walk(target):
                    if isinstance(node, ast.Name):
                        names.add(node.id)
        elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target,
                                                            ast.Name):
            names.add(stmt.target.id)
        elif isinstance(stmt, (ast.If, ast.Try)):
            # TYPE_CHECKING / optional-dependency guards bind too.
            names |= _top_level_bindings(ast.Module(body=list(
                ast.iter_child_nodes(stmt)), type_ignores=[]))
    return names


def _public_defs(tree: ast.Module) -> list[tuple[str, int]]:
    return [(stmt.name, stmt.lineno) for stmt in tree.body
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef))
            and not stmt.name.startswith("_")]


class DunderAllIntegrity(ModuleRule):
    rule_id = "GC501"
    slug = "all-integrity"
    severity = Severity.ERROR
    description = ("__all__ out of sync with the module's public "
                   "definitions")

    def check(self, module: ParsedModule) -> Iterator[Finding]:
        declared = _module_all(module.tree)
        if declared is None:
            return
        names, lineno = declared
        bindings = _top_level_bindings(module.tree)
        for name in names:
            if name not in bindings:
                yield self.finding(
                    module, lineno,
                    f"__all__ exports {name!r} but the module never "
                    f"defines or imports it",
                )
        listed = set(names)
        for name, def_line in _public_defs(module.tree):
            if name not in listed:
                yield self.finding(
                    module, def_line,
                    f"public top-level `{name}` is not in __all__; "
                    f"export it or rename it with a leading underscore",
                )
        seen: set[str] = set()
        for name in names:
            if name in seen:
                yield self.finding(
                    module, lineno, f"__all__ lists {name!r} twice",
                )
            seen.add(name)

