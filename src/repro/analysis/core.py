"""gclint core — findings, the rule shape and the analysis engine.

The analyzer is deliberately small: plain :mod:`ast` walks, no imports
of the analyzed code (so it can lint broken or dependency-missing
trees), and one rule shape, :class:`ProjectRule`, which sees the whole
parsed module set at once — the lock rules are cross-file invariants
(lock-acquisition order, blocking calls reached through callers).

A file that does not parse fails the run: :func:`collect_modules`
raises its :class:`SyntaxError`, naming the file.
"""

from __future__ import annotations

import ast
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from pathlib import Path

__all__ = [
    "Finding",
    "ParsedModule",
    "ProjectRule",
    "AnalysisReport",
    "parse_module",
    "collect_modules",
    "run_analysis",
    "dotted_name",
]


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule_id: str       # e.g. "GC111"
    slug: str          # e.g. "blocking-under-lock"
    path: str          # posix relpath as given to the engine
    line: int          # 1-based
    message: str
    #: 1-based column, 0 when the rule has no sub-line precision.
    col: int = 0

    def render(self) -> str:
        location = f"{self.path}:{self.line}"
        if self.col:
            location += f":{self.col}"
        return f"{location}: {self.rule_id} {self.message}"


@dataclass
class ParsedModule:
    """One source file, parsed once and shared by every rule."""

    relpath: str                 # posix-style, as passed on the CLI
    tree: ast.Module


def parse_module(path: Path, relpath: str | None = None) -> ParsedModule:
    """Parse ``path``; a file that does not parse (or decode) raises
    :class:`SyntaxError` naming it."""
    rel = relpath if relpath is not None else path.as_posix()
    return ParsedModule(relpath=rel,
                        tree=ast.parse(path.read_bytes(), filename=rel))


def collect_modules(paths: Sequence[str | Path]) -> list[ParsedModule]:
    """Parse every ``.py`` file under ``paths`` (files or directories)."""
    files: list[tuple[Path, str]] = []
    for raw in paths:
        root = Path(raw)
        if root.is_file():
            files.append((root, root.as_posix()))
            continue
        for candidate in sorted(root.rglob("*.py")):
            if "__pycache__" in candidate.parts:
                continue
            files.append((candidate, candidate.as_posix()))
    return [parse_module(path, rel) for path, rel in files]


class ProjectRule:
    """A rule over the whole parsed module set: identity plus
    :meth:`check_project`."""

    rule_id: str = "GC???"
    slug: str = "unnamed"
    description: str = ""

    def finding(self, module: ParsedModule, line: int,
                message: str, col: int = 0) -> Finding:
        return Finding(
            rule_id=self.rule_id, slug=self.slug,
            path=module.relpath, line=line, message=message, col=col,
        )

    def check_project(self,
                      modules: Sequence[ParsedModule]) -> Iterable[Finding]:
        raise NotImplementedError


def dotted_name(node: ast.AST) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, else ``None``."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


@dataclass
class AnalysisReport:
    """Everything one engine run produced."""

    findings: list[Finding]
    modules_checked: int

    @property
    def ok(self) -> bool:
        """True when the run found nothing."""
        return not self.findings


def run_analysis(paths: Sequence[str | Path]) -> AnalysisReport:
    """Run every rule over every module under ``paths``.

    The pytest-importable entry point: tests assert
    ``run_analysis(["src/repro"]).findings == []``.
    """
    from repro.analysis.rules import default_rules

    modules = collect_modules(paths)
    findings = [finding for rule in default_rules()
                for finding in rule.check_project(modules)]
    findings.sort(key=lambda f: (f.path, f.line, f.rule_id))
    return AnalysisReport(findings=findings, modules_checked=len(modules))
