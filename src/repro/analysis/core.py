"""gclint core — findings, rules, pragmas and the analysis engine.

The analyzer is deliberately small: plain :mod:`ast` walks, no imports
of the analyzed code (so it can lint broken or dependency-missing
trees), and a rule interface narrow enough that a project-specific
invariant — "no blocking I/O under the service lock", "no wall clock in
a core decision path" — is one screenful of visitor.

Two rule shapes exist:

* :class:`ModuleRule` — sees one parsed module at a time (most rules);
* :class:`ProjectRule` — sees the whole parsed module set at once
  (cross-file invariants like lock-acquisition order).

Suppression layers, innermost first:

1. **inline pragmas** — ``# gclint: allow[<rule-or-slug>] <reason>`` on
   the offending line (or alone on the line above).  The reason is
   mandatory; a bare pragma is itself a finding (GC001).
2. **path-scoped allowlists** — each rule carries path-segment scoping
   (e.g. the determinism rule never looks at ``workloads``/``bench``).
"""

from __future__ import annotations

import ast
import enum
import re
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from pathlib import Path

__all__ = [
    "Severity",
    "Finding",
    "ParsedModule",
    "Rule",
    "ModuleRule",
    "ProjectRule",
    "AnalysisReport",
    "parse_module",
    "collect_modules",
    "run_analysis",
    "dotted_name",
]


class Severity(enum.Enum):
    """ERROR findings fail the run; WARNING findings are reported but
    (by default) do not gate."""

    WARNING = "warning"
    ERROR = "error"


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule_id: str       # e.g. "GC111"
    slug: str          # e.g. "blocking-under-lock" (pragma alias)
    severity: Severity
    path: str          # posix relpath as given to the engine
    line: int          # 1-based
    message: str
    #: 1-based column, 0 when the rule has no sub-line precision.
    col: int = 0

    def render(self) -> str:
        location = f"{self.path}:{self.line}"
        if self.col:
            location += f":{self.col}"
        return (f"{location}: {self.rule_id} "
                f"[{self.severity.value}] {self.message}")


#: ``# gclint: allow[GC111] serialises the write`` — rule ids or slugs,
#: comma separated, reason mandatory.
_PRAGMA_RE = re.compile(
    r"#\s*gclint:\s*allow\[(?P<rules>[^\]]+)\]\s*(?P<reason>.*)$"
)


@dataclass
class _Pragma:
    line: int
    rules: frozenset[str]
    reason: str
    #: True when the pragma is the only content on its line, in which
    #: case it covers the *next* line as well.
    standalone: bool


@dataclass
class ParsedModule:
    """One source file, parsed once and shared by every rule."""

    path: Path
    relpath: str                 # posix-style, as passed on the CLI
    source: str
    tree: ast.Module
    pragmas: list[_Pragma] = field(default_factory=list)

    @property
    def segments(self) -> tuple[str, ...]:
        """Path segments, used for rule scoping (``repro/cache/…``)."""
        return tuple(Path(self.relpath).parts)

    def suppressed_rules(self, line: int) -> frozenset[str]:
        """Rule ids/slugs suppressed at ``line`` by inline pragmas."""
        out: set[str] = set()
        for pragma in self.pragmas:
            if pragma.line == line:
                out |= pragma.rules
            elif pragma.standalone and pragma.line == line - 1:
                out |= pragma.rules
        return frozenset(out)


def parse_module(path: Path, relpath: str | None = None) -> ParsedModule:
    source = path.read_text(encoding="utf-8")
    rel = relpath if relpath is not None else path.as_posix()
    tree = ast.parse(source, filename=rel)
    module = ParsedModule(path=path, relpath=rel, source=source, tree=tree)
    for lineno, text in enumerate(source.splitlines(), start=1):
        match = _PRAGMA_RE.search(text)
        if match is None:
            continue
        rules = frozenset(
            token.strip() for token in match.group("rules").split(",")
            if token.strip()
        )
        module.pragmas.append(_Pragma(
            line=lineno,
            rules=rules,
            reason=match.group("reason").strip(" -—:\t"),
            standalone=text.strip().startswith("#"),
        ))
    return module


def collect_modules(paths: Sequence[str | Path]) -> tuple[list[ParsedModule],
                                                          list[Finding]]:
    """Parse every ``.py`` file under ``paths`` (files or directories).

    Unparseable files become GC000 findings instead of crashing the
    run — a syntax error must fail the gate, not the tool.
    """
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
    modules: list[ParsedModule] = []
    errors: list[Finding] = []
    for path, rel in files:
        try:
            modules.append(parse_module(path, rel))
        except (SyntaxError, UnicodeDecodeError) as exc:
            lineno = getattr(exc, "lineno", None) or 1
            errors.append(Finding(
                rule_id="GC000", slug="parse-error",
                severity=Severity.ERROR, path=rel, line=int(lineno),
                message=f"cannot parse module: {exc}",
            ))
    return modules, errors


class Rule:
    """Base: identity, severity, and path-segment scoping."""

    rule_id: str = "GC???"
    slug: str = "unnamed"
    severity: Severity = Severity.ERROR
    description: str = ""
    #: When non-empty, the rule only runs on modules whose path contains
    #: at least one of these segments.
    include_segments: frozenset[str] = frozenset()
    #: Modules whose path contains one of these segments are exempt —
    #: the path-scoped allowlist.
    exclude_segments: frozenset[str] = frozenset()
    #: Exact posix relpath *suffixes* exempt from this rule (finer than
    #: segment scoping, e.g. a single generator module).
    exclude_suffixes: tuple[str, ...] = ()

    def applies_to(self, module: ParsedModule) -> bool:
        segments = set(module.segments)
        if self.include_segments and not (segments & self.include_segments):
            return False
        if segments & self.exclude_segments:
            return False
        return not any(module.relpath.endswith(suffix)
                       for suffix in self.exclude_suffixes)

    def finding(self, module: ParsedModule, line: int,
                message: str, col: int = 0) -> Finding:
        return Finding(
            rule_id=self.rule_id, slug=self.slug, severity=self.severity,
            path=module.relpath, line=line, message=message, col=col,
        )


class ModuleRule(Rule):
    def check(self, module: ParsedModule) -> Iterable[Finding]:
        raise NotImplementedError


class ProjectRule(Rule):
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
    suppressed: list[Finding]       # silenced by inline pragmas
    modules_checked: int

    @property
    def errors(self) -> list[Finding]:
        return [f for f in self.findings if f.severity is Severity.ERROR]

    @property
    def warnings(self) -> list[Finding]:
        return [f for f in self.findings if f.severity is Severity.WARNING]

    @property
    def ok(self) -> bool:
        """True when nothing gate-worthy survived suppression."""
        return not self.errors


def _iter_raw_findings(modules: Sequence[ParsedModule],
                       rules: Sequence[Rule]) -> Iterator[Finding]:
    for rule in rules:
        if isinstance(rule, ModuleRule):
            for module in modules:
                if rule.applies_to(module):
                    yield from rule.check(module)
        elif isinstance(rule, ProjectRule):
            scoped = [m for m in modules if rule.applies_to(m)]
            yield from rule.check_project(scoped)
        else:
            raise TypeError(f"{rule!r} is neither a ModuleRule nor a "
                            f"ProjectRule")
    # Pragmas must carry a reason: an unexplained suppression is exactly
    # the silent convention-rot this tool exists to stop.
    for module in modules:
        for pragma in module.pragmas:
            if not pragma.reason:
                yield Finding(
                    rule_id="GC001", slug="pragma-without-reason",
                    severity=Severity.ERROR, path=module.relpath,
                    line=pragma.line,
                    message="gclint allow[] pragma without a reason; "
                            "say why the suppression is sound",
                )


def run_analysis(paths: Sequence[str | Path]) -> AnalysisReport:
    """Run every rule over every module under ``paths``.

    The pytest-importable entry point: tests assert
    ``run_analysis(["src/repro"]).findings == []``.
    """
    from repro.analysis.rules import default_rules

    modules, parse_errors = collect_modules(paths)
    by_rel = {module.relpath: module for module in modules}

    kept: list[Finding] = list(parse_errors)
    suppressed: list[Finding] = []
    for finding in _iter_raw_findings(modules, default_rules()):
        module = by_rel.get(finding.path)
        if module is not None:
            allowed = module.suppressed_rules(finding.line)
            if finding.rule_id in allowed or finding.slug in allowed:
                suppressed.append(finding)
                continue
        kept.append(finding)
    kept.sort(key=lambda f: (f.path, f.line, f.rule_id))
    return AnalysisReport(findings=kept, suppressed=suppressed,
                          modules_checked=len(modules))
