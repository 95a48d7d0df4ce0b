"""repro.analysis — gclint, the project-specific static-analysis suite.

An AST-based rule engine enforcing the contracts the rest of the repo
only states in prose: lock discipline (``docs/concurrency.md``),
deterministic core decision paths (the oracle-equivalence guarantee)
and exception hygiene in the durability/serving layers.  Run it as::

    python -m repro.analysis src/repro

or import :func:`run_analysis` from tests.  ``docs/analysis.md`` covers
every rule, the pragma and path-scope suppression layers and the CI
wiring.
"""

from __future__ import annotations

from repro.analysis.core import (
    AnalysisReport,
    Finding,
    ModuleRule,
    ParsedModule,
    ProjectRule,
    Rule,
    Severity,
    collect_modules,
    parse_module,
    run_analysis,
)
from repro.analysis.rules import default_rules

__all__ = [
    "AnalysisReport",
    "Finding",
    "ModuleRule",
    "ParsedModule",
    "ProjectRule",
    "Rule",
    "Severity",
    "collect_modules",
    "default_rules",
    "parse_module",
    "run_analysis",
]
