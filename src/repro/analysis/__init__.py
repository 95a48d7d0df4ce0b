"""repro.analysis — gclint, the project's lock-discipline analyzer.

A flow-aware AST analysis enforcing the one-lock-per-request contract
of ``docs/concurrency.md``: lock-order cycles (GC110), blocking calls
under the service lock (GC111) and unguarded shared-state mutation
(GC120).  Run it as::

    python -m repro.analysis src/repro

or import :func:`run_analysis` from tests.  ``docs/analysis.md`` covers
every rule, the flow engine and the CI wiring; the determinism and
exception-hygiene rules are checked by ``tests/test_source_rules.py``.
"""

from __future__ import annotations

from repro.analysis.core import (
    AnalysisReport,
    Finding,
    ParsedModule,
    ProjectRule,
    collect_modules,
    parse_module,
    run_analysis,
)
from repro.analysis.rules import default_rules

__all__ = [
    "AnalysisReport",
    "Finding",
    "ParsedModule",
    "ProjectRule",
    "collect_modules",
    "default_rules",
    "parse_module",
    "run_analysis",
]
