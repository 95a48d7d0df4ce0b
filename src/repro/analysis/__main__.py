"""gclint CLI — ``python -m repro.analysis [paths...]``.

Exit status: 0 when no ERROR-severity findings survive pragma and
baseline suppression, 1 otherwise, 2 for usage errors.  ``--fail-on
warning`` promotes warnings to gate failures; ``--json`` writes the
machine-readable report CI uploads as an artifact.

``--changed-only`` keeps the *analysis* project-wide (cross-file rules
like GC301 and the interprocedural lock-state pass stay sound)
but reports only findings in files git considers changed — worktree,
index, untracked, and (with ``--diff-base REF``) the merge-base diff
against ``REF``.  If git is unavailable the run falls back to the full
tree rather than silently passing.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from collections.abc import Sequence
from pathlib import Path

from repro.analysis.baseline import (
    BaselineError,
    load_baseline,
    write_baseline,
)
from repro.analysis.core import AnalysisReport, Severity, run_analysis
from repro.analysis.rules import default_rules

__all__ = ["main"]

DEFAULT_PATHS = ("src/repro",)
DEFAULT_BASELINE = "gclint-baseline.json"


def _report_json(report: AnalysisReport) -> dict[str, object]:
    def rows(findings):
        return [
            {
                "rule": f.rule_id,
                "slug": f.slug,
                "severity": f.severity.value,
                "path": f.path,
                "line": f.line,
                "col": f.col,
                "message": f.message,
                "fingerprint": f.fingerprint,
            }
            for f in findings
        ]

    return {
        "tool": "gclint",
        "modules_checked": report.modules_checked,
        "reported_paths": sorted({f.path for f in report.findings}),
        "errors": len(report.errors),
        "warnings": len(report.warnings),
        "findings": rows(report.findings),
        "suppressed": rows(report.suppressed),
        "baselined": rows(report.baselined),
    }


def _changed_files(diff_base: str | None) -> set[Path] | None:
    """Absolute paths git considers changed, or ``None`` (= analyze
    everything) when git is unusable here."""
    commands = [
        ["git", "diff", "--name-only", "HEAD"],
        ["git", "diff", "--name-only", "--cached"],
        ["git", "ls-files", "--others", "--exclude-standard"],
    ]
    if diff_base:
        commands.append(["git", "diff", "--name-only",
                         f"{diff_base}...HEAD"])
    try:
        root = Path(subprocess.run(
            ["git", "rev-parse", "--show-toplevel"],
            capture_output=True, text=True, check=True,
        ).stdout.strip())
        changed: set[Path] = set()
        for command in commands:
            result = subprocess.run(command, capture_output=True,
                                    text=True, check=True)
            for line in result.stdout.splitlines():
                if line.strip():
                    changed.add((root / line.strip()).resolve())
        return changed
    except (OSError, subprocess.CalledProcessError) as exc:
        detail = exc.stderr.strip() if isinstance(
            exc, subprocess.CalledProcessError) and exc.stderr else exc
        print(f"gclint: --changed-only needs git ({detail}); "
              f"falling back to the full tree", file=sys.stderr)
        return None


def _write_lock_graph(paths: Sequence[str | Path], target: str) -> None:
    """Emit the lock-acquisition-order DOT graph for the analyzed tree
    (the CI artifact reviewers eyeball for ordering regressions)."""
    from repro.analysis.core import collect_modules
    from repro.analysis.lockstate import get_index

    modules, _parse_errors = collect_modules(paths)
    scoped = [module for module in modules
              if not module.relpath.endswith("util/rwlock.py")]
    index = get_index(scoped)
    Path(target).write_text(index.to_dot(), encoding="utf-8")


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="gclint: project-specific static analysis for the "
                    "GC+ reproduction (lock discipline, determinism, "
                    "snapshot-codec drift, exception hygiene, API "
                    "surface).",
    )
    parser.add_argument("paths", nargs="*", default=list(DEFAULT_PATHS),
                        help="files or directories to analyze "
                             f"(default: {DEFAULT_PATHS[0]})")
    parser.add_argument("--baseline", default=DEFAULT_BASELINE,
                        help="known-findings file (default: "
                             f"{DEFAULT_BASELINE}; absent file = empty)")
    parser.add_argument("--no-baseline", action="store_true",
                        help="ignore the baseline file entirely")
    parser.add_argument("--update-baseline", action="store_true",
                        help="record the current findings into --baseline "
                             "and exit 0")
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="write the full machine-readable report here")
    parser.add_argument("--fail-on", choices=["error", "warning"],
                        default="error",
                        help="lowest severity that fails the run "
                             "(default: error)")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule registry and exit")
    parser.add_argument("--changed-only", action="store_true",
                        help="analyze the full tree but report findings "
                             "only in files git sees as changed")
    parser.add_argument("--diff-base", metavar="REF", default=None,
                        help="with --changed-only, also treat files in "
                             "the merge-base diff against REF as changed "
                             "(CI: origin/<base branch>)")
    parser.add_argument("--lock-graph", metavar="PATH", default=None,
                        help="write the lock-acquisition-order graph of "
                             "the analyzed tree as DOT to PATH")
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in default_rules():
            print(f"{rule.rule_id}  {rule.slug:22s} "
                  f"[{rule.severity.value}] {rule.description}")
        return 0

    missing = [p for p in args.paths if not Path(p).exists()]
    if missing:
        print(f"gclint: no such path(s): {', '.join(missing)}",
              file=sys.stderr)
        return 2

    try:
        fingerprints = (frozenset() if args.no_baseline
                        else load_baseline(args.baseline))
    except BaselineError as exc:
        print(f"gclint: {exc}", file=sys.stderr)
        return 2

    report = run_analysis(args.paths, baseline_fingerprints=fingerprints)

    if args.lock_graph:
        _write_lock_graph(args.paths, args.lock_graph)

    if args.changed_only:
        changed = _changed_files(args.diff_base)
        if changed is not None:
            report = AnalysisReport(
                findings=[f for f in report.findings
                          if Path(f.path).resolve() in changed],
                suppressed=report.suppressed,
                baselined=report.baselined,
                modules_checked=report.modules_checked,
            )

    if args.update_baseline:
        write_baseline(args.baseline, report.findings)
        print(f"gclint: recorded {len(report.findings)} finding(s) into "
              f"{args.baseline}")
        return 0

    if args.json:
        Path(args.json).write_text(
            json.dumps(_report_json(report), indent=2) + "\n",
            encoding="utf-8",
        )

    for finding in report.findings:
        print(finding.render())
    gating = (report.findings if args.fail_on == "warning"
              else report.errors)
    summary = (f"gclint: {report.modules_checked} module(s), "
               f"{len(report.errors)} error(s), "
               f"{len(report.warnings)} warning(s)")
    if report.suppressed:
        summary += f", {len(report.suppressed)} pragma-suppressed"
    if report.baselined:
        summary += f", {len(report.baselined)} baselined"
    print(summary)
    return 1 if gating else 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BrokenPipeError:
        # Downstream pager/head closed the pipe; not our error.
        sys.exit(1)
