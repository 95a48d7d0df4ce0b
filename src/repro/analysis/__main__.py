"""gclint CLI — ``python -m repro.analysis [paths...]``.

Analyses every ``.py`` file under the given paths and prints the
findings.  Exit status: 0 when there are none, 1 on findings or on a
file that does not parse, 2 for usage errors (a missing path, a
``--json`` target that cannot be written).  ``--json`` writes the
machine-readable report CI uploads as an artifact.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections.abc import Sequence
from pathlib import Path

from repro.analysis.core import AnalysisReport, run_analysis
from repro.analysis.rules import default_rules

__all__ = ["main"]

DEFAULT_PATHS = ("src/repro",)


def _report_json(report: AnalysisReport) -> dict[str, object]:
    return {
        "tool": "gclint",
        "modules_checked": report.modules_checked,
        "reported_paths": sorted({f.path for f in report.findings}),
        "findings": [
            {
                "rule": f.rule_id,
                "slug": f.slug,
                "path": f.path,
                "line": f.line,
                "col": f.col,
                "message": f.message,
            }
            for f in report.findings
        ],
    }


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="gclint: lock-discipline analysis for the GC+ "
                    "reproduction.",
    )
    parser.add_argument("paths", nargs="*", default=list(DEFAULT_PATHS),
                        help="files or directories to analyze "
                             f"(default: {DEFAULT_PATHS[0]})")
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="write the full machine-readable report here")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule registry and exit")
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in default_rules():
            print(f"{rule.rule_id}  {rule.slug:22s} {rule.description}")
        return 0

    missing = [p for p in args.paths if not Path(p).exists()]
    if missing:
        print(f"gclint: no such path(s): {', '.join(missing)}",
              file=sys.stderr)
        return 2

    try:
        report = run_analysis(args.paths)
    except SyntaxError as exc:
        print(f"gclint: cannot parse {exc.filename}:{exc.lineno}: "
              f"{exc.msg}", file=sys.stderr)
        return 1

    if args.json:
        try:
            Path(args.json).write_text(
                json.dumps(_report_json(report), indent=2) + "\n",
                encoding="utf-8",
            )
        except OSError as exc:
            print(f"gclint: cannot write --json {args.json}: "
                  f"{exc.strerror or exc}", file=sys.stderr)
            return 2

    for finding in report.findings:
        print(finding.render())
    print(f"gclint: {report.modules_checked} module(s), "
          f"{len(report.findings)} finding(s)")
    return 0 if report.ok else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BrokenPipeError:
        # Downstream pager/head closed the pipe; not our error.
        sys.exit(1)
