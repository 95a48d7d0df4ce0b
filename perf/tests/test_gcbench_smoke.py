"""gcbench at toy size: the four workloads run, answers check out, and
what is printed is exactly what ``BENCHMARK.json`` declares."""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent.parent
RUN = [sys.executable, str(ROOT / "perf" / "run.py"), "--toy"]
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in CONTRACT["workloads"]]
END_TO_END = [m["name"] for m in CONTRACT["end_to_end"]]
PER_LAYER = [m["name"] for m in CONTRACT["per_layer"]]


def test_contract_limits():
    assert 2 <= len(WORKLOADS) <= 8
    assert 1 <= len(END_TO_END) <= 16
    assert 1 <= len(PER_LAYER) <= 128
    names = WORKLOADS + END_TO_END + PER_LAYER
    assert len(set(END_TO_END + PER_LAYER)) == len(END_TO_END + PER_LAYER)
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n)
               for n in names)
    assert "setup_s" in END_TO_END
    assert all(m["bound"] <= 0.10 for m in CONTRACT["end_to_end"])


def test_all_workloads_print_exactly_the_declared_names(tmp_path):
    done = subprocess.run(RUN + ["--trace", "1", "--out", str(tmp_path)],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stdout + done.stderr
    printed: dict[str, set[str]] = {}
    for line in done.stdout.splitlines():
        if line.startswith("#"):
            assert "FAILED" not in line, line
            continue
        workload, name, value, unit = line.split()
        float(value)
        printed.setdefault(workload, set()).add(name)
    assert sorted(printed) == sorted(WORKLOADS)
    for workload in WORKLOADS:
        assert printed[workload] == set(END_TO_END + PER_LAYER), workload
        assert (tmp_path / f"trace_{workload}.jsonl").stat().st_size > 0


def test_driver_invocation_ends_with_the_result_object(tmp_path):
    for trace, wanted in (("0", END_TO_END), ("1", PER_LAYER)):
        done = subprocess.run(
            RUN + ["--workload", "churn_con", "--seed", "7", "--seconds", "1",
                   "--trace", trace, "--out", str(tmp_path)],
            capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stdout + done.stderr
        result = json.loads(done.stdout.splitlines()[-1])
        assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
        assert result["correct"] is True and result["failed"] == 0
        assert result["attempted"] >= 1
        assert list(result["metrics"]) == wanted
        for name, metric in result["metrics"].items():
            assert sorted(metric) == ["unit", "value"], name
