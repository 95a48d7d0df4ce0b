"""gclint self-tests: the tree is clean, the seeded lock-rule
violations are caught, and the flow rules stay precise.

The seeded-violation fixture (tests/fixtures/gclint_violations) is the
analyzer's own regression harness: if a rule rots, the fixture run
stops failing and these tests go red.
"""

from __future__ import annotations

import json
import textwrap
import time
from pathlib import Path

import pytest

from repro.analysis import run_analysis
from repro.analysis.__main__ import main as gclint_main

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src" / "repro"
FIXTURE = REPO / "tests" / "fixtures" / "gclint_violations"


def _write(tmp_path: Path, rel: str, body: str) -> Path:
    target = tmp_path / rel
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(textwrap.dedent(body), encoding="utf-8")
    return target


# ----------------------------------------------------------------------
# The acceptance gate: the real tree is clean, the fixture is not
# ----------------------------------------------------------------------
class TestTreeIsClean:
    def test_src_repro_has_no_findings(self):
        report = run_analysis([SRC])
        assert report.findings == [], "\n".join(
            f.render() for f in report.findings
        )
        # Every module of the tree was parsed and checked.
        assert report.modules_checked == len(list(SRC.rglob("*.py")))

    def test_cli_exits_zero_on_tree(self):
        assert gclint_main([str(SRC)]) == 0


class TestSeededViolations:
    @pytest.fixture(scope="class")
    def fixture_report(self):
        return run_analysis([FIXTURE])

    def test_cli_exits_nonzero_on_fixture(self):
        assert gclint_main([str(FIXTURE)]) == 1

    @pytest.mark.parametrize("rule_id,path_part", [
        ("GC110", "cache/ordering.py"),   # lock-order cycle
        ("GC111", "cache/blocking.py"),   # blocking I/O under the service lock
        ("GC120", "cache/raceable.py"),   # unguarded shared-state mutation
    ])
    def test_each_seeded_violation_is_caught(self, fixture_report,
                                             rule_id, path_part):
        hits = [f for f in fixture_report.findings
                if f.rule_id == rule_id and path_part in f.path]
        assert hits, (f"{rule_id} did not fire on {path_part}; analyzer "
                      f"regression")


# ----------------------------------------------------------------------
# The command line
# ----------------------------------------------------------------------
class TestCli:
    def test_json_report(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert gclint_main([str(FIXTURE), "--json", str(out)]) == 1
        payload = json.loads(out.read_text(encoding="utf-8"))
        assert payload["tool"] == "gclint"
        assert {row["rule"] for row in payload["findings"]} == {
            "GC110", "GC111", "GC120"}

    def test_unparseable_file_fails_the_run(self, tmp_path, capsys):
        # One stderr line naming the file and line, exit 1, no traceback.
        _write(tmp_path, "cache/broken.py", "def broken(:\n")
        assert gclint_main([str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "cache/broken.py:1" in err

    def test_unwritable_json_is_usage_error(self, tmp_path, capsys):
        # Exit 1 means "findings"; a report that cannot be written is a
        # usage error: one stderr line, exit 2, no traceback.
        _write(tmp_path, "cache/ok.py", "def noop():\n    return 0\n")
        target = tmp_path / "no" / "such" / "dir" / "report.json"
        assert gclint_main([str(tmp_path), "--json", str(target)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "--json" in err and "Traceback" not in err

    def test_missing_path_is_usage_error(self, capsys):
        assert gclint_main(["definitely/not/a/path"]) == 2

    def test_list_rules(self, capsys):
        assert gclint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        assert [line.split()[0] for line in out.splitlines()] == [
            "GC110", "GC111", "GC120"]

    def test_json_reports_column_and_paths(self, tmp_path, capsys):
        _write(tmp_path, "cache/block.py", """\
            class GraphCacheService:
                def __init__(self, lock, conn):
                    self._lock = lock
                    self.conn = conn

                def publish(self, payload):
                    with self._lock:
                        self.conn.send(payload)
            """)
        out = tmp_path / "report.json"
        assert gclint_main([str(tmp_path), "--json", str(out)]) == 1
        payload = json.loads(out.read_text(encoding="utf-8"))
        (row,) = payload["findings"]
        assert row["rule"] == "GC111"
        assert row["col"] == 13   # 1-based column of self.conn.send
        assert payload["reported_paths"] == [
            (tmp_path / "cache" / "block.py").as_posix()
        ]


# ----------------------------------------------------------------------
# Flow-aware rule precision: things that must NOT fire
# ----------------------------------------------------------------------
class TestFlowPrecision:
    def test_blocking_under_an_io_lock_is_sanctioned(self, tmp_path):
        # A lock whose job is to serialise file I/O (the service's
        # _save_lock) may be held across it: GC111 polices the service
        # lock only.
        _write(tmp_path, "api/service.py", """\
            import os


            class GraphCacheService:
                def __init__(self, lock, save_lock):
                    self._lock = lock
                    self._save_lock = save_lock

                def save(self, tmp, path):
                    with self._save_lock:
                        with self._lock:
                            state = 1
                        os.replace(tmp, path)
                        return state
            """)
        report = run_analysis([tmp_path])
        assert [f for f in report.findings if f.rule_id == "GC111"] == []

    def test_interprocedural_blocking_needs_a_service_lock_caller(
            self, tmp_path):
        # Same helper, two call chains: only the lock-holding one flags,
        # and the message names the caller that holds the lock.
        _write(tmp_path, "cache/chain.py", """\
            import time


            class GraphCacheService:
                def __init__(self, lock):
                    self._lock = lock

                def under_lock(self):
                    with self._lock:
                        return self._work()

                def bare(self):
                    return self._work()

                def _work(self):
                    time.sleep(0.01)
                    return 1
            """)
        report = run_analysis([tmp_path])
        (hit,) = [f for f in report.findings if f.rule_id == "GC111"]
        assert "GraphCacheService.under_lock" in hit.message

    def test_guarded_mutation_of_tracked_class_is_clean(self, tmp_path):
        _write(tmp_path, "cache/guarded.py", """\
            class CacheManager:
                def __init__(self, lock):
                    self.lock = lock
                    self.epoch = 0

                def bump(self):
                    with self.lock:
                        self.epoch += 1

                def refresh(self):
                    return self.bump()
            """)
        report = run_analysis([tmp_path])
        assert [f for f in report.findings if f.rule_id == "GC120"] == []

    def test_unreachable_mutation_is_not_guessed_at(self, tmp_path):
        # No resolved caller → must-held is ⊤ (unknown): GC120 stays
        # quiet rather than flagging code it cannot reason about.
        _write(tmp_path, "cache/orphan.py", """\
            class CacheManager:
                def __init__(self):
                    self.epoch = 0

                def bump(self):
                    self.epoch += 1
            """)
        report = run_analysis([tmp_path])
        assert [f for f in report.findings if f.rule_id == "GC120"] == []

    def test_untracked_class_mutation_is_ignored(self, tmp_path):
        _write(tmp_path, "cache/other.py", """\
            class Scratchpad:
                def __init__(self):
                    self.total = 0

                def bump(self):
                    self.total += 1

                def refresh(self):
                    return self.bump()
            """)
        report = run_analysis([tmp_path])
        assert [f for f in report.findings if f.rule_id == "GC120"] == []

    def test_full_tree_run_stays_fast(self):
        # Acceptance bound: flow analysis over the whole tree < 10s.
        started = time.perf_counter()
        run_analysis([SRC])
        elapsed = time.perf_counter() - started
        assert elapsed < 10.0, f"gclint took {elapsed:.1f}s"
