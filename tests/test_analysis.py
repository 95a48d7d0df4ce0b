"""gclint self-tests: the tree is clean, seeded violations are caught,
and the suppression layers (pragma, scope) behave.

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

from repro.analysis import Severity, run_analysis
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
        ("GC202", "cache/manager.py"),    # random.random() in cache/
        ("GC201", "runtime/worker_pool.py"),  # wall clock under runtime/
        ("GC202", "runtime/worker_pool.py"),  # unseeded RNG under runtime/
        ("GC401", "persist/writer.py"),   # swallowed broad except
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

    def test_all_seeded_findings_are_errors(self, fixture_report):
        assert all(f.severity is Severity.ERROR
                   for f in fixture_report.findings)


# ----------------------------------------------------------------------
# Rule scoping and mechanics on synthetic trees
# ----------------------------------------------------------------------
class TestScoping:
    def test_workloads_are_allowlisted_for_determinism(self, tmp_path):
        _write(tmp_path, "workloads/gen.py",
               "import random\n\ndef draw():\n    return random.random()\n")
        _write(tmp_path, "cache/pick.py",
               "import random\n\ndef draw():\n    return random.random()\n")
        report = run_analysis([tmp_path])
        assert [f.path for f in report.findings
                if f.rule_id == "GC202"] == [(tmp_path / "cache" /
                                              "pick.py").as_posix()]

    def test_seeded_rng_is_fine_in_core(self, tmp_path):
        _write(tmp_path, "cache/pick.py", """\
            import random

            def draw(seed):
                return random.Random(seed).random()
            """)
        report = run_analysis([tmp_path])
        assert report.findings == []

    def test_unseeded_rng_constructor_flagged_in_core(self, tmp_path):
        _write(tmp_path, "runtime/jitter.py",
               "import random\n\nRNG = random.Random()\n")
        report = run_analysis([tmp_path])
        assert [f.rule_id for f in report.findings] == ["GC202"]

    def test_wall_clock_flagged_in_core_only(self, tmp_path):
        body = "import time\n\ndef stamp():\n    return time.time()\n"
        _write(tmp_path, "persist/stamp.py", body)
        _write(tmp_path, "serve/stamp.py", body)
        report = run_analysis([tmp_path])
        assert [(f.rule_id, f.path) for f in report.findings] == [
            ("GC201", (tmp_path / "persist" / "stamp.py").as_posix())
        ]

    def test_hash_order_heuristics_warn_not_error(self, tmp_path):
        _write(tmp_path, "cache/order.py", """\
            def ids(raw):
                return list(set(raw))

            def ok(raw):
                return sorted(set(raw))
            """)
        report = run_analysis([tmp_path])
        assert [f.severity for f in report.findings] == [Severity.WARNING]
        assert report.ok   # warnings don't gate by default

    def test_popitem_is_an_error(self, tmp_path):
        _write(tmp_path, "cache/evict.py", """\
            def evict_one(table):
                return table.popitem()
            """)
        report = run_analysis([tmp_path])
        assert [f.rule_id for f in report.findings] == ["GC203"]
        assert not report.ok

    def test_reraising_broad_except_is_allowed(self, tmp_path):
        _write(tmp_path, "persist/atomic.py", """\
            import os

            def write(path, data, tmp):
                try:
                    os.replace(tmp, path)
                except BaseException:
                    os.unlink(tmp)
                    raise
            """)
        report = run_analysis([tmp_path])
        assert report.findings == []


class TestSuppression:
    def test_inline_pragma_with_reason_suppresses(self, tmp_path):
        _write(tmp_path, "cache/pick.py", """\
            import random

            def draw():
                # gclint: allow[unseeded-random] demo of pragma mechanics
                return random.random()
            """)
        report = run_analysis([tmp_path])
        assert report.findings == []
        assert [f.rule_id for f in report.suppressed] == ["GC202"]

    def test_pragma_by_rule_id_also_works(self, tmp_path):
        _write(tmp_path, "cache/pick.py", """\
            import random

            def draw():
                return random.random()  # gclint: allow[GC202] demo reason
            """)
        report = run_analysis([tmp_path])
        assert report.findings == []

    def test_pragma_without_reason_is_itself_a_finding(self, tmp_path):
        _write(tmp_path, "cache/pick.py", """\
            import random

            def draw():
                # gclint: allow[GC202]
                return random.random()
            """)
        report = run_analysis([tmp_path])
        assert [f.rule_id for f in report.findings] == ["GC001"]
        assert not report.ok


class TestCli:
    def test_json_report(self, tmp_path, capsys):
        _write(tmp_path, "cache/pick.py",
               "import random\n\n"
               "def draw():\n    return random.random()\n")
        out = tmp_path / "report.json"
        code = gclint_main([str(tmp_path), "--json", str(out)])
        assert code == 1
        payload = json.loads(out.read_text(encoding="utf-8"))
        assert payload["tool"] == "gclint"
        assert payload["errors"] == 1
        (row,) = payload["findings"]
        assert row["rule"] == "GC202" and row["severity"] == "error"

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

    def test_fail_on_warning_promotes_warnings(self, tmp_path, capsys):
        _write(tmp_path, "cache/order.py",
               "def ids(raw):\n    return list(set(raw))\n")
        assert gclint_main([str(tmp_path)]) == 0
        assert gclint_main([str(tmp_path),
                            "--fail-on", "warning"]) == 1

    def test_list_rules(self, capsys):
        assert gclint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("GC110", "GC111", "GC120", "GC201",
                        "GC202", "GC203", "GC401"):
            assert rule_id in out
        assert len(out.splitlines()) == 7

    def test_list_rules_reports_severity(self, capsys):
        assert gclint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        # Every registry line carries its severity column.
        lines = [ln for ln in out.splitlines() if ln.strip()]
        assert lines and all("[error]" in ln or "[warning]" in ln
                             for ln in lines)

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
