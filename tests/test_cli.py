"""CLI tests: gen-dataset → gen-workload → run, end to end."""

from __future__ import annotations

import os
import socket
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main
from repro.graphs import io as graph_io
from repro.workloads import typeb


@pytest.fixture
def dataset_file(tmp_path):
    target = tmp_path / "data.tve"
    code = main([
        "gen-dataset", "--num-graphs", "40", "--mean-vertices", "12",
        "--std-vertices", "4", "--max-vertices", "30",
        "--out", str(target),
    ])
    assert code == 0
    return target


def assert_usage_error(code, capsys, fragment):
    """Exit 2 with one stderr line naming ``fragment``, no traceback."""
    assert code == 2
    captured = capsys.readouterr()
    assert captured.err.count("\n") == 1
    assert fragment in captured.err and "Traceback" not in captured.err
    return captured


class TestGenDataset:
    def test_writes_parseable_graphs(self, dataset_file, capsys):
        graphs = graph_io.load_file(dataset_file)
        assert len(graphs) == 40
        assert all(g.num_vertices >= 4 for _, g in graphs)

    @pytest.mark.parametrize("count", ["0", "-3"])
    def test_non_positive_count_is_a_usage_error(self, tmp_path, capsys,
                                                 count):
        code = main(["gen-dataset", "--num-graphs", count,
                     "--out", str(tmp_path / "d.tve")])
        assert_usage_error(code, capsys, "num_graphs")

    @pytest.mark.parametrize("flag,value,fragment", [
        ("--mean-vertices", "inf", "mean_vertices"),
        ("--mean-vertices", "-inf", "mean_vertices"),
        ("--mean-vertices", "nan", "mean_vertices"),
        ("--std-vertices", "inf", "std_vertices"),
        ("--std-vertices", "nan", "std_vertices"),
        ("--std-vertices", "-1", "std_vertices"),
    ])
    def test_bad_size_distribution_is_a_usage_error(self, tmp_path, capsys,
                                                    flag, value, fragment):
        out = tmp_path / "d.tve"
        code = main(["gen-dataset", "--num-graphs", "5", f"{flag}={value}",
                     "--out", str(out)])
        assert_usage_error(code, capsys, fragment)
        assert not out.exists()


class TestGenWorkload:
    @pytest.mark.parametrize("kind", ["ZZ", "UU", "0%"])
    def test_kinds(self, dataset_file, tmp_path, kind):
        out = tmp_path / "wl.tve"
        code = main([
            "gen-workload", "--dataset", str(dataset_file),
            "--kind", kind, "--num-queries", "15", "--out", str(out),
        ])
        assert code == 0
        assert len(graph_io.load_file(out)) == 15

    def test_unknown_kind(self, dataset_file, tmp_path, capsys):
        code = main([
            "gen-workload", "--dataset", str(dataset_file),
            "--kind", "XY", "--num-queries", "5",
            "--out", str(tmp_path / "wl.tve"),
        ])
        assert code == 2
        assert "unknown workload kind" in capsys.readouterr().err

    @pytest.mark.parametrize("flags,fragment", [
        (["--num-queries", "0"], "num_queries"),
        (["--kind", "abc%"], "unknown workload kind"),
        (["--kind", "150%"], "unknown workload kind"),
    ])
    def test_bad_values_are_usage_errors(self, dataset_file, tmp_path,
                                         capsys, flags, fragment):
        code = main(["gen-workload", "--dataset", str(dataset_file),
                     "--out", str(tmp_path / "wl.tve"), *flags])
        assert_usage_error(code, capsys, fragment)

    @pytest.mark.parametrize("graphs,kind,fragment", [
        # two one-edge graphs: no query of 4+ edges can be extracted
        ("one-edge", "ZZ", "could not extract a query"),
        ("one-edge", "0%", "could not fill the Type B answer pool"),
        ("one-edge", "50%", "could not fill the Type B answer pool"),
        # a one-label K4: walks exist, but every relabelling matches it
        ("k4", "50%", "could not fill the Type B no-answer pool"),
    ])
    def test_graphs_too_small_are_usage_errors(self, tmp_path, capsys,
                                               graphs, kind, fragment):
        dataset = tmp_path / f"{graphs}.tve"
        dataset.write_text({
            "one-edge": "t # 0\nv 0 C\nv 1 O\ne 0 1 0\n"
                        "t # 1\nv 0 C\nv 1 N\ne 0 1 0\n",
            "k4": "t # 0\n" + "".join(f"v {v} C\n" for v in range(4))
                  + "".join(f"e {u} {v} 0\n" for u in range(4)
                            for v in range(u + 1, 4)),
        }[graphs])
        out = tmp_path / "wl.tve"
        code = main(["gen-workload", "--dataset", str(dataset), "--kind",
                     kind, "--num-queries", "5", "--out", str(out)])
        assert_usage_error(code, capsys, fragment)
        assert not out.exists()

    def test_one_label_dataset_fails_before_any_walk(self, tmp_path, capsys,
                                                     monkeypatch):
        """A one-label 8-clique can never yield a no-answer query: one
        line and exit 2 without testing a single relabelled walk."""
        tests = []
        monkeypatch.setattr(typeb, "_has_empty_answer",
                            lambda *a: tests.append(a))
        dataset = tmp_path / "clique.tve"
        dataset.write_text(
            "t # 0\n" + "".join(f"v {v} C\n" for v in range(8))
            + "".join(f"e {u} {v} 0\n" for u in range(8)
                      for v in range(u + 1, 8)))
        code = main(["gen-workload", "--dataset", str(dataset), "--kind",
                     "50%", "--num-queries", "5", "--out",
                     str(tmp_path / "wl.tve")])
        assert_usage_error(code, capsys, "one distinct label")
        assert tests == []


@pytest.mark.parametrize("target", ["missing-directory", "directory"])
@pytest.mark.parametrize("command", ["gen-dataset", "gen-workload"])
def test_unwritable_out_is_a_usage_error(dataset_file, tmp_path, capsys,
                                         command, target):
    """An ``--out`` in a directory that does not exist, or naming a
    directory, is one line and exit 2 — not a ``FileNotFoundError`` /
    ``IsADirectoryError`` traceback after the work is done."""
    out = (tmp_path / "no-such-dir" / "x.tve"
           if target == "missing-directory" else tmp_path)
    argv = {
        "gen-dataset": ["gen-dataset", "--num-graphs", "5"],
        "gen-workload": ["gen-workload", "--dataset", str(dataset_file),
                         "--num-queries", "5"],
    }[command]
    code = main([*argv, "--out", str(out)])
    assert_usage_error(code, capsys, f"--out: cannot write {out}")
    assert not (tmp_path / "no-such-dir").exists()


@pytest.mark.parametrize("target", ["missing-directory", "directory"])
@pytest.mark.parametrize("command", ["run", "serve"])
def test_unwritable_snapshot_target_is_a_usage_error(
        dataset_file, tmp_path, capsys, command, target):
    """A snapshot target no save could write is one line and exit 2
    before any query runs — not a failed save after the whole workload."""
    workload = tmp_path / "wl.tve"
    assert main(["gen-workload", "--dataset", str(dataset_file),
                 "--num-queries", "5", "--out", str(workload)]) == 0
    capsys.readouterr()
    snap = (tmp_path / "no-such-dir" / "x.snap.jsonl"
            if target == "missing-directory" else tmp_path)
    inputs = ["--dataset", str(dataset_file), "--workload", str(workload)]
    flag, argv = {
        "run": ("--save-snapshot", ["run", *inputs]),
        "serve": ("--snapshot-path",
                  ["serve", "--dataset", str(dataset_file), "--port", "0"]),
    }[command]
    captured = assert_usage_error(main([*argv, flag, str(snap)]), capsys,
                                  f"{flag}: ")
    assert captured.out == "", "the workload ran before the check"
    assert not (tmp_path / "no-such-dir").exists()


class TestRun:
    @pytest.fixture
    def workload_file(self, dataset_file, tmp_path):
        out = tmp_path / "wl.tve"
        main(["gen-workload", "--dataset", str(dataset_file),
              "--kind", "ZZ", "--num-queries", "12", "--out", str(out)])
        return out

    def test_run_con(self, dataset_file, workload_file, capsys):
        code = main([
            "run", "--dataset", str(dataset_file),
            "--workload", str(workload_file), "--model", "CON",
            "--change-batches", "2", "--ops-per-batch", "2",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "sub-iso tests" in out
        assert "cache anatomy" in out
        assert "renewals" in out and "interned" in out

    def test_run_bare(self, dataset_file, workload_file, capsys):
        code = main([
            "run", "--dataset", str(dataset_file),
            "--workload", str(workload_file), "--model", "none",
        ])
        assert code == 0
        assert "cache anatomy" not in capsys.readouterr().out

    def test_run_supergraph(self, dataset_file, workload_file, capsys):
        code = main([
            "run", "--dataset", str(dataset_file),
            "--workload", str(workload_file), "--model", "CON",
            "--query-type", "supergraph", "--change-batches", "1",
        ])
        assert code == 0

    def test_retro_budget_is_a_usage_error(self, dataset_file,
                                           workload_file, capsys):
        """The flag went with the mechanism (docs/config-fidelity.md,
        "Retired"): argparse's own usage error, exit 2."""
        with pytest.raises(SystemExit) as exc:
            main([
                "run", "--dataset", str(dataset_file),
                "--workload", str(workload_file), "--retro-budget", "5",
            ])
        assert exc.value.code == 2
        assert "--retro-budget" in capsys.readouterr().err

    def test_autosave_without_a_cache_model_rejected(
            self, dataset_file, workload_file, capsys):
        """Bare Method M has no cache to autosave: one stderr line and
        exit 2 before any query runs, as for ``--warm-start``."""
        code = main([
            "run", "--dataset", str(dataset_file),
            "--workload", str(workload_file), "--model", "none",
            "--autosave-every", "2",
        ])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert "--autosave-every" in captured.err

    def test_explain_without_a_cache_model_rejected(
            self, dataset_file, workload_file, capsys):
        """``--explain`` under bare Method M is a usage error like
        ``--warm-start``, not a warning the run carries on past."""
        code = main([
            "run", "--dataset", str(dataset_file),
            "--workload", str(workload_file), "--model", "none",
            "--explain", "0",
        ])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert "--explain" in captured.err

    @pytest.mark.parametrize("flags,named", [
        (["--policy", "bogus"], "bogus"),
        (["--cache-capacity", "-3"], "cache_capacity"),
        (["--window-capacity", "0"], "window_capacity"),
    ])
    def test_cache_flags_validated_without_a_cache_model(
            self, dataset_file, workload_file, capsys, flags, named):
        """Bare Method M ignores the cache flags, but a bad value is
        still one stderr line and exit 2 before any query runs."""
        code = main([
            "run", "--dataset", str(dataset_file),
            "--workload", str(workload_file), "--model", "none", *flags,
        ])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert named in captured.err

    def test_explain_past_the_workload_rejected(self, dataset_file,
                                                workload_file, capsys):
        code = main([
            "run", "--dataset", str(dataset_file),
            "--workload", str(workload_file), "--explain", "50",
        ])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert "--explain 50" in captured.err

    @pytest.mark.parametrize("flags,fragment", [
        (["--change-batches", "-2"], "num_batches"),
        (["--change-batches", "3", "--ops-per-batch", "-1"],
         "ops_per_batch"),
        (["--explain", "-4"], "--explain -4"),
    ])
    def test_negative_counts_rejected(self, dataset_file, workload_file,
                                      capsys, flags, fragment):
        code = main(["run", "--dataset", str(dataset_file),
                     "--workload", str(workload_file), *flags])
        assert assert_usage_error(code, capsys, fragment).out == ""

    @pytest.mark.parametrize("autosave", [[], ["--autosave-every", "1"]])
    def test_snapshot_of_a_changed_dataset_rejected(
            self, dataset_file, workload_file, tmp_path, capsys, autosave):
        """The changes never reach a dataset file, so a snapshot that
        reflects them could not be restored over ``--dataset``: one
        stderr line and exit 2 before any query runs, no file written."""
        snap = tmp_path / "changed.snap.jsonl"
        code = main([
            "run", "--dataset", str(dataset_file),
            "--workload", str(workload_file), "--change-batches", "2",
            "--save-snapshot", str(snap), *autosave,
        ])
        captured = assert_usage_error(code, capsys, "--change-batches")
        assert captured.out == ""
        assert not snap.exists()

    def test_snapshot_command_only_loads(self, capsys):
        """``run --save-snapshot`` is the one snapshot writer."""
        with pytest.raises(SystemExit) as exc:
            main(["snapshot", "save"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice" in err and "'save'" in err and "load" in err

    def test_empty_workload_rejected(self, dataset_file, tmp_path,
                                     capsys):
        empty = tmp_path / "empty.tve"
        empty.write_text("", encoding="utf-8")
        code = main([
            "run", "--dataset", str(dataset_file),
            "--workload", str(empty),
        ])
        assert code == 2


class TestSnapshotErrorPaths:
    """Operator-facing snapshot failures: one diagnostic line on stderr
    and a non-zero exit — never a traceback (regression: these used to
    escape as raw SnapshotMismatchError/ValueError crashes)."""

    @pytest.fixture
    def tve(self, tmp_path):
        from repro.graphs.graph import LabeledGraph

        def write(name, labels_list):
            graphs = [
                LabeledGraph.from_edges(
                    list(labels),
                    [(i, i + 1) for i in range(len(labels) - 1)])
                for labels in labels_list
            ]
            target = tmp_path / name
            graph_io.dump_file(target, list(enumerate(graphs)))
            return target

        return write

    @pytest.fixture
    def snapshot_file(self, tve, tmp_path):
        dataset = tve("a.tve", ["CCO", "CCC", "CNO", "COO"])
        workload = tve("wl.tve", ["CO", "CC"])
        snap = tmp_path / "cache.snap.jsonl"
        assert main([
            "run", "--dataset", str(dataset),
            "--workload", str(workload), "--save-snapshot", str(snap),
        ]) == 0
        return snap

    def assert_one_line_error(self, capsys, fragment):
        err = capsys.readouterr().err
        assert fragment in err
        assert len(err.strip().splitlines()) == 1, (
            f"expected a single diagnostic line, got:\n{err}")
        assert "Traceback" not in err

    def test_load_malformed_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.snap.jsonl"
        bad.write_text("this is not a snapshot\n", encoding="utf-8")
        code = main(["snapshot", "load", "--path", str(bad)])
        assert code == 2
        self.assert_one_line_error(capsys, "cannot load snapshot")

    def test_load_missing_file(self, tmp_path, capsys):
        code = main(["snapshot", "load", "--path",
                     str(tmp_path / "nope.snap.jsonl")])
        assert code == 2
        self.assert_one_line_error(capsys, "cannot load snapshot")

    @staticmethod
    def load_edited(snapshot_file, tve, field, value):
        """``snapshot load --dataset`` of the snapshot with one
        fingerprint field rewritten."""
        import json

        header, _, entries = snapshot_file.read_text(
            encoding="utf-8").partition("\n")
        header = json.loads(header)
        header["fingerprint"][field] = value
        snapshot_file.write_text(json.dumps(header) + "\n" + entries,
                                 encoding="utf-8")
        dataset = tve("a4.tve", ["CCO", "CCC", "CNO", "COO"])
        return main(["snapshot", "load", "--path", str(snapshot_file),
                     "--dataset", str(dataset)])

    def test_restore_with_an_unregistered_matcher(self, snapshot_file, tve,
                                                  capsys):
        """A snapshot whose fingerprint names a matcher the registry no
        longer has (``ullmann`` was one once) cannot name a config."""
        assert self.load_edited(snapshot_file, tve, "matcher",
                                "ullmann") == 2
        self.assert_one_line_error(capsys, "unknown matcher 'ullmann'")

    def test_restore_with_a_string_caching_flag(self, snapshot_file, tve,
                                                capsys):
        """``caching_enabled`` is a retired key: dropped on decode at
        any value, so a snapshot that carries it restores."""
        capsys.readouterr()
        assert self.load_edited(snapshot_file, tve, "caching_enabled",
                                "false") == 0
        out = capsys.readouterr().out
        assert "caching_enabled" not in out
        assert "warm-start: restored" in out

    @pytest.mark.parametrize("flags, fragment", [
        (["--autosave-every", "2"], "requires --save-snapshot"),
        (["--autosave-every", "-1", "--save-snapshot", "s.jsonl"],
         "must be a positive integer"),
    ])
    def test_autosave_flag_errors(self, tve, tmp_path, monkeypatch, capsys,
                                  flags, fragment):
        monkeypatch.chdir(tmp_path)
        dataset = tve("a5.tve", ["CCO", "CCC"])
        workload = tve("wl5.tve", ["CO"])
        code = main(["run", "--dataset", str(dataset),
                     "--workload", str(workload), *flags])
        assert code == 2
        self.assert_one_line_error(capsys, fragment)

    def test_restore_against_foreign_dataset(self, snapshot_file, tve,
                                             capsys):
        other = tve("b.tve", ["NNN", "NNO", "ONO", "OOO"])
        code = main(["snapshot", "load", "--path", str(snapshot_file),
                     "--dataset", str(other)])
        assert code == 2
        err = capsys.readouterr().err
        assert "cannot restore snapshot" in err
        assert "different dataset" in err
        assert "Traceback" not in err

    def test_run_warm_start_config_mismatch(self, snapshot_file, tve,
                                            capsys):
        dataset = tve("a2.tve", ["CCO", "CCC", "CNO", "COO"])
        workload = tve("wl2.tve", ["CO"])
        code = main([
            "run", "--dataset", str(dataset),
            "--workload", str(workload), "--model", "EVI",
            "--warm-start", str(snapshot_file),
        ])
        assert code == 2
        self.assert_one_line_error(capsys, "warm-start failed")

    def test_run_warm_start_malformed_snapshot(self, tve, tmp_path,
                                               capsys):
        dataset = tve("a3.tve", ["CCO", "CCC"])
        workload = tve("wl3.tve", ["CO"])
        bad = tmp_path / "bad2.snap.jsonl"
        bad.write_text("{}\n", encoding="utf-8")
        code = main([
            "run", "--dataset", str(dataset),
            "--workload", str(workload), "--model", "CON",
            "--warm-start", str(bad),
        ])
        assert code == 2
        self.assert_one_line_error(capsys, "warm-start failed")

    @staticmethod
    def corrupt(snapshot_file, how):
        """One byte that is not UTF-8 inside a query record, or a header
        policy name that contradicts the fingerprint's."""
        data = snapshot_file.read_bytes()
        if how == "non-utf8":
            at = data.index(b'"query":"t # 0') + len(b'"query":"t # 0')
            data = data[:at] + b"\xe6" + data[at:]
        else:
            assert b'"name":"hd"' in data and b'"policy":"hd"' in data
            data = data.replace(b'"name":"hd"', b'"name":"4d"', 1)
        snapshot_file.write_bytes(data)

    @pytest.mark.parametrize("how", ["non-utf8", "policy"])
    def test_load_corrupt_snapshot(self, snapshot_file, capsys, how):
        self.corrupt(snapshot_file, how)
        code = main(["snapshot", "load", "--path", str(snapshot_file)])
        assert code == 2
        self.assert_one_line_error(capsys, "cannot load snapshot")

    @pytest.mark.parametrize("how", ["non-utf8", "policy"])
    def test_run_warm_start_corrupt_snapshot(self, snapshot_file, tve,
                                             capsys, how):
        self.corrupt(snapshot_file, how)
        dataset = tve("a6.tve", ["CCO", "CCC", "CNO", "COO"])
        workload = tve("wl6.tve", ["CO"])
        code = main([
            "run", "--dataset", str(dataset),
            "--workload", str(workload), "--model", "CON",
            "--warm-start", str(snapshot_file),
        ])
        assert code == 2
        self.assert_one_line_error(capsys, "warm-start failed")

    @pytest.mark.parametrize("broken", ["missing", "malformed"])
    @pytest.mark.parametrize("command", [
        "run", "serve", "gen-workload", "snapshot load"])
    def test_unloadable_graph_file(self, command, broken, snapshot_file,
                                   tve, tmp_path, capsys):
        """Every subcommand that reads a ``t/v/e`` file reports a
        missing or malformed one as snapshot-file errors are reported."""
        bad = tmp_path / "bad.tve"
        if broken == "malformed":
            bad.write_text("t # 0\nv 0 C\ne 0\n", encoding="utf-8")
        workload = str(tve("wl4.tve", ["CO"]))
        argv = {
            "run": ["run", "--dataset", str(bad), "--workload", workload],
            "serve": ["serve", "--dataset", str(bad), "--port", "0"],
            "gen-workload": ["gen-workload", "--dataset", str(bad),
                             "--out", str(tmp_path / "out.tve")],
            "snapshot load": ["snapshot", "load", "--dataset", str(bad),
                              "--path", str(snapshot_file)],
        }[command]
        assert main(argv) == 2
        self.assert_one_line_error(capsys,
                                   f"--dataset: cannot load {bad}")


class TestServeSetupErrors:
    """``serve`` setup failures an operator hits by mistyping a flag:
    one stderr line and exit 2, like every other usage error — never a
    traceback, and never a process left serving or hanging."""

    @staticmethod
    def serve(dataset_file, *flags):
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = (str(src) + os.pathsep
                             + env.get("PYTHONPATH", ""))
        return subprocess.run(
            [sys.executable, "-m", "repro", "serve",
             "--dataset", str(dataset_file), "--drain-timeout", "5",
             *flags],
            env=env, capture_output=True, text=True, timeout=60,
        )

    @staticmethod
    def assert_usage_error(proc, fragment):
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr
        assert fragment in proc.stderr
        assert len(proc.stderr.strip().splitlines()) == 1, proc.stderr

    def test_port_in_use(self, dataset_file):
        with socket.socket() as taken:
            taken.bind(("127.0.0.1", 0))
            taken.listen()
            port = taken.getsockname()[1]
            proc = self.serve(dataset_file, "--port", str(port))
        self.assert_usage_error(proc, f"cannot listen on 127.0.0.1:{port}")
        assert "serving GC+" not in proc.stdout

    @pytest.mark.parametrize("port", ["99999", "65536", "-5"])
    def test_port_out_of_range(self, dataset_file, port):
        """``bind()`` raised ``OverflowError`` for these, a traceback."""
        proc = self.serve(dataset_file, "--port", port)
        self.assert_usage_error(proc, f"--port {port}: a port is 0 to 65535")
        assert "serving GC+" not in proc.stdout

    @pytest.mark.parametrize("target", ["missing-directory", "directory"])
    def test_unwritable_snapshot_path(self, dataset_file, tmp_path, target):
        """Used to serve, warn on every autosave and fail at drain."""
        snap = (tmp_path / "no-such-dir" / "x.snap.jsonl"
                if target == "missing-directory" else tmp_path)
        proc = self.serve(dataset_file, "--port", "0",
                          "--snapshot-path", str(snap))
        self.assert_usage_error(proc, "--snapshot-path: ")
        assert "serving GC+" not in proc.stdout

    @pytest.mark.parametrize("seconds", ["inf", "nan", "-1"])
    def test_unbounded_drain_timeout(self, dataset_file, seconds):
        """``inf`` lost the drain snapshot to an ``OverflowError``."""
        proc = self.serve(dataset_file, "--port", "0",
                          "--drain-timeout", seconds)
        self.assert_usage_error(proc, "drain timeout must be")
        assert "serving GC+" not in proc.stdout

    def test_port_file_in_missing_directory(self, dataset_file, tmp_path):
        port_file = tmp_path / "no-such-dir" / "port"
        proc = self.serve(dataset_file, "--port", "0",
                          "--port-file", str(port_file))
        self.assert_usage_error(proc, f"--port-file: cannot write {port_file}")
        assert not port_file.exists()
