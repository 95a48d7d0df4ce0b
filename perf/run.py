#!/usr/bin/env python3
"""gcbench — the repo's benchmark.  One command, four workloads.

    python3 perf/run.py                       # all four, each in its own
                                              # interpreter, one after another
    python3 perf/run.py --trace 1             # ... plus the per-layer trace
    python3 perf/run.py --runs 10             # ten seeds, for spreads
    python3 perf/run.py --selfcheck           # twice; must agree within bounds
    python3 perf/run.py --workload hit_bound --seed 3 --seconds 15 --trace 0

Prints every metric as ``workload metric value unit``; with
``--workload`` the last line is the one-object JSON result the driver
reads.  Exit code is non-zero when an answer differs from the oracle, a
pass diverges, or a trace cross-check fails.  See ``perf/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
if not (SRC / "repro" / "__init__.py").is_file():
    sys.exit(f"gcbench: the program under test is missing ({SRC}/repro)")
sys.path.insert(0, str(SRC))

import compare  # noqa: E402
import metrics  # noqa: E402
import reference  # noqa: E402
from passes import Direct, Http, Replay, run_pass  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import SPECS, oracle_answers, toy  # noqa: E402


def measure(spec, seed: int, trace: bool, outdir: Path) -> dict:
    """Run one workload in this interpreter; returns its full record.

    Fixed work: ``spec.passes`` passes of ``spec.measured`` positions,
    whatever the host's or the commit's speed, so that both sides of a
    comparison are reduced over the same number of samples."""
    target = Http if spec.http else Direct
    passes = []
    for number in range(spec.passes):
        current = run_pass(spec, seed, target, outdir)
        if passes:
            metrics.check_deterministic(passes[0], current, f"pass {number}")
        passes.append(current)
    # Before the oracle and the traced pass, which are the benchmark's
    # own memory: the service's interpreter is this one, or for
    # http_hit the serve children (the largest of them).
    who = resource.RUSAGE_CHILDREN if spec.http else resource.RUSAGE_SELF
    peak_rss_kb = resource.getrusage(who).ru_maxrss

    values = metrics.end_to_end(spec, passes, peak_rss_kb)
    checked = list(passes)
    problems = []
    if trace:
        tracer = Tracer()
        persist = {}

        def probe(target) -> None:
            path = outdir / f"snapshot_{spec.name}.jsonl"
            started = time.perf_counter()
            target.service.save(path)
            saved = time.perf_counter()
            target.service.load(path)
            persist.update(save_ms=(saved - started) * 1000.0,
                           load_ms=(time.perf_counter() - saved) * 1000.0,
                           bytes=path.stat().st_size)

        replay = None
        if spec.http:
            replay = run_pass(spec, seed, Replay, outdir)
            metrics.check_deterministic(passes[0], replay, "the replay")
            checked.append(replay)
        traced = run_pass(spec, seed, Replay if spec.http else Direct,
                          outdir, tracer, probe)
        metrics.check_deterministic(passes[0], traced, "the traced pass")
        checked.append(traced)
        at_reference_speed = tracer.totals(
            dict(enumerate(traced.speed, start=spec.warmup)))
        layer = metrics.per_layer(spec, passes, traced, at_reference_speed,
                                  replay, persist)
        problems = metrics.check_trace(spec, traced, tracer.totals(), layer,
                                       shares=not spec.toy)
        tracer.write(outdir / f"trace_{spec.name}.jsonl")
        values.update(layer)

    oracle = oracle_answers(spec, seed)
    attempted = failed = 0
    for one in checked:
        attempted += len(oracle)
        failed += sum(got != want for got, want in zip(one.answers, oracle))
    values["error_rate"] = failed / attempted
    return {
        "workload": spec.name, "seed": seed, "trace": int(trace),
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "reference_us": reference.NOMINAL * 1e6,
        "passes": len(passes), "samples": spec.measured,
        "noise_ratio": metrics.noise_ratio(passes),
        "host_slowdown": metrics.host_slowdown(passes),
        "pass_seconds": [sum(p.t_position) for p in passes],
        "pass_setup_s": [p.setup_s for p in passes],
        "pass_slowdown": [metrics.host_slowdown([p]) for p in passes],
        "attempted": attempted, "failed": failed, "problems": problems,
        "correct": failed == 0 and not problems, "metrics": values,
    }


def host_line(record: dict) -> str:
    try:
        commit = subprocess.run(
            ["git", "-C", str(HERE), "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=10).stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        commit = ""
    return (f"# host nproc={record['nproc']} python={record['python']} "
            f"reference_us={record['reference_us']:.0f} "
            f"commit={commit or 'unknown'} workload={record['workload']} "
            f"seed={record['seed']} passes={record['passes']} "
            f"samples={record['samples']} "
            f"bench.noise_ratio={record['noise_ratio']:.3f} "
            f"bench.host_slowdown={record['host_slowdown']:.3f} "
            f"error_rate={record['failed']}/{record['attempted']}")


def report(record: dict, units: dict[str, str]) -> None:
    print(host_line(record))
    for name, value in record["metrics"].items():
        print(f"{record['workload']} {name} {value:.6g} {units[name]}")
    for problem in record["problems"]:
        print(f"# FAILED {record['workload']}: {problem}")
    if record["failed"]:
        print(f"# FAILED {record['workload']}: {record['failed']} of "
              f"{record['attempted']} answers differ from the oracle")


def run_child(name: str, seed: int, args) -> dict:
    """One workload in a fresh interpreter; its record comes back
    through ``<out>/<workload>.json``."""
    command = [sys.executable, str(HERE / "run.py"), "--workload", name,
               "--seed", str(seed), "--trace", str(args.trace),
               "--out", str(args.out)]
    if args.toy:
        command.append("--toy")
    record_path = args.out / f"{name}.json"
    record_path.unlink(missing_ok=True)
    done = subprocess.run(command, stdout=subprocess.DEVNULL)
    if not record_path.is_file():
        sys.exit(f"gcbench: workload {name} exited with {done.returncode}")
    return json.loads(record_path.read_text(encoding="utf-8"))


def run_all(args, units: dict[str, str]) -> list[dict]:
    records = []
    for run in range(args.runs):
        for spec in SPECS:
            record = run_child(spec.name, args.seed + run, args)
            report(record, units)
            records.append(record)
    if args.trace:
        problems = cross_workload_problems(records)
        for problem in problems:
            print(f"# FAILED {problem}")
        if problems:
            records[-1]["correct"] = False
    return records


def discovery_share(m: dict[str, float]) -> float:
    """Hit discovery's share of the per-query pipeline's traced time."""
    discovery = (m["runtime.discover_self_ms_per_op"]
                 + m["cache.index_lookup_ms_per_op"]
                 + m["matching.internal_test_ms_per_op"])
    return discovery / (
        discovery + m["runtime.verify_self_ms_per_op"]
        + m["matching.method_test_ms_per_op"]
        + m["runtime.prune_ms_per_op"] + m["cache.admit_ms_per_op"]
        + m["dataset.ids_bitset_ms_per_op"] + m["graphs.features_ms_per_op"]
        + m["api.execute_self_ms_per_op"])


def cross_workload_problems(records: list[dict]) -> list[str]:
    """``http_hit`` runs ``hit_bound``'s pipeline: same exact counts, and
    discovery's share of the pipeline within 0.10 of ``hit_bound``'s."""
    by_name = {(r["workload"], r["seed"]): r["metrics"] for r in records}
    problems = []
    for (name, seed), http in by_name.items():
        direct = by_name.get(("hit_bound", seed))
        if name != "http_hit" or direct is None:
            continue
        for count in ("matching.method_tests_per_op",
                      "matching.internal_tests_per_op", "cache.admissions",
                      "cache.evictions", "cache.exact_hit_share"):
            if http[count] != direct[count]:
                problems.append(f"seed {seed}: http_hit {count} "
                                f"{http[count]} != hit_bound {direct[count]}")
        if abs(discovery_share(http) - discovery_share(direct)) > 0.10:
            problems.append(
                f"seed {seed}: discovery share of the pipeline is "
                f"{discovery_share(http):.2f} on http_hit, "
                f"{discovery_share(direct):.2f} on hit_bound")
    return problems


def main(argv: list[str] | None = None) -> int:
    contract = compare.load_contract()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[s.name for s in SPECS])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        help="accepted for the PR driver and ignored: a run "
                             "is a fixed amount of work (R passes of N "
                             "positions), not a fixed time")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--out", type=Path, default=HERE / "out")
    parser.add_argument("--runs", type=int, default=1,
                        help="repeat the whole benchmark with seeds "
                             "seed, seed+1, ... (all workloads mode)")
    parser.add_argument("--selfcheck", action="store_true",
                        help="run everything twice and require the two to "
                             "agree within each metric's bound")
    parser.add_argument("--toy", action="store_true",
                        help="smoke-test sizes; numbers are not comparable")
    args = parser.parse_args(argv)
    args.out.mkdir(parents=True, exist_ok=True)
    units = {m["name"]: m["unit"]
             for m in contract["end_to_end"] + contract["per_layer"]}

    if args.workload:
        # One CPU for the benchmark and the server it spawns: the
        # reference kernel then measures the speed of the very core the
        # queries run on (the two vCPUs' slow phases are not the same).
        if hasattr(os, "sched_setaffinity"):
            os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
        spec = next(s for s in SPECS if s.name == args.workload)
        record = measure(toy(spec) if args.toy else spec, args.seed,
                         bool(args.trace), args.out)
        (args.out / f"{spec.name}.json").write_text(
            json.dumps(record, indent=1), encoding="utf-8")
        report(record, units)
        wanted = contract["per_layer" if args.trace else "end_to_end"]
        print(json.dumps({
            "correct": record["correct"], "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": {m["name"]: {"value": record["metrics"][m["name"]],
                                    "unit": m["unit"]} for m in wanted},
        }))
        return 0 if record["correct"] else 1

    if args.selfcheck:
        args.trace = 0
        first, second = run_all(args, units), run_all(args, units)
        rows = compare.compare(first, second, contract, symmetric=True)
        compare.print_rows(rows)
        agree = all(row.verdict == "ok" for row in rows)
        return 0 if agree and all(r["correct"] for r in first + second) else 1

    records = run_all(args, units)
    (args.out / "result.json").write_text(
        json.dumps({"runs": records}, indent=1), encoding="utf-8")
    return 0 if all(r["correct"] for r in records) else 1


if __name__ == "__main__":
    sys.exit(main())
