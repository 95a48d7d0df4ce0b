"""Command-line tools: generate datasets/workloads, run query streams.

Everything a user needs to drive GC+ from a shell, using the ``t/v/e``
exchange format for graphs on disk::

    python -m repro gen-dataset --num-graphs 500 --out data.tve
    python -m repro gen-workload --dataset data.tve --kind ZZ \
        --num-queries 200 --out queries.tve
    python -m repro run --dataset data.tve --workload queries.tve \
        --model CON --matcher vf2+ --change-batches 5

``run`` prints the paper's per-run metrics (average query time, sub-iso
tests, hit anatomy) and supports all cache models, matchers, replacement
policies and both query semantics.

Cache persistence (see ``docs/persistence.md``)::

    python -m repro run --dataset data.tve --workload queries.tve \
        --save-snapshot cache.snap.jsonl
    python -m repro snapshot load --path cache.snap.jsonl --dataset data.tve
    python -m repro run --dataset data.tve --workload queries.tve \
        --warm-start cache.snap.jsonl --save-snapshot cache.snap.jsonl

``run --save-snapshot`` persists the cache a workload warmed (a run with
``--change-batches`` cannot: its changes never reach a dataset file, so
nothing could restore the snapshot); ``snapshot load`` inspects a
snapshot (and, with ``--dataset``, restores it and reports the
reconciliation); ``run --warm-start`` starts serving from a persisted
cache instead of a cold one.

The HTTP sidecar (see ``docs/serving.md``)::

    python -m repro serve --dataset data.tve --port 8080 \
        --warm-start cache.snap.jsonl --snapshot-path cache.snap.jsonl

``serve`` answers ``/query``, ``/query/batch``, ``/mutate`` and
``/explain`` over JSON, exposes ``/healthz``/``/readyz`` probes and a
Prometheus ``/metrics`` endpoint, and drains gracefully on
SIGTERM/SIGINT: in-flight requests finish (bounded by
``--drain-timeout``) and the cache is snapshotted before exit.
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Mapping, Sequence
from pathlib import Path

from repro.api import GCConfig, GraphCacheService
from repro.dataset.change_plan import ChangePlan
from repro.dataset.store import GraphStore
from repro.datasets.aids import generate_aids_like
from repro.graphs import io as graph_io
from repro.graphs.graph import LabeledGraph
from repro.matching import MATCHERS, make_matcher
from repro.persist import SnapshotError, load_snapshot
from repro.runtime.method_m import MethodMRunner
from repro.workloads.typea import TypeACategory, generate_type_a
from repro.workloads.typeb import TypeBConfig, generate_type_b

__all__ = ["main", "build_parser", "render_table", "format_value"]


def format_value(value: object) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 100:
            return f"{value:,.0f}"
        if abs(value) >= 1:
            return f"{value:.2f}"
        return f"{value:.3f}"
    return str(value)


def render_table(title: str, rows: Sequence[Mapping[str, object]],
                 columns: Sequence[str] | None = None) -> str:
    """Fixed-width table with a title rule: what ``run`` and ``snapshot
    load`` print, and the figure tables of ``benchmarks/``."""
    if columns is not None:
        cols = list(columns)
    else:
        cols = list(rows[0].keys()) if rows else []
    table = [[format_value(row.get(c, "")) for c in cols] for row in rows]
    widths = [len(c) for c in cols]
    for line in table:
        for i, cell in enumerate(line):
            widths[i] = max(widths[i], len(cell))
    sep = "-+-".join("-" * w for w in widths)
    header = " | ".join(c.ljust(w) for c, w in zip(cols, widths))
    body = "\n".join(
        " | ".join(cell.ljust(w) for cell, w in zip(line, widths))
        for line in table
    )
    rule = "=" * max(len(header), len(title))
    return f"{title}\n{rule}\n{header}\n{sep}\n{body}\n"


class _FileFlagError(Exception):
    """A file named on the command line cannot be loaded or written:
    :func:`main` prints the message on one line and exits 2."""


def _load_graphs(flag: str, path: Path) -> list[LabeledGraph]:
    """The graphs of the ``t/v/e`` file given as ``flag``; a missing,
    unreadable or malformed file ends the command in :func:`main` with
    one line and exit 2, as snapshot-file errors do."""
    try:
        return [g for _, g in graph_io.load_file(path)]
    except (OSError, ValueError) as exc:   # ValueError: malformed records
        raise _FileFlagError(f"{flag}: cannot load {path}: {exc}") from None


def _dump_graphs(path: Path, graphs: list[tuple[int, LabeledGraph]]) -> None:
    """Write ``--out``; a path that cannot be written (a missing
    directory, a directory, no permission) ends the command in
    :func:`main` with one line and exit 2."""
    try:
        graph_io.dump_file(path, graphs)
    except OSError as exc:
        raise _FileFlagError(f"--out: cannot write {path}: {exc}") from None


def _check_snapshot_target(flag: str, path: Path | None) -> None:
    """Refuse a snapshot target no save could write — a missing
    directory, or a directory itself — before any query runs, not when
    the first save fails."""
    if path is None:
        return
    if path.is_dir():
        raise _FileFlagError(f"{flag}: {path} is a directory")
    if not path.parent.is_dir():
        raise _FileFlagError(
            f"{flag}: directory {path.parent} does not exist")


def _cmd_gen_dataset(args: argparse.Namespace) -> int:
    try:
        graphs = generate_aids_like(
            num_graphs=args.num_graphs,
            mean_vertices=args.mean_vertices,
            std_vertices=args.std_vertices,
            max_vertices=args.max_vertices,
            seed=args.seed,
        )
    except ValueError as exc:
        print(f"gen-dataset: {exc}", file=sys.stderr)
        return 2
    _dump_graphs(args.out, list(enumerate(graphs)))
    avg_v = sum(g.num_vertices for g in graphs) / len(graphs)
    avg_e = sum(g.num_edges for g in graphs) / len(graphs)
    print(f"wrote {len(graphs)} graphs to {args.out} "
          f"(avg |V|={avg_v:.1f}, avg |E|={avg_e:.1f})")
    return 0


def _cmd_gen_workload(args: argparse.Namespace) -> int:
    graphs = _load_graphs("--dataset", args.dataset)
    kind = args.kind.upper()
    percent = kind[:-1] if kind.endswith("%") else ""
    type_a = kind in {c.name for c in TypeACategory}
    if not (type_a or (percent.isdigit() and int(percent) <= 100)):
        print(f"unknown workload kind {args.kind!r}; use UU/ZU/ZZ or a "
              f"no-answer share from 0% to 100%", file=sys.stderr)
        return 2
    try:
        if type_a:
            workload = generate_type_a(graphs, args.num_queries, kind,
                                       seed=args.seed)
        else:
            workload = generate_type_b(graphs, TypeBConfig(
                num_queries=args.num_queries,
                no_answer_probability=int(percent) / 100.0,
                answer_pool_size=max(args.num_queries // 2, 10),
                no_answer_pool_size=max(args.num_queries // 8, 5),
                seed=args.seed,
            ))
    except ValueError as exc:
        print(f"gen-workload: {exc}", file=sys.stderr)
        return 2
    _dump_graphs(args.out,
                 [(i, q.graph) for i, q in enumerate(workload.queries)])
    print(f"wrote {len(workload)} queries to {args.out} ({workload.name})")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    graphs = _load_graphs("--dataset", args.dataset)
    queries = _load_graphs("--workload", args.workload)
    if not queries:
        print("workload is empty", file=sys.stderr)
        return 2
    if not -1 <= args.explain < len(queries):
        print(f"--explain {args.explain}: the workload has "
              f"{len(queries)} queries (0 to {len(queries) - 1}; -1 for "
              f"no plan)", file=sys.stderr)
        return 2
    _check_snapshot_target("--save-snapshot", args.save_snapshot)
    bare = args.model.lower() == "none"
    if bare and (args.explain >= 0 or args.warm_start or args.save_snapshot
                 or args.autosave_every):
        print("--explain/--warm-start/--save-snapshot/--autosave-every need "
              "a cache model (CON or EVI)", file=sys.stderr)
        return 2
    if args.change_batches and args.save_snapshot:
        # The changes live only in this process: a snapshot reflecting
        # them is ahead of every copy of --dataset on disk.
        print("--save-snapshot cannot be combined with --change-batches: "
              "the changes are never written to a dataset file, so no "
              "command could restore the snapshot", file=sys.stderr)
        return 2
    plan = None
    if args.change_batches:
        try:
            plan = ChangePlan.generate(
                graphs, num_queries=len(queries),
                num_batches=args.change_batches,
                ops_per_batch=args.ops_per_batch, seed=args.seed,
            )
        except ValueError as exc:
            print(f"--change-batches/--ops-per-batch: {exc}",
                  file=sys.stderr)
            return 2
    store = GraphStore.from_graphs(graphs)

    try:
        # The cache flags are checked under every model: bare Method M
        # ignores them, so a bad value is a usage error all the same.
        config = _snapshot_config(args, model="CON" if bare else args.model)
        if bare:
            runner = MethodMRunner(store, make_matcher(config.matcher),
                                   query_type=config.query_type)
        else:
            runner = GraphCacheService(store, config)
            _arm_autosave(runner, args.save_snapshot, args.autosave_every,
                          "--save-snapshot")
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2

    service = runner if isinstance(runner, GraphCacheService) else None
    if args.warm_start:
        if _warm_start(service, args.warm_start) != 0:
            service.close()
            return 2
    total_time = 0.0
    total_tests = 0
    answers = 0
    try:
        for i, query in enumerate(queries):
            if plan is not None:
                if service is not None:
                    service.apply(plan, i)
                else:
                    plan.apply_due(store, i)
            if service is not None and i == args.explain:
                print(f"explain plan for query {i}:")
                print(service.explain(query).describe())
                print()
            result = runner.execute(query)
            total_time += result.metrics.query_seconds
            total_tests += result.metrics.method_tests
            answers += result.metrics.answer_size
        if service is not None and args.save_snapshot:
            if _save_snapshot_cli(service, args.save_snapshot) != 0:
                return 2
    finally:
        if service is not None:
            service.close()

    rows = [{
        "queries": len(queries),
        "avg query ms": total_time / len(queries) * 1000.0,
        "sub-iso tests": total_tests,
        "avg answers": answers / len(queries),
    }]
    print(render_table(
        f"run: model={args.model} matcher={args.matcher} "
        f"type={args.query_type}", rows,
    ))
    if service is not None:
        s = service.summary()
        hit_rows = [{
            "zero-test queries": s["zero_test_queries"],
            "exact-hit queries": s["queries_with_exact_hit"],
            "containing hits": s["total_containing_hits"],
            "contained hits": s["total_contained_hits"],
            "renewals": service.cache.renewals,
            "interned": s["interned_queries"],
            # The whole Figure 6 overhead bar, its consistency share
            # (Algorithms 1+2 under CON, the purge under EVI) and the
            # EVI purge alone, so the two models' costs compare.
            "avg overhead ms": s["avg_overhead_ms"],
            "avg consistency ms": s["avg_consistency_ms"],
            "avg purge ms": s["avg_purge_ms"],
            **_hd_rounds_cell(s),
        }]
        print(render_table("cache anatomy", hit_rows))
    return 0


def _hd_rounds_cell(summary: dict) -> dict[str, str]:
    """Which HD regime dominated the run's eviction rounds (empty for
    non-HD policies, which carry no regime tallies)."""
    if "hd_pin_rounds" not in summary:
        return {}
    return {"hd pin/pinc rounds":
            f"{summary['hd_pin_rounds']}/{summary['hd_pinc_rounds']}"}


def _save_snapshot_cli(service: GraphCacheService, path) -> int:
    """Persist the cache after a run; a failed write is reported on one
    line (the run's tables were already printed), never a traceback."""
    try:
        print(f"saved cache snapshot to {service.save(path)}")
        return 0
    except (SnapshotError, OSError) as exc:
        print(f"saving snapshot failed: {exc}", file=sys.stderr)
        return 2


def _report_restore(service: GraphCacheService, path, report) -> None:
    reconciled = ("purged (EVI: dataset changed while on disk)"
                  if report.purged else
                  f"{report.entries_validated} entries revalidated"
                  if report.dataset_changed else "dataset unchanged")
    print(f"warm-start: restored {service.cache.cache_size} cache + "
          f"{service.cache.window_size} window entries from {path} "
          f"({reconciled})")


def _warm_start(service: GraphCacheService, path) -> int:
    """Restore ``service`` from the snapshot at ``path``; 0 on success."""
    try:
        report = service.load(path)
    except (SnapshotError, OSError) as exc:
        print(f"warm-start failed: {exc}", file=sys.stderr)
        return 2
    _report_restore(service, path, report)
    return 0


def _add_cache_flags(parser: argparse.ArgumentParser,
                     model_help: str = "CON or EVI") -> None:
    """The flags `run` and `serve` share: what :func:`_snapshot_config`
    turns into a :class:`GCConfig`."""
    parser.add_argument("--model", default="CON", help=model_help)
    parser.add_argument("--matcher", default="vf2+",
                        help=f"one of {sorted(MATCHERS)}")
    parser.add_argument("--query-type", default="subgraph",
                        help="subgraph or supergraph")
    parser.add_argument("--policy", default="hd")
    parser.add_argument("--cache-capacity", type=int, default=100)
    parser.add_argument("--window-capacity", type=int, default=20)


def _arm_autosave(service: GraphCacheService, path: Path | None,
                  every: int, path_flag: str) -> None:
    """``--autosave-every`` (0: off); a usage error is a ValueError."""
    if not every:
        return
    if path is None:
        raise ValueError(f"--autosave-every requires {path_flag}: the file "
                         f"the periodic snapshots are written to")
    service.autosave(path, every)


def _snapshot_config(args: argparse.Namespace, **more: object) -> GCConfig:
    """The :class:`GCConfig` the :func:`_add_cache_flags` flags name,
    plus the command's own fields (``more``)."""
    return GCConfig.from_dict({
        "model": args.model,
        "query_type": args.query_type,
        "matcher": args.matcher,
        "policy": args.policy,
        "cache_capacity": args.cache_capacity,
        "window_capacity": args.window_capacity,
        **more,
    })


def _cmd_snapshot_load(args: argparse.Namespace) -> int:
    """Inspect a snapshot; with ``--dataset``, restore and reconcile."""
    try:
        snapshot = load_snapshot(args.path)
    except (SnapshotError, OSError) as exc:
        print(f"cannot load snapshot: {exc}", file=sys.stderr)
        return 2
    state = snapshot.state
    print(render_table(f"snapshot: {args.path}", [{
        "codec version": snapshot.version,
        "cache entries": len(state.cache),
        "window entries": len(state.window),
        "stream position": snapshot.query_counter,
        "log cursor": state.log_cursor,
        "policy": state.policy_name,
        **({"hd pin/pinc rounds":
            f"{state.pin_rounds}/{state.pinc_rounds}"}
           if state.policy_name == "hd" else {}),
    }]))
    print("config fingerprint: " + ", ".join(
        f"{name}={value}" for name, value in snapshot.fingerprint.items()
    ))
    if args.dataset is None:
        return 0
    # Restore into a service whose config *is* the fingerprint, so the
    # load can never be rejected for config reasons — what remains is
    # the dataset reconciliation, which is the interesting part.  The
    # already-decoded snapshot is restored directly (not re-read from
    # the path), so the table above and the reconciliation below always
    # describe the same snapshot even if the file is being rewritten.
    graphs = _load_graphs("--dataset", args.dataset)
    store = GraphStore.from_graphs(graphs)
    try:
        config = GCConfig.from_dict(snapshot.fingerprint)
    except ValueError as exc:
        print(f"cannot restore snapshot: {exc}", file=sys.stderr)
        return 2
    with GraphCacheService(store, config) as service:
        # A rejected restore (foreign dataset, malformed state) is an
        # expected operator outcome, not a crash: one diagnostic line,
        # non-zero exit, no traceback.
        try:
            report = service.restore(snapshot)
        except (SnapshotError, ValueError) as exc:
            print(f"cannot restore snapshot: {exc}", file=sys.stderr)
            return 2
        _report_restore(service, args.path, report)
        entries = service.cache.all_entries()
        live = store.ids_bitset()
        fully_valid = sum(1 for e in entries if e.fully_valid(live))
        print(f"against {args.dataset}: {len(entries)} hit-eligible "
              f"entries, {fully_valid} fully valid, "
              f"{service.cache.pending_log_records(store)} log records "
              f"pending")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the HTTP sidecar until SIGTERM/SIGINT, then drain."""
    import signal
    import threading

    from repro.serve.server import CacheServer

    if not 0 <= args.port <= 65535:
        print(f"--port {args.port}: a port is 0 to 65535 (0 binds an "
              f"ephemeral one)", file=sys.stderr)
        return 2
    _check_snapshot_target("--snapshot-path", args.snapshot_path)
    graphs = _load_graphs("--dataset", args.dataset)
    try:
        config = _snapshot_config(
            args, lock_mode="rw", max_sessions=args.max_sessions)
        service = GraphCacheService(GraphStore.from_graphs(graphs), config)
        _arm_autosave(service, args.snapshot_path, args.autosave_every,
                      "--snapshot-path")
        server = CacheServer(service, host=args.host, port=args.port,
                             drain_timeout=args.drain_timeout,
                             snapshot_path=args.snapshot_path)
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    if args.warm_start:
        if _warm_start(service, args.warm_start) != 0:
            service.close()
            return 2
    try:
        server.start()
    except OSError as exc:  # port in use, unknown host, no permission
        service.close()
        print(f"cannot listen on {args.host}:{args.port}: {exc}",
              file=sys.stderr)
        return 2
    print(f"serving GC+ on {server.address} "
          f"(model={config.model.name}, matcher={config.matcher}, "
          f"sessions={config.max_sessions}, "
          f"{len(graphs)} dataset graphs)", flush=True)
    if args.port_file is not None:
        # Written only once the socket is bound: anything polling the
        # file (CI smoke, scripts) reads a connectable port, never a
        # racing placeholder.
        try:
            args.port_file.write_text(f"{server.port}\n", encoding="utf-8")
        except OSError as exc:
            server.drain()
            print(f"--port-file: cannot write {args.port_file}: {exc}",
                  file=sys.stderr)
            return 2

    stop = threading.Event()

    def _request_stop(signum, frame) -> None:
        stop.set()

    signal.signal(signal.SIGTERM, _request_stop)
    signal.signal(signal.SIGINT, _request_stop)
    try:
        stop.wait()
    finally:
        report = server.drain()
        drained = ("in-flight drained" if report.in_flight_drained
                   else "drain timeout hit; in-flight abandoned")
        persisted = ("no snapshot path configured"
                     if report.snapshot_path is None
                     and report.snapshot_error is None
                     else f"snapshot failed: {report.snapshot_error}"
                     if report.snapshot_error is not None
                     else f"snapshot saved to {report.snapshot_path}")
        print(f"drained in {report.drain_seconds:.2f}s ({drained}; "
              f"{persisted})", flush=True)
    return 0 if report.snapshot_error is None else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="GraphCache+ command-line tools.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen_d = sub.add_parser("gen-dataset",
                           help="generate a synthetic AIDS-like dataset")
    gen_d.add_argument("--num-graphs", type=int, default=1000)
    gen_d.add_argument("--mean-vertices", type=float, default=25.0)
    gen_d.add_argument("--std-vertices", type=float, default=10.0)
    gen_d.add_argument("--max-vertices", type=int, default=100)
    gen_d.add_argument("--seed", type=int, default=2017)
    gen_d.add_argument("--out", type=Path, required=True)
    gen_d.set_defaults(func=_cmd_gen_dataset)

    gen_w = sub.add_parser("gen-workload",
                           help="generate a Type A/B query workload")
    gen_w.add_argument("--dataset", type=Path, required=True)
    gen_w.add_argument("--kind", default="ZZ",
                       help="UU, ZU, ZZ, 0%%, 20%% or 50%%")
    gen_w.add_argument("--num-queries", type=int, default=200)
    gen_w.add_argument("--seed", type=int, default=0)
    gen_w.add_argument("--out", type=Path, required=True)
    gen_w.set_defaults(func=_cmd_gen_workload)

    run = sub.add_parser("run", help="execute a workload file")
    run.add_argument("--dataset", type=Path, required=True)
    run.add_argument("--workload", type=Path, required=True)
    _add_cache_flags(run, model_help="CON, EVI or none (bare Method M)")
    run.add_argument("--explain", type=int, default=-1, metavar="N",
                     help="print the cache's explain plan before query N")
    run.add_argument("--change-batches", type=int, default=0)
    run.add_argument("--ops-per-batch", type=int, default=20)
    run.add_argument("--seed", type=int, default=77)
    run.add_argument("--warm-start", type=Path, default=None, metavar="SNAP",
                     help="restore the cache from a snapshot file before "
                          "serving (needs a cache model; the snapshot's "
                          "config must match the run's)")
    run.add_argument("--save-snapshot", type=Path, default=None,
                     metavar="SNAP",
                     help="persist the cache state to this file after the "
                          "run (and use it as the autosave target)")
    run.add_argument("--autosave-every", type=int, default=0, metavar="N",
                     help="with --save-snapshot: also snapshot every N "
                          "admissions during the run (0 = only at the end)")
    run.set_defaults(func=_cmd_run)

    snap = sub.add_parser("snapshot", help="inspect GC+ cache snapshots")
    snap_sub = snap.add_subparsers(dest="snapshot_command", required=True)
    snap_load = snap_sub.add_parser(
        "load", help="inspect a snapshot; with --dataset, restore it "
                     "against that dataset and report the reconciliation")
    snap_load.add_argument("--path", type=Path, required=True)
    snap_load.add_argument("--dataset", type=Path, default=None)
    snap_load.set_defaults(func=_cmd_snapshot_load)

    serve = sub.add_parser(
        "serve", help="run the HTTP serving sidecar (see docs/serving.md)")
    serve.add_argument("--dataset", type=Path, required=True)
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8080,
                       help="listen port (0 binds an ephemeral port; "
                            "pair with --port-file to discover it)")
    serve.add_argument("--port-file", type=Path, default=None,
                       metavar="PATH",
                       help="write the bound port here once serving "
                            "(for scripts using --port 0)")
    _add_cache_flags(serve)
    serve.add_argument("--max-sessions", type=int, default=8,
                       help="concurrent request pipelines (the session "
                            "pool size)")
    serve.add_argument("--warm-start", type=Path, default=None,
                       metavar="SNAP",
                       help="restore the cache from a snapshot before "
                            "serving")
    serve.add_argument("--snapshot-path", type=Path, default=None,
                       metavar="SNAP",
                       help="snapshot target for autosaves and the "
                            "graceful-drain save on shutdown")
    serve.add_argument("--autosave-every", type=int, default=0, metavar="N",
                       help="with --snapshot-path: snapshot every N "
                            "admissions while serving")
    serve.add_argument("--drain-timeout", type=float, default=30.0,
                       metavar="SECONDS",
                       help="how long shutdown waits for in-flight "
                            "requests before abandoning them")
    serve.set_defaults(func=_cmd_serve)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _FileFlagError as exc:
        print(exc, file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
