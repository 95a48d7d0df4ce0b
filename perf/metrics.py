"""From passes and spans to the numbers ``BENCHMARK.json`` names.

The estimator: every workload replays one deterministic stream R times
from a state rebuilt from the seed; every timing is first brought to
reference speed (:mod:`reference` — the host's speed moves in phases
longer than a run) and then reduced **per stream position by the minimum
over the R passes** before any sum or percentile is taken.  What is left
after the speed correction only ever adds time, while the stream, the
cache state and the allocation pattern repeat exactly, so the minimum
keeps a query that is slow by nature and drops what the neighbours
added.
"""

from __future__ import annotations

import statistics

from repro.util.stats import percentile

from passes import GUARDED, PassResult
from workloads import Spec


def denoised(passes: list[PassResult], attr: str) -> list[float]:
    """Per stream position, the fastest of the passes."""
    return [min(column) for column in zip(*(getattr(p, attr) for p in passes))]


def noise_ratio(passes: list[PassResult]) -> float:
    """Median whole-pass time over the denoised pass time (both at
    reference speed): what the per-position minimum removed."""
    return (statistics.median(sum(p.t_position) for p in passes)
            / sum(denoised(passes, "t_position")))


def host_slowdown(passes: list[PassResult]) -> float:
    """Median reference-kernel time over its nominal: 1.0 on a quiet
    reference host, ~1.5 while a neighbour shares the core."""
    return statistics.median(1.0 / f for p in passes for f in p.speed)


def end_to_end(spec: Spec, passes: list[PassResult],
               peak_rss_kb: int) -> dict[str, float]:
    t_query = denoised(passes, "t_query")
    return {
        "ops_per_s": spec.measured / sum(denoised(passes, "t_position")),
        "query_ms_p50": percentile(t_query, 50) * 1000.0,
        "query_ms_p95": percentile(t_query, 95) * 1000.0,
        "peak_rss_mb": peak_rss_kb / 1024.0,
        "setup_s": min(p.setup_s for p in passes),
    }


def check_deterministic(first: PassResult, other: PassResult,
                        what: str) -> None:
    """A pass that did different work than pass 0 would make the
    per-position minimum mix two different programs: stop."""
    differing = {name: (first.counters.get(name), other.counters.get(name))
                 for name in GUARDED
                 if first.counters.get(name) != other.counters.get(name)}
    if differing:
        raise SystemExit(
            f"gcbench: {what} diverged from pass 0 — counters "
            f"(pass 0, this pass): {differing}. The stream is supposed to "
            f"be deterministic; the per-position minimum is meaningless "
            f"otherwise.")


def per_layer(spec: Spec, passes: list[PassResult], traced: PassResult,
              totals: dict[str, dict[str, float]],
              replay: PassResult | None, persist: dict[str, float],
              ) -> dict[str, float]:
    """Per-layer metrics from the one traced pass; ``totals`` are its
    span totals at reference speed.

    Single passes are compared with single passes: the traced pass with
    the median untraced one for the tracing overhead, and — ``http_hit``
    only — the median HTTP pass with the untraced socket-free ``replay``
    for the socket's share.
    """
    n = spec.measured
    typical_pass = statistics.median(sum(p.t_position) for p in passes)
    untraced = sum(replay.t_position) if replay is not None else typical_pass

    def span(name: str, key: str) -> float:
        return totals.get(name, {}).get(key, 0.0)

    def ms_per_op(name: str, key: str = "self") -> float:
        return span(name, key) * 1000.0 / n

    def share(name: str) -> float:
        calls = span(name, "calls")
        return span(name, "count") / calls if calls else 0.0

    delta = {name: traced.counters[name] - traced.warm_counters[name]
             for name in GUARDED}
    candidates = delta["tests_saved"] + delta["method_tests"]
    traced_wall = sum(traced.t_position)
    roots = sum(row["self"] for row in totals.values())
    return {
        "matching.method_tests_per_op": span("matching.method_test", "calls") / n,
        "matching.method_test_ms_per_op": ms_per_op("matching.method_test"),
        "matching.method_test_pass_share": share("matching.method_test"),
        "matching.internal_tests_per_op": span("matching.internal_test", "calls") / n,
        "matching.internal_test_ms_per_op": ms_per_op("matching.internal_test"),
        "matching.internal_test_pass_share": share("matching.internal_test"),
        "runtime.verify_self_ms_per_op": ms_per_op("runtime.verify"),
        "runtime.discover_self_ms_per_op": ms_per_op("runtime.discover"),
        "runtime.prune_ms_per_op": ms_per_op("runtime.prune"),
        "cache.index_lookup_ms_per_op": ms_per_op("cache.index_lookup"),
        "cache.index_candidates_per_op": span("cache.index_lookup", "count") / n,
        "cache.admit_ms_per_op": (ms_per_op("cache.admit")
                                  + ms_per_op("cache.credit")),
        "cache.consistency_ms_per_op": ms_per_op("cache.consistency"),
        "cache.consistency_passes": span("cache.consistency", "calls"),
        "cache.admissions": delta["admissions"],
        "cache.evictions": delta["evictions"],
        "cache.exact_hit_share": delta["exact_hit_queries"] / n,
        "cache.zero_test_share": delta["zero_test_queries"] / n,
        "cache.tests_saved_ratio": (delta["tests_saved"] / candidates
                                    if candidates else 0.0),
        "dataset.apply_ms_per_op": ms_per_op("dataset.apply"),
        "dataset.mutations": traced.mutations,
        "dataset.ids_bitset_ms_per_op": ms_per_op("dataset.ids_bitset"),
        "graphs.features_ms_per_op": ms_per_op("graphs.features"),
        "api.execute_self_ms_per_op": ms_per_op("api.execute"),
        "serve.handle_self_ms_per_op": ms_per_op("serve.handle"),
        "serve.wire_decode_ms_per_op": ms_per_op("serve.wire_decode"),
        "serve.wire_encode_ms_per_op": ms_per_op("serve.wire_encode"),
        "serve.socket_ms_per_op": (typical_pass - untraced) * 1000.0 / n,
        "serve.request_bytes_per_op": passes[0].request_bytes / n,
        "serve.response_bytes_per_op": passes[0].response_bytes / n,
        "serve.http_errors": sum(answer is None for p in passes
                                 for answer in p.answers),
        "persist.snapshot_save_ms": persist["save_ms"],
        "persist.snapshot_load_ms": persist["load_ms"],
        "persist.snapshot_bytes": persist["bytes"],
        "bench.noise_ratio": noise_ratio(passes),
        "bench.host_slowdown": host_slowdown(passes),
        "bench.trace_overhead_ratio": traced_wall / untraced,
        "bench.trace_coverage": roots / traced_wall,
        "bench.samples": n,
        "bench.passes": len(passes),
    }


# ----------------------------------------------------------------------
# Trace cross-checks
# ----------------------------------------------------------------------
def check_trace(spec: Spec, traced: PassResult,
                totals: dict[str, dict[str, float]],
                layer: dict[str, float], shares: bool) -> list[str]:
    """What the traced pass must show, as a list of violations
    (``totals`` in raw wall seconds, as the program's own stopwatches).

    * The wrappers agree with the stage seconds the program itself
      reports (``QueryMetrics``, or its ``query_ms``/``overhead_ms``
      over the wire): a stage's stopwatch encloses the wrapped calls
      and at most the pipeline's own untraced lines, so it must read
      between the spans' total and that plus ``api.execute``'s self
      time, 10% either way — a wrapper on the wrong function fails.
    * The workload stresses the layers it was chosen for (``shares``;
      off at toy size, where nothing dominates).
    """
    def total(*names: str) -> float:
        return sum(totals.get(name, {}).get("total", 0.0) for name in names)

    spans = {
        "discovery": total("graphs.features", "runtime.discover"),
        "prune": total("runtime.prune"),
        "verify": total("runtime.verify"),
        "admission": total("cache.credit", "cache.admit"),
        "consistency": total("cache.consistency"),
    }
    spans["query"] = spans["discovery"] + spans["prune"] + spans["verify"]
    spans["overhead"] = spans["admission"] + spans["consistency"]
    residual = totals.get("api.execute", {}).get("self", 0.0)
    problems = []
    for stage, reported in traced.reported.items():
        low, high = 0.9 * spans[stage], 1.1 * (spans[stage] + residual)
        if stage != "consistency" and not low <= reported <= high:
            problems.append(
                f"{stage}: program reports {reported:.4f} s, spans allow "
                f"{low:.4f}..{high:.4f} s")
    method_tests = (traced.counters["method_tests"]
                    - traced.warm_counters["method_tests"])
    if totals.get("matching.method_test", {}).get("calls", 0) != method_tests:
        problems.append("method-test spans differ from the program's "
                        f"method_tests counter ({method_tests})")
    if layer["bench.trace_coverage"] < 0.97:
        problems.append(f"trace_coverage {layer['bench.trace_coverage']:.3f} "
                        f"< 0.97: a layer is missing from the trace")
    if not shares:
        return problems

    everything = sum(row["self"] for row in totals.values())

    def self_share(*names: str) -> float:
        return sum(totals.get(name, {}).get("self", 0.0)
                   for name in names) / everything

    mverify = self_share("runtime.verify", "matching.method_test")
    discovery = self_share("runtime.discover", "cache.index_lookup",
                           "matching.internal_test")
    if spec.name == "verify_bound" and mverify < 0.65:
        problems.append(f"Mverify share {mverify:.2f} < 0.65")
    if spec.name in ("hit_bound", "http_hit"):
        if discovery < 0.60:
            problems.append(f"discovery share {discovery:.2f} < 0.60")
        if mverify > 0.25:
            problems.append(f"Mverify share {mverify:.2f} > 0.25")
    if spec.churn and not (layer["cache.consistency_passes"] > 0
                           and layer["dataset.mutations"] > 0):
        problems.append("no consistency pass or no mutation in the "
                        "measured stream")
    if spec.http and not layer["serve.handle_self_ms_per_op"] > 0:
        problems.append("serve layer shows no time")
    return problems
