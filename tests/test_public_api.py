"""Public API surface tests: everything documented is importable."""

from __future__ import annotations

import importlib

import pytest

import repro


def test_version():
    assert repro.__version__ == "1.0.0"


def test_all_names_resolve():
    for name in repro.__all__:
        assert hasattr(repro, name), f"__all__ lists missing name {name}"


@pytest.mark.parametrize("module", [
    "repro.api", "repro.api.config", "repro.api.events",
    "repro.api.plan", "repro.api.service",
    "repro.util", "repro.util.bitset", "repro.util.zipf",
    "repro.util.stats",
    "repro.graphs", "repro.graphs.graph", "repro.graphs.features",
    "repro.graphs.canonical", "repro.graphs.generators", "repro.graphs.io",
    "repro.matching", "repro.matching.base", "repro.matching.vf2",
    "repro.matching.vf2plus", "repro.matching.graphql",
    "repro.dataset", "repro.dataset.store", "repro.dataset.log",
    "repro.dataset.log_analyzer", "repro.dataset.change_plan",
    "repro.cache", "repro.cache.entry", "repro.cache.manager",
    "repro.cache.models", "repro.cache.query_index",
    "repro.cache.replacement", "repro.cache.statistics",
    "repro.cache.validator", "repro.cache.window",
    "repro.runtime", "repro.runtime.method_m",
    "repro.runtime.monitor", "repro.runtime.processors",
    "repro.runtime.pruner",
    "repro.workloads", "repro.workloads.base", "repro.workloads.typea",
    "repro.workloads.typeb",
    "repro.datasets", "repro.datasets.aids",
    "repro.bench", "repro.bench.harness", "repro.bench.experiments",
    "repro.bench.reporting",
])
def test_module_imports_cleanly(module):
    mod = importlib.import_module(module)
    for name in getattr(mod, "__all__", []):
        assert hasattr(mod, name), f"{module}.__all__ lists {name}"


def test_readme_quickstart_works():
    """The exact snippet from the package docstring / README."""
    from repro import GCConfig, GraphCacheService, GraphStore, LabeledGraph

    triangle = LabeledGraph.from_edges("CCO", [(0, 1), (1, 2), (0, 2)])
    store = GraphStore.from_graphs([triangle])
    with GraphCacheService(store, GCConfig(model="CON")) as service:
        result = service.execute(LabeledGraph.from_edges("CO", [(0, 1)]))
    assert sorted(result.answer_ids) == [0]
