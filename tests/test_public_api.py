"""Public API surface tests: everything documented is importable."""

from __future__ import annotations

import importlib
import inspect
import pkgutil

import pytest

import repro


def test_version():
    assert repro.__version__ == "1.0.0"


def test_all_names_resolve():
    for name in repro.__all__:
        assert hasattr(repro, name), f"__all__ lists missing name {name}"


#: Every module of the package; ``__main__`` modules run their entry
#: point on import (``repro/__main__.py`` calls ``sys.exit``).
MODULES = sorted(
    info.name
    for info in pkgutil.walk_packages(repro.__path__, "repro.")
    if not info.name.endswith(".__main__")
)


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_cleanly(module):
    """The module imports, and its ``__all__`` (when it has one) names
    only bound names, each once, and every public top-level class and
    function the module itself defines."""
    mod = importlib.import_module(module)
    exported = getattr(mod, "__all__", None)
    if exported is None:
        return
    for name in exported:
        assert hasattr(mod, name), f"{module}.__all__ lists {name}"
    duplicated = sorted({name for name in exported
                         if exported.count(name) > 1})
    assert not duplicated, f"{module}.__all__ lists {duplicated} twice"
    missing = sorted(
        name for name, value in vars(mod).items()
        if not name.startswith("_")
        and (inspect.isclass(value) or inspect.isfunction(value))
        and value.__module__ == module
        and name not in exported
    )
    assert not missing, f"{module}.__all__ leaves out {missing}"


def test_readme_quickstart_works():
    """The exact snippet from the package docstring / README."""
    from repro import GCConfig, GraphCacheService, GraphStore, LabeledGraph

    triangle = LabeledGraph.from_edges("CCO", [(0, 1), (1, 2), (0, 2)])
    store = GraphStore.from_graphs([triangle])
    with GraphCacheService(store, GCConfig(model="CON")) as service:
        result = service.execute(LabeledGraph.from_edges("CO", [(0, 1)]))
    assert sorted(result.answer_ids) == [0]
