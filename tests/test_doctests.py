"""Run the doctests embedded in module docstrings.

Doc examples rot silently unless executed; every public-API snippet in
a docstring is executed here.
"""

from __future__ import annotations

import doctest

import pytest

import repro.api.config
import repro.api.service
import repro.dataset.store
import repro.graphs.graph
import repro.util.bits
import repro.util.zipf
import tests.enumeration

MODULES = [
    repro.util.bits,
    repro.util.zipf,
    repro.graphs.graph,
    repro.dataset.store,
    repro.api.config,
    repro.api.service,
    tests.enumeration,
]


@pytest.mark.parametrize("module", MODULES,
                         ids=lambda m: m.__name__)
def test_doctests(module):
    result = doctest.testmod(module, verbose=False)
    assert result.failed == 0, (
        f"{result.failed} doctest failure(s) in {module.__name__}"
    )
    assert result.attempted > 0, (
        f"{module.__name__} has no doctests but is listed here"
    )
