"""Datasets for GC+ experiments.

The paper evaluates on the NCI AIDS antiviral screen dataset (40,000
molecule graphs).  The dataset itself is not redistributable here, so
:mod:`repro.datasets.aids` provides a seeded synthetic generator matched
to the published statistics (and a loader for the real file, should a
user supply one) — that module's docstring says which statistics the
cache's behaviour depends on and how the generator preserves them.
"""

from repro.datasets.aids import (
    AIDS_LABEL_WEIGHTS,
    AidsLikeConfig,
    generate_aids_like,
    load_aids_file,
)

__all__ = [
    "generate_aids_like",
    "AidsLikeConfig",
    "AIDS_LABEL_WEIGHTS",
    "load_aids_file",
]
