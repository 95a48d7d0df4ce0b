"""The reference kernel: how fast is this host *right now*?

The 2-core reference host runs identical pure-Python work at speeds that
differ by up to 1.5x, in phases of a few seconds to half a minute (a
busy neighbour on the physical core; CPU time slows exactly as wall time
does, so it is not descheduling).  A minimum over passes cannot remove a
phase that outlasts the run.  So the benchmark runs this fixed ~0.2 ms
kernel before every stream position and reports every time **at
reference speed**:

    reported = wall * NOMINAL / (median kernel time around that moment)

On a quiet reference host the factor is 1 and the unit is a plain
millisecond.  On any other machine or Python version it is not: every
time is rescaled by how fast that machine runs the kernel, so results
compare only within one kind of host.  Each result therefore records
``reference_us``, the Python version, ``nproc`` and
``bench.host_slowdown`` (median kernel time / NOMINAL; multiply a
reported time by it to get back wall time), and ``perf/compare.py``
refuses files that disagree on them.  Normalising by the run's own
fastest kernel level instead would keep the unit honest everywhere but
leaves a run that falls wholly inside a slow phase 1.5x off, which on
the reference host was 10 of 80 runs in one session and none in the next.

The kernel walks sets and a dict the way the matchers walk adjacency —
an arithmetic-only loop slowed 1.47x where the workload slowed 1.6x and
left a third of the noise in; this one tracked it to within 1% (numbers
in ``perf/README.md``).
"""

from __future__ import annotations

import random
import statistics
import time

#: The kernel's time on the quiet reference host (CPython 3.11), seconds.
NOMINAL = 220e-6
#: Kernel samples on each side of a stream position that set its factor.
WINDOW = 4

_rng = random.Random(5)
_ADJACENCY = [set(_rng.sample(range(64), 6)) for _ in range(64)]
_IMAGE = {i: (i * 37) % 64 for i in range(64)}


def sample() -> float:
    """Run the kernel once; returns its wall time in seconds."""
    started = time.perf_counter()
    hits = 0
    adjacency, image = _ADJACENCY, _IMAGE
    for _ in range(8):
        for u in range(64):
            for v in adjacency[u]:
                if image[v] in adjacency[image[u]]:
                    hits += 1
    return time.perf_counter() - started


def factor(samples: list[float]) -> float:
    """The multiplier that turns wall time measured next to ``samples``
    into time at reference speed."""
    return NOMINAL / statistics.median(samples)


def factors(samples: list[float]) -> list[float]:
    """Per stream position ``i`` of a pass with kernel samples taken
    before every position and once after the last (``len == N + 1``):
    the factor from the :data:`WINDOW` samples before and after it."""
    return [factor(samples[max(0, i - WINDOW + 1):i + WINDOW + 1])
            for i in range(len(samples) - 1)]

