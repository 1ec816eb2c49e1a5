"""Fixed reference kernels timed between units of work, to take the
host's speed out of the end-to-end times.

On a shared host the same code runs up to 2x slower for stretches of a
minute or more (neighbours on the same cores, caches and memory), and
process CPU time slows with it, so no statistic over one run removes that
drift. A kernel here does the kind of work a workload's body does but uses
nothing from citegrow, so no change to the program can move it. Its time
is taken before the first unit of work and after each one; a unit's time
is scaled by the kernel's nominal time over the mean of the two kernel
times around it, which gives the unit's time on a host that runs the kernel
in its nominal time.

Two kernels, because the two kinds of body slow differently: growth is
numpy passes over arrays as large as the graph inside a Python loop, while
reclassification is one interpreted ``classify`` call per paper. On a
2-vCPU shared VM each body's time followed the kernel of its own kind more
closely than the other.
"""

from __future__ import annotations

from statistics import median
from time import perf_counter, process_time

import numpy as np

REPEATS = 3


def _interpreted() -> int:
    """A dict loop, and formatting and splitting text as dumps, loads and
    ingest do."""
    sums: dict[int, int] = {}
    for i in range(100_000):
        sums[i % 1013] = sums.get(i % 1013, 0) + i
    text = "".join(f"{i:07d}\t{i % 97 + 1960}\n" for i in range(8000))
    years: dict[str, int] = {}
    for line in text.splitlines():
        year = line.split("\t")[1]
        years[year] = years.get(year, 0) + 1
    return len(sums) + len(years)


def array_kernel() -> float:
    """About equal parts of large-array passes, scattered counts, fresh
    allocations and interpreted work, each on fixed inputs."""
    rng = np.random.default_rng(20020628)
    total = 0.0
    # exponential keys over an array larger than the caches
    weights = rng.random(400_000) + 0.5
    for _ in range(2):
        keys = rng.exponential(size=weights.size) / weights
        total += float(np.partition(keys, 5)[5])
        weights = np.exp(-0.001 * weights) + weights
    # scattered counts, as in degree and history tallies
    targets = rng.integers(0, 40_000, size=400_000)
    tally = np.zeros(40_000)
    for _ in range(6):
        np.add.at(tally, targets, 1.0)
        total += float(np.bincount(targets, minlength=40_000)[0])
    # fresh arrays a little larger than the allocator's mmap threshold
    for n in range(160):
        total += float(np.full(200_000 + n, 1.0)[::4096].sum())
    return total + _interpreted()


def interpreter_kernel() -> int:
    return _interpreted() + _interpreted()


# median kernel times on an idle 2-vCPU x86-64 VM; they only set the scale
# of the scaled times, which then read close to that host's seconds
NOMINAL_S = {array_kernel: 0.090, interpreter_kernel: 0.075}


class Reference:
    """Kernel wall and CPU times, one entry per ``tick``."""

    def __init__(self, kernel):
        self.kernel = kernel
        self.nominal_s = NOMINAL_S[kernel]
        kernel()  # warm-up: first-call allocations and imports
        self.wall: list[float] = []
        self.cpu: list[float] = []

    def tick(self) -> None:
        walls, cpus = [], []
        for _ in range(REPEATS):
            t0, c0 = perf_counter(), process_time()
            self.kernel()
            walls.append(perf_counter() - t0)
            cpus.append(process_time() - c0)
        self.wall.append(median(walls))
        self.cpu.append(median(cpus))

    def wall_factor(self, i: int) -> float:
        """Scale for the wall time of the unit between ticks i and i + 1."""
        return 2.0 * self.nominal_s / (self.wall[i] + self.wall[i + 1])

    def cpu_factor(self, i: int) -> float:
        return 2.0 * self.nominal_s / (self.cpu[i] + self.cpu[i + 1])
