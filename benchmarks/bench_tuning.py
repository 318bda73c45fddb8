#!/usr/bin/env python3
"""Benchmark bootstrap tuning against the per-point reference.

The input is drawn like the tune-ent benchmark workload: ``m`` features
of three negative-binomial samples per group (size ``ENT_SIZE``), a fifth
of them with a raised group-2 mean, tested by the group-sum test under
the tail-doubling convention. The grid is ``tune``'s default: 20
lambdas times 5 epsilons, with ``B`` resamples.

For each ``m`` in ``SIZES`` the script calls the two below in turn,
``ROUNDS`` rounds at tune-ent's 600 features and proportionally fewer
(at least ``MIN_ROUNDS``) at more, and prints the median [quartiles] of
each one's wall time next to the tracemalloc peak of one call, in MB
and in bytes per feature:

* ``bootstrap_tune``, which takes every distinct lambda's support
  floors in one call, draws the shared resample index a block of
  resamples at a time, turns each block into multiplicity counts and
  reduces them against each distinct lambda's two rows of parts;
* ``oracles.bootstrap_shared_gather`` (from ``tests/oracles.py``), which
  draws the same index whole and gathers and sums each grid point's
  terms over it.

At the sizes in ``ALONE_SIZES`` the oracle is too slow to run, and
``bootstrap_tune`` runs alone, ``MIN_ROUNDS`` rounds.

Run with ``python3 benchmarks/bench_tuning.py``.
"""

from __future__ import annotations

import os
import statistics
import sys
import time
import tracemalloc

import numpy as np

from discretefdr import Study, TuningGrid, _kernels, bootstrap_tune

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(HERE, "..", "tests"))
import oracles  # noqa: E402

SIZES = (600, 6_000, 60_000, 200_000)
#: Sizes at which only ``bootstrap_tune`` runs.
ALONE_SIZES = (200_000,)
B = 100
#: Rounds at 600 features; a size of m takes ``ROUNDS * 600 // m`` of
#: them, and at least ``MIN_ROUNDS``.
ROUNDS = 200
MIN_ROUNDS = 5
SEED = 0
ENT_SIZE = 0.689
SAMPLES = 3
LAMBDAS = [k * 0.05 for k in range(20)]
EPSILONS = [0.0, 0.25, 0.5, 0.75, 1.0]


def _study(m: int, rng: np.random.Generator) -> Study:
    mean1 = rng.uniform(0.5, 8.0, m)
    mean2 = mean1.copy()
    effect = rng.uniform(size=m) < 0.2
    mean2[effect] *= rng.uniform(1.5, 6.0, int(effect.sum()))
    sums = [
        rng.negative_binomial(
            ENT_SIZE, ENT_SIZE / (ENT_SIZE + mean), (SAMPLES, m)
        ).sum(axis=0)
        for mean in (mean1, mean2)
    ]
    out = _kernels.batch_negbinom(*sums, SAMPLES * ENT_SIZE, convention="doubling")
    return Study.from_distinct(*out)


def _alternating(fns, args, rounds: int) -> list[list[float]]:
    """The wall times of each of ``fns`` on ``args`` over ``rounds``
    rounds, each round calling every one of them in turn."""
    walls = [[] for _ in fns]
    for _ in range(rounds):
        for wall, fn in zip(walls, fns):
            start = time.perf_counter()
            fn(*args)
            wall.append(time.perf_counter() - start)
    return walls


def _spread_ms(values: list[float]) -> str:
    """Median [quartiles] of ``values``, in milliseconds."""
    low, median, high = statistics.quantiles([v * 1e3 for v in values], n=4)
    return f"{median:.2f} [{low:.2f}, {high:.2f}]"


def _peak(fn, study: Study, grid: TuningGrid) -> str:
    """The tracemalloc peak of one call, in MB and bytes per feature."""
    tracemalloc.start()
    try:
        fn(study, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return f"{peak / 2**20:.1f}MB {peak / study.m:.0f}B/f"


def main() -> int:
    rng = np.random.default_rng(SEED)
    points = [(lam, eps) for lam in LAMBDAS for eps in EPSILONS]
    grid = TuningGrid(points, B=B, seed=SEED)
    print(f"{len(grid.points)} grid points, B = {B}; median [quartiles] ms of "
          "the rounds, called in turn; tracemalloc peak of one call")
    print(f"{'m':>7s} {'rounds':>6s} {'bootstrap_tune':>28s} {'peak':>16s} "
          f"{'per-point oracle':>28s} {'peak':>16s}")
    for m in SIZES:
        study = _study(m, rng)
        cases = (bootstrap_tune,)
        if m not in ALONE_SIZES:
            cases += (oracles.bootstrap_shared_gather,)
        rounds = max(MIN_ROUNDS, ROUNDS * 600 // m)
        walls = _alternating(cases, (study, grid), rounds)
        cells = [f"{_spread_ms(w):>28s} {_peak(fn, study, grid):>16s}"
                 for w, fn in zip(walls, cases)]
        print(f"{m:>7d} {rounds:6d}", *cells)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
