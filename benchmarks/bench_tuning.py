#!/usr/bin/env python3
"""Benchmark bootstrap tuning against the per-point reference.

The input is drawn like the tune-ent benchmark workload: ``m`` features
of three negative-binomial samples per group (size ``ENT_SIZE``), a fifth
of them with a raised group-2 mean, tested by the group-sum test under
the tail-doubling convention. The grid is ``tune``'s default: 20
lambdas times 5 epsilons, with ``B`` resamples.

For each ``m`` in ``SIZES`` the script prints the best wall time over
``REPEAT`` runs, and the tracemalloc peak of one run, of:

* ``bootstrap_tune``, which turns the shared B x m resample index into
  multiplicity counts and reduces them against each distinct lambda's
  columns;
* ``oracles.bootstrap_shared_gather`` (from ``tests/oracles.py``), which
  draws the same index and gathers and sums each grid point's terms
  over it.

Run with ``python3 benchmarks/bench_tuning.py``.
"""

from __future__ import annotations

import os
import sys
import time
import tracemalloc

import numpy as np

from discretefdr import Study, TuningGrid, _kernels, bootstrap_tune

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(HERE, "..", "tests"))
import oracles  # noqa: E402

SIZES = (600, 6_000, 60_000)
B = 100
REPEAT = 3
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


def _best(fn, *args) -> float:
    best = float("inf")
    for _ in range(REPEAT):
        start = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - start)
    return best


def _peak_mb(fn, *args) -> float:
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def main() -> int:
    rng = np.random.default_rng(SEED)
    points = [(lam, eps) for lam in LAMBDAS for eps in EPSILONS]
    grid = TuningGrid(points, B=B, seed=SEED)
    print(f"{len(grid.points)} grid points, B = {B}; best of {REPEAT} runs, "
          "tracemalloc peak of one")
    print(f"{'m':>7s} {'bootstrap_tune':>15s} {'peak':>9s} "
          f"{'per-point oracle':>17s} {'peak':>9s}")
    for m in SIZES:
        study = _study(m, rng)
        cases = (bootstrap_tune, oracles.bootstrap_shared_gather)
        times = [_best(fn, study, grid) for fn in cases]
        peaks = [_peak_mb(fn, study, grid) for fn in cases]
        print(f"{m:>7d} {times[0] * 1e3:13.1f}ms {peaks[0]:7.1f}MB "
              f"{times[1] * 1e3:15.1f}ms {peaks[1]:7.1f}MB")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
