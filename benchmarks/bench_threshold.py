#!/usr/bin/env python3
"""Benchmark the exact FDR threshold and the linear step-up procedure.

The input is ``m`` uniform p-values of which 10% are moved near 0
(uniform on [1e-7, 1e-4]), so nearly every p-value is distinct and the
threshold has about ``m`` rejection-count intervals to consider. The
threshold is that of the exceedance (``storey``) FDR estimator at
lambda 0.5, at level 0.05. The script prints the best wall time of:

* ``build_rejection_process``: sorting and deduplicating the p-values;
* ``threshold`` on the prebuilt process;
* ``bh_procedure`` on the p-values (which builds a process first) and
  on the prebuilt process, as ``sim.evaluate_study`` calls it.

Run with ``python3 benchmarks/bench_threshold.py`` (options: ``--m``,
``--repeat`` for timing repetitions, ``--seed``).
"""

from __future__ import annotations

import argparse
import time

import numpy as np

from discretefdr import (
    FdrEstimator,
    Study,
    bh_procedure,
    build_rejection_process,
    storey_pi0,
    threshold,
)

ALPHA = 0.05


def _time(fn, *args, repeat: int) -> tuple[float, object]:
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        out = fn(*args)
        best = min(best, time.perf_counter() - start)
    return best, out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--m", type=int, default=1_000_000,
                        help="number of p-values (default 1000000)")
    parser.add_argument("--repeat", type=int, default=5,
                        help="timing repetitions, best is kept (default 5)")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    rng = np.random.default_rng(args.seed)
    pvalues = rng.uniform(0.0, 1.0, size=args.m)
    near_zero = args.m // 10
    pvalues[:near_zero] = rng.uniform(1e-7, 1e-4, size=near_zero)
    pvalues = np.maximum(pvalues, np.nextafter(0.0, 1.0))
    empty = np.empty(0)
    pi0 = storey_pi0(Study(pvalues, [empty] * args.m), 0.5)
    est = FdrEstimator("storey", pi0, lam=0.5)

    t_build, proc = _time(build_rejection_process, pvalues, repeat=args.repeat)
    t_thr, res = _time(threshold, est, proc, ALPHA, repeat=args.repeat)
    t_bh, bh = _time(bh_procedure, pvalues, ALPHA, repeat=args.repeat)
    t_bh_proc, _ = _time(bh_procedure, proc, ALPHA, repeat=args.repeat)

    print(f"m = {args.m}, {proc.distinct.shape[0]} distinct p-values, "
          f"storey pi0 {pi0.raw:.4f}, alpha {ALPHA}; "
          f"best of {args.repeat} runs")
    rows = (
        ("build_rejection_process", t_build, ""),
        ("threshold (storey)", t_thr, f"{res.rejections} rejections"),
        ("bh_procedure (p-values)", t_bh, f"{bh.rejections} rejections"),
        ("bh_procedure (process)", t_bh_proc, ""),
    )
    for name, t, note in rows:
        print(f"{name:26s} {t * 1e3:9.1f}ms  {note}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
