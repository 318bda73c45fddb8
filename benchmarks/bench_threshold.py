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
  on the prebuilt process.

It then times the block case of ``simulate``: 50 studies of 250
p-values, drawn the same way, with the thresholds of the three
exceedance procedures (``generalized``, ``storey``, ``storey_variant``
at lambda 0.5) at five levels. One row-wise ``solve_thresholds`` call
per procedure, at all five levels, on the prebuilt ``PValueBlock`` is
timed against one call per (procedure, level) pair and against one
``threshold`` call per study on prebuilt one-study processes; all three
must agree bit for bit.

Run with ``python3 benchmarks/bench_threshold.py`` (options: ``--m``,
``--repeat`` for timing repetitions, ``--seed``).
"""

from __future__ import annotations

import argparse

import numpy as np

import timing
from discretefdr import (
    FdrEstimator,
    Study,
    bh_procedure,
    build_rejection_process,
    storey_pi0,
    threshold,
)
from discretefdr.fdr import PValueBlock, solve_thresholds

ALPHA = 0.05
BLOCK_ROWS = 50
BLOCK_M = 250
BLOCK_ALPHAS = (0.01, 0.025, 0.05, 0.1, 0.2)
BLOCK_KINDS = ("generalized", "storey", "storey_variant")


def _pvalues(rng: np.random.Generator, size) -> np.ndarray:
    """Uniform p-values, 10% of each row moved near 0."""
    pvalues = rng.uniform(0.0, 1.0, size=size)
    near_zero = pvalues.shape[-1] // 10
    pvalues[..., :near_zero] = rng.uniform(1e-7, 1e-4, size=pvalues[..., :near_zero].shape)
    return np.maximum(pvalues, np.nextafter(0.0, 1.0))


def _block_case(rng: np.random.Generator, repeat: int) -> None:
    """Time the row-wise thresholds of a block against one call per study."""
    rows, m = BLOCK_ROWS, BLOCK_M
    pvalues = _pvalues(rng, (rows, m))
    empty = [np.empty(0)] * m
    estimators = {
        kind: [
            FdrEstimator(kind, storey_pi0(Study(row, empty), 0.5), lam=0.5)
            for row in pvalues
        ]
        for kind in BLOCK_KINDS
    }
    procs = [build_rejection_process(row) for row in pvalues]
    block = PValueBlock(pvalues)

    mults = {
        kind: np.array([e.multiplier(m) for e in ests]) for kind, ests in estimators.items()
    }

    def all_levels():
        return [
            solve_thresholds(block, kind, mult, 0.5, BLOCK_ALPHAS)
            for kind, mult in mults.items()
        ]

    def per_level():
        return [
            solve_thresholds(block, kind, mult, 0.5, alpha)
            for kind, mult in mults.items()
            for alpha in BLOCK_ALPHAS
        ]

    def one_row_calls():
        return [
            [threshold(e, proc, alpha) for e, proc in zip(ests, procs)]
            for ests in estimators.values()
            for alpha in BLOCK_ALPHAS
        ]

    t_block, solved = timing.best_of(all_levels, repeat=repeat)
    t_levels, by_level = timing.best_of(per_level, repeat=repeat)
    t_rows, results = timing.best_of(one_row_calls, repeat=repeat)
    pairs = len(by_level)
    stacked = [np.concatenate(out) for out in zip(*solved)]
    assert all(
        np.array_equal(a, np.stack(b)) for a, b in zip(stacked, zip(*by_level))
    )
    for a, per_row in enumerate(results):
        t, value, count = (out[a] for out in stacked)
        assert t.tolist() == [res.t_alpha for res in per_row]
        assert value.tolist() == [res.fdr_at_t for res in per_row]
        assert count.tolist() == [res.rejections for res in per_row]
    print(f"\nblock: {rows} studies x {m} p-values, {pairs} (procedure, level) "
          f"pairs; best of {repeat} runs")
    print(f"{'solve_thresholds (block)':26s} {t_block * 1e3:9.1f}ms  "
          f"{len(solved)} calls, all levels at once")
    print(f"{'solve_thresholds (level)':26s} {t_levels * 1e3:9.1f}ms  "
          f"{pairs} calls, {t_levels / t_block:.1f}x the block")
    print(f"{'threshold (per study)':26s} {t_rows * 1e3:9.1f}ms  "
          f"{pairs * rows} calls, {t_rows / t_block:.1f}x the block")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--m", type=int, default=1_000_000,
                        help="number of p-values (default 1000000)")
    parser.add_argument("--repeat", type=int, default=5,
                        help="timing repetitions, best is kept (default 5)")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    rng = np.random.default_rng(args.seed)
    pvalues = _pvalues(rng, args.m)
    empty = np.empty(0)
    pi0 = storey_pi0(Study(pvalues, [empty] * args.m), 0.5)
    est = FdrEstimator("storey", pi0, lam=0.5)

    t_build, proc = timing.best_of(build_rejection_process, pvalues, repeat=args.repeat)
    t_thr, res = timing.best_of(threshold, est, proc, ALPHA, repeat=args.repeat)
    t_bh, bh = timing.best_of(bh_procedure, pvalues, ALPHA, repeat=args.repeat)
    t_bh_proc, _ = timing.best_of(bh_procedure, proc, ALPHA, repeat=args.repeat)

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
    _block_case(rng, args.repeat)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
