#!/usr/bin/env python3
"""Benchmark the batch exact-test kernels on repeated and unique keys.

The kernels build one null law per distinct conditioning key (the total
for the binomial and negative-binomial tests, the margins for the
hypergeometric test), all laws of one width as one 2-D block, and
return each feature's p-value with a slice of its key's support, which
is stored once; ``Study.from_distinct`` then merges equal supports and
lays them out by length. This script times both steps on two kinds of batch:

* ``repeated``: simulation-scale count data, where most features share
  their key with others, so most of the work is shared;
* ``unique``: every feature has its own key, so nothing is shared and
  the kernel builds one law per feature.

It prints the best wall time of the kernel and of the study built from
its output, the distinct keys and supports and the kernel time per
feature. Unique-key batches of the binomial and negative-binomial tests
need distinct totals, so each law grows with the batch; they are capped
at ``UNIQUE_TOTALS`` features to keep them comparable.

A last case times the two ways ``simulate`` can test its replications,
on negative-binomial draws the size of the simulate-ent benchmark
workload (``POOLED_REPS`` studies of ``POOLED_M`` features): one kernel
call and one study per replication, against one kernel call on the
pooled counts plus one ``Study.from_distinct`` slice per replication.

Run with ``python3 benchmarks/bench_kernels.py`` (options: ``--m`` for
the batch size, ``--repeat`` for timing repetitions, ``--seed``).
"""

from __future__ import annotations

import argparse
import time

import numpy as np

from discretefdr import Study, _kernels

UNIQUE_TOTALS = 2000

#: Studies and features per study of the pooled-simulate case.
POOLED_REPS = 50
POOLED_M = 250


def _time(fn, *args, repeat: int):
    """Best wall time of ``fn(*args)`` over ``repeat`` calls, and its result."""
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        out = fn(*args)
        best = min(best, time.perf_counter() - start)
    return best, out


def _repeated(m: int, rng: np.random.Generator) -> dict:
    """Simulation-scale count data for the three kernels."""
    # two-Poisson pairs: moderate means, totals mostly below ~60
    theta = 7.0 * (1.0 + rng.pareto(7.0, size=m))
    bin_x1 = rng.poisson(theta)
    bin_x2 = rng.poisson(theta * rng.uniform(1.0, 3.0, size=m))
    # two-binomial pairs with their per-group trial counts
    trials = rng.negative_binomial(3, 3.0 / 11.0, size=m) + 2
    p1 = rng.uniform(0.08, 0.65, size=m)
    fet_x1 = rng.binomial(trials, p1)
    fet_x2 = rng.binomial(trials, np.minimum(1.0, p1 * 1.5))
    # two negative-binomial group sums (3 samples per group)
    mu = rng.uniform(0.5, 8.0, size=m)
    shape_total = 3.0 / 1.451
    ent_s1 = rng.negative_binomial(
        shape_total, shape_total / (shape_total + 3.0 * mu)
    )
    ent_s2 = rng.negative_binomial(
        shape_total, shape_total / (shape_total + 3.0 * mu * 2.0)
    )
    return {
        "binomial": (bin_x1, bin_x2),
        "fisher": (fet_x1, trials, fet_x2, trials),
        "negbinom": (ent_s1, ent_s2, shape_total),
    }


def _unique(m: int, rng: np.random.Generator) -> dict:
    """Batches in which no two features share a conditioning key."""
    # margins (r1, r2, s) with r1, r2 in [2, 41]: 70 000+ distinct triples
    r1, r2 = np.meshgrid(np.arange(2, 42), np.arange(2, 42), indexing="ij")
    r1, r2 = r1.ravel(), r2.ravel()
    triples = np.concatenate(
        [
            np.column_stack((np.full(a + b + 1, a), np.full(a + b + 1, b),
                             np.arange(a + b + 1)))
            for a, b in zip(r1, r2)
        ]
    )
    r1, r2, s = triples[rng.choice(triples.shape[0], m, replace=False)].T
    fet_x1 = np.array([rng.integers(max(0, t - b), min(a, t) + 1)
                       for a, b, t in zip(r1, r2, s)])
    # distinct totals 0..n-1, split uniformly
    n = min(m, UNIQUE_TOTALS)
    totals = rng.permutation(n)
    x1 = np.array([rng.integers(0, t + 1) for t in totals])
    return {
        "binomial": (x1, totals - x1),
        "fisher": (fet_x1, r1, s - fet_x1, r2),
        "negbinom": (x1, totals - x1, 3.0 / 1.451),
    }


def _replications(rng: np.random.Generator) -> tuple[list, float]:
    """Group sums of ``POOLED_REPS`` negative-binomial studies drawn as
    simulate-ent draws them (dispersion 1.451, three samples per group,
    a fifth of the features with a Pareto effect), and the shape."""
    sigma = 1.0 / 1.451
    m1 = POOLED_M // 5
    draws = []
    for _ in range(POOLED_REPS):
        mean1 = rng.uniform(0.5, 8.0, POOLED_M)
        mean2 = mean1.copy()
        mean2[-m1:] *= 1.5 * (1.0 + rng.pareto(3.0, m1))
        draws.append(
            tuple(
                rng.negative_binomial(sigma, sigma / (sigma + mean), (3, POOLED_M))
                .sum(axis=0)
                for mean in (mean1, mean2)
            )
        )
    return draws, 3 * sigma


def _per_replication(draws, shape_total):
    return [
        Study.from_distinct(*_kernels.batch_negbinom(s1, s2, shape_total))
        for s1, s2 in draws
    ]


def _pooled(draws, shape_total):
    s1, s2 = (np.concatenate(column) for column in zip(*draws))
    pvalues, flat, start, length = _kernels.batch_negbinom(s1, s2, shape_total)
    m = draws[0][0].shape[0]
    return [
        Study.from_distinct(
            pvalues[a : a + m], flat, start[a : a + m], length[a : a + m]
        )
        for a in range(0, pvalues.shape[0], m)
    ]


def _distinct_keys(name: str, args) -> int:
    if name == "fisher":
        x1, r1, x2, r2 = args
        return np.unique(np.column_stack((r1, r2, x1 + x2)), axis=0).shape[0]
    return np.unique(args[0] + args[1]).shape[0]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--m", type=int, default=20000,
                        help="features per batch (default 20000)")
    parser.add_argument("--repeat", type=int, default=5,
                        help="timing repetitions, best is kept (default 5)")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    rng = np.random.default_rng(args.seed)
    batches = {"repeated": _repeated(args.m, rng), "unique": _unique(args.m, rng)}
    kernels = {
        "binomial": _kernels.batch_binomial,
        "fisher": _kernels.batch_fisher,
        "negbinom": _kernels.batch_negbinom,
    }
    _kernels.warm_up()

    print(f"best of {args.repeat} runs")
    header = (f"{'kernel':10s} {'keys':>9s} {'m':>7s} {'distinct':>9s} "
              f"{'supports':>9s} {'kernel':>10s} {'study':>10s} {'per feature':>12s}")
    print(header)
    print("-" * len(header))
    for name, kernel in kernels.items():
        for kind, data in batches.items():
            batch = data[name]
            m = len(batch[0])
            t, out = _time(kernel, *batch, repeat=args.repeat)
            t_study, study = _time(Study.from_distinct, *out, repeat=args.repeat)
            print(
                f"{name:10s} {kind:>9s} {m:7d} "
                f"{_distinct_keys(name, batch):9d} {study.support_len.shape[0]:9d} "
                f"{t * 1e3:8.1f}ms {t_study * 1e3:8.1f}ms {t / m * 1e6:10.2f}us"
            )

    draws, shape_total = _replications(rng)
    t_alone, alone = _time(_per_replication, draws, shape_total, repeat=args.repeat)
    t_pooled, pooled = _time(_pooled, draws, shape_total, repeat=args.repeat)
    assert all(
        np.array_equal(a.pvalues, b.pvalues)
        and np.array_equal(a.support_flat, b.support_flat)
        and np.array_equal(a.support_index, b.support_index)
        for a, b in zip(alone, pooled)
    )
    print(
        f"\nsimulate-sized negbinom, {POOLED_REPS} studies of {POOLED_M}: "
        f"a kernel call per study {t_alone * 1e3:.1f}ms, "
        f"one pooled call {t_pooled * 1e3:.1f}ms (kernel and studies)"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
