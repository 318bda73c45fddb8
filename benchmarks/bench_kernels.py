#!/usr/bin/env python3
"""Benchmark the batch exact-test kernels on repeated and unique keys.

The kernels build one null law per distinct conditioning key (the total
for the binomial and negative-binomial tests, the margins for the
hypergeometric test), the laws in ascending length as 2-D blocks (each
as wide as its longest law, which is at most twice its shortest), and
return each feature's p-value with a slice of its key's support, which
is stored once; ``Study.from_distinct`` then stores each slice once,
laid out by length. This script times both steps on three kinds of
batch:

* ``repeated``: simulation-scale count data, where most features share
  their key with others, so most of the work is shared;
* ``unique``: every feature has its own key, so nothing is shared and
  the kernel builds one law per feature;
* ``tuned`` (negative binomial only): ``TUNED_M`` features with group
  sums of three samples, means and effects as the tune-ent benchmark
  workload draws them, so about 100 distinct totals up to about 270.

Every batch runs under both two-sided conventions, minimum likelihood
and tail doubling, since each builds its tables along its own path. It
prints the best wall time of the kernel and of the study built from its
output, the distinct keys, the laws built (each one support slice, which
the study stores as one support), the blocks built, the share of the
blocks' entries that are outcomes of a law rather than padding, and the
kernel time per feature. The
laws built equal the distinct keys, except for ``fisher``: there the
eight orientations of a table share one law under either convention:
the table and its mirror, margins ``(r1, r2, s)`` and ``(r2, r1, s)``,
their complements, successes and failures relabelled (``s`` taken to
``r1 + r2 - s``), and the transposes of all four, rows and columns
swapped (``(r1, r2, s)`` taken to ``(s, r1 + r2 - s, r1)``). So its
distinct (ordered) keys are printed beside the orbits of the margins
under the whole symmetry group, which the laws built must equal.
Unique-key batches of the binomial and negative-binomial tests need
distinct totals, so each law grows with the batch; they are capped at
``UNIQUE_TOTALS`` features to keep them comparable.

A last case times the two ways ``simulate`` can test its replications,
on negative-binomial draws the size of the simulate-ent benchmark
workload (``POOLED_REPS`` studies of ``POOLED_M`` features): one kernel
call and one study per replication, against one kernel call on the
pooled counts plus one ``Study.from_distinct`` slice per replication.

The grouping case times the two ways ``_kernels._batch`` can group
``m`` keys: ``_kernels.unique_below``, a running count of marks in a
bool array of the key range, against ``np.unique``, a sort, for uniform
keys over ranges of ``GROUPING_RANGES`` times ``m``, at the batch size
and at ``TUNED_M``, each the best of ``GROUPING_ROUNDS`` calls.
``_batch`` takes the first below ``_kernels._dense_keys(m)`` keys. One
more batch is shaped like the support starts that ``Study`` groups on
the analyze-fet input: ``STARTS_LAWS`` laws per feature, of 2 to 24
points laid end to end (about 8 ``m`` places), each the support of at
least one feature.

The large-total case builds, at each total of ``LARGE_TOTALS`` up to
the kernels' limit ``MAX_TOTAL``, the log-factorial table, the
negative-binomial coefficient below shape 13, and one law each of the
binomial test, the hypergeometric test (all three margins at the total)
and the negative-binomial test at each shape of ``LARGE_SHAPES``. It
prints each one's median wall time over ``--repeat`` interleaved rounds
(each round builds every one in turn) and its tracemalloc peak, taken
in a call of its own. There the cost grows with the total, not with
the number of features: the law, its table, and its log-factorial
values (one ``math.lgamma`` call each) all have ``total + 1`` entries.
The shapes lie on either side of 13, where the negative-binomial
coefficient switches from log-gamma values (one more ``math.lgamma``
call per entry) to Stirling's form (one vectorised ``log1p`` per
entry).

Run with ``python3 benchmarks/bench_kernels.py`` (options: ``--m`` for
the batch size, ``--repeat`` for timing repetitions, ``--seed``).
"""

from __future__ import annotations

import argparse
from functools import partial

import numpy as np

import timing
from discretefdr import Study, _kernels

UNIQUE_TOTALS = 2000

#: The two-sided conventions every batch is timed under.
CONVENTIONS = ("minlik", "doubling")

#: Features of the tune-sized negative-binomial batch.
TUNED_M = 600

#: Studies and features per study of the pooled-simulate case.
POOLED_REPS = 50
POOLED_M = 250

#: Key ranges of the grouping case, in multiples of the number of keys,
#: and the calls each is timed over.
GROUPING_RANGES = (1, 4, 8, 16)
GROUPING_ROUNDS = 200

#: Laws per feature of the support-starts batch: 7 172 for 15 000
#: features on the analyze-fet input of seed 2001.
STARTS_LAWS = 0.478

#: Conditioned totals of the one-law cases.
LARGE_TOTALS = (2**16, 2**20, _kernels.MAX_TOTAL)

#: Negative-binomial shapes of the one-law cases: the benchmark
#: workloads' 3 / 1.451, below the coefficient's switch at 13, and one
#: above it.
LARGE_SHAPES = (3.0 / 1.451, 30.0)


def _large(total: int) -> dict:
    """The log-gamma tables and the one-law cases at ``total``."""
    x1, x2 = np.array([total // 2]), np.array([total - total // 2])
    r = np.array([total])
    cases = {
        "log_factorials": partial(_kernels.log_factorials, total),
        f"coefficient at shape {LARGE_SHAPES[0]:.4g}": partial(
            _kernels.log_negbinom_coefficients, total, LARGE_SHAPES[0]
        ),
        "binomial law": partial(_kernels.batch_binomial, x1, x2),
        "fisher law": partial(_kernels.batch_fisher, x1, r, x2, r),
    }
    for shape in LARGE_SHAPES:
        cases[f"negbinom law at shape {shape:.4g}"] = partial(
            _kernels.batch_negbinom, x1, x2, shape
        )
    return cases


def _support_starts(m: int, rng: np.random.Generator) -> tuple[np.ndarray, int]:
    """``m`` support starts shaped like those of analyze-fet, and the
    places they lie below."""
    laws = int(STARTS_LAWS * m)
    length = rng.integers(2, 25, laws)
    start = np.cumsum(length) - length
    law = np.concatenate((np.arange(laws), rng.integers(0, laws, m - laws)))
    rng.shuffle(law)
    return start[law], int(length.sum()) + 1


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


def _tuned(rng: np.random.Generator) -> dict:
    """Negative-binomial group sums of ``TUNED_M`` features, three
    samples per group at size 0.689, a fifth with a 1.5- to 6-fold
    effect: totals up to about 270."""
    size, reps = 0.689, 3
    mean1 = rng.uniform(0.5, 8.0, TUNED_M)
    mean2 = mean1.copy()
    effect = rng.choice(TUNED_M, TUNED_M // 5, replace=False)
    mean2[effect] *= rng.uniform(1.5, 6.0, effect.shape[0])
    s1, s2 = (
        rng.negative_binomial(size, size / (size + mean), (reps, TUNED_M)).sum(axis=0)
        for mean in (mean1, mean2)
    )
    return {"negbinom": (s1, s2, reps * size)}


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


def _distinct_keys(name: str, args) -> tuple[int, int]:
    """The distinct conditioning keys of a batch, and their orbits under
    the kernel's symmetries (for ``fisher``, the eight of the 2x2 table;
    none for the others)."""
    if name == "fisher":
        x1, r1, x2, r2 = args
        s, total = x1 + x2, r1 + r2
        keys = np.unique(np.column_stack((r1, r2, s)), axis=0).shape[0]
        # the smaller row margin and the smaller column margin, unordered
        row, column = np.minimum(r1, r2), np.minimum(s, total - s)
        orbit = (np.minimum(row, column), np.maximum(row, column), total)
        return keys, np.unique(np.column_stack(orbit), axis=0).shape[0]
    keys = np.unique(args[0] + args[1]).shape[0]
    return keys, keys


def _layout(kernel, batch, convention) -> tuple[int, float]:
    """The blocks one kernel call builds, and the share of their entries
    (laws times the block's width) that are outcomes."""
    lengths = []
    blocks = _kernels._blocks

    def record(length):
        for rows in blocks(length):
            lengths.append(length[rows])
            yield rows

    _kernels._blocks = record
    try:
        kernel(*batch, convention=convention)
    finally:
        _kernels._blocks = blocks
    built = sum(n.shape[0] * int(n.max()) for n in lengths)
    return len(lengths), sum(int(n.sum()) for n in lengths) / built


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--m", type=int, default=20000,
                        help="features per batch (default 20000)")
    parser.add_argument("--repeat", type=int, default=5,
                        help="timing repetitions, best is kept (default 5)")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    rng = np.random.default_rng(args.seed)
    batches = {
        "repeated": _repeated(args.m, rng),
        "unique": _unique(args.m, rng),
        "tuned": _tuned(rng),
    }
    kernels = {
        "binomial": _kernels.batch_binomial,
        "fisher": _kernels.batch_fisher,
        "negbinom": _kernels.batch_negbinom,
    }
    _kernels.warm_up()

    print(f"best of {args.repeat} runs")
    header = (f"{'kernel':10s} {'keys':>9s} {'convention':>10s} {'m':>7s} "
              f"{'distinct':>9s} {'orbits':>7s} {'laws':>7s} {'blocks':>6s} {'fill':>5s} "
              f"{'kernel':>10s} {'study':>10s} {'per feature':>12s}")
    print(header)
    print("-" * len(header))
    for name, kernel in kernels.items():
        for kind, data in batches.items():
            if name not in data:
                continue
            batch = data[name]
            m = len(batch[0])
            for convention in CONVENTIONS:
                t, out = timing.best_of(
                    partial(kernel, *batch, convention=convention), repeat=args.repeat
                )
                t_study, study = timing.best_of(
                    Study.from_distinct, *out, repeat=args.repeat
                )
                laws = np.unique(out[2]).shape[0]
                assert study.support_len.shape[0] == laws  # one support per slice
                keys, orbits = _distinct_keys(name, batch)
                assert laws == orbits  # one law per orbit of keys
                blocks, fill = _layout(kernel, batch, convention)
                print(
                    f"{name:10s} {kind:>9s} {convention:>10s} {m:7d} "
                    f"{keys:9d} {orbits:7d} {laws:7d} {blocks:6d} "
                    f"{fill:5.0%} {t * 1e3:8.1f}ms "
                    f"{t_study * 1e3:8.1f}ms {t / m * 1e6:10.2f}us"
                )

    draws, shape_total = _replications(rng)
    t_alone, alone = timing.best_of(
        _per_replication, draws, shape_total, repeat=args.repeat
    )
    t_pooled, pooled = timing.best_of(_pooled, draws, shape_total, repeat=args.repeat)
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

    print(f"\ngrouping m keys: unique_below / np.unique, best of {GROUPING_ROUNDS}")
    cases = [
        (m, "uniform", rng.integers(0, times * m, m), times * m)
        for m in (args.m, TUNED_M)
        for times in GROUPING_RANGES
    ]
    cases.append((args.m, "starts", *_support_starts(args.m, rng)))
    for m, name, keys, bound in cases:
        t_dense, _ = timing.best_of(
            _kernels.unique_below, keys, bound, repeat=GROUPING_ROUNDS
        )
        t_sort, _ = timing.best_of(
            partial(np.unique, return_inverse=True), keys, repeat=GROUPING_ROUNDS
        )
        print(
            f"m {m:6d}, {name:>7s} keys below {bound / m:4.1f}m: "
            f"{t_dense * 1e3:.3f} / {t_sort * 1e3:.3f}ms"
        )

    print(f"\nlarge totals: median of {args.repeat} interleaved rounds, "
          "tracemalloc peak")
    for total in LARGE_TOTALS:
        cases = _large(total)
        walls = timing.interleaved(list(cases.values()), args.repeat)
        for (name, fn), wall in zip(cases.items(), walls):
            print(f"total {total:8d}: {name:30s} {np.median(wall):7.3f}s "
                  f"{timing.peak(fn) / 2**20:8.1f} MB")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
