#!/usr/bin/env python3
"""Benchmark one chunk of ``simulate``, stage by stage.

The chunk is that of the simulate-ent benchmark workload: 50
``negbinom_ent`` replications of 250 features (true-null share 0.8,
effect shape 3.0), all five estimators and all five procedures at five
levels. Its stages, as ``sim.run_replications`` and ``cli.cmd_simulate``
run them:

* ``draw``: each replication's parameters and group sums, both groups
  from one sampler call, written into the chunk's count columns;
* ``kernel``: the chunk's batch-kernel call and its ``Study``;
* ``evaluate``: ``sim.evaluate_block``, every estimate and every
  procedure at every level, one solve per procedure;
* ``fdp``: the false discovery proportions, one comparison per
  procedure at all its levels;
* ``write``: the two per-replication tables and ``aggregate.json``, as
  ``cli._simulate_outputs`` gives them to the command.

Next to three of them runs the form they replace, on the same input:

* ``draw (per group)``: ``oracles.draw_counts_per_group``, a sampler call
  per group, then the columns concatenated;
* ``kernel (pad 0)``: the kernel with ``_kernels._PAD_ENTRIES`` at 0, so
  that no block of laws spans more than a factor two in length;
* ``evaluate (per level)``: ``evaluate_block`` with a solve per
  (procedure, level) pair.

Each stage's output is checked against its replaced form's, bit for bit.
The stages run in turn, ``ROUNDS`` rounds, each next to the form it
replaces (the two swap places every round), and the script prints the
median [quartiles] of each one's wall time in milliseconds.

Run with ``python3 benchmarks/bench_sim.py``.
"""

from __future__ import annotations

import os
import statistics
import sys
import tempfile

import numpy as np

import timing
from discretefdr import Study, _kernels, cli, fdr, sim

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(HERE, "..", "tests"))
import oracles  # noqa: E402

ROUNDS = 200
SPEC = sim.ScenarioSpec(
    kind="negbinom_ent", m=250, pi0=0.8, reps=50, seed=2001,
    alpha_levels=(0.01, 0.025, 0.05, 0.1, 0.2), rho_shape=3.0,
)
METHODS = sim.PI0_METHODS
PROCEDURES = ("generalized", "storey", "storey_variant", "bh", "adaptive_bh")
LAM, EPSILON = 0.5, 1.0


def draw() -> np.ndarray:
    columns = np.empty((2, SPEC.reps, SPEC.m), dtype=np.int64)
    for r in range(SPEC.reps):
        sim._draw_counts(SPEC, r, columns[:, r])
    return columns.reshape(2, -1)


def draw_per_group() -> np.ndarray:
    drawn = [oracles.draw_counts_per_group(SPEC, r) for r in range(SPEC.reps)]
    return np.stack([np.concatenate(column) for column in zip(*drawn)])


def kernel(columns: np.ndarray) -> Study:
    return Study.from_distinct(*sim._test(SPEC, columns))


def kernel_pad0(columns: np.ndarray) -> Study:
    bound = _kernels._PAD_ENTRIES
    _kernels._PAD_ENTRIES = 0
    try:
        return kernel(columns)
    finally:
        _kernels._PAD_ENTRIES = bound


def evaluate(study: Study):
    return sim.evaluate_block(
        study, SPEC.reps, METHODS, PROCEDURES, SPEC.alpha_levels, LAM, EPSILON
    )


def _solve_per_level(block, kind, mult, lam, alphas):
    solved = [fdr.solve_thresholds(block, kind, mult, lam, a) for a in alphas]
    return tuple(np.stack(out) for out in zip(*solved))


def evaluate_per_level(study: Study):
    sim.solve_thresholds = _solve_per_level
    try:
        return evaluate(study)
    finally:
        sim.solve_thresholds = fdr.solve_thresholds


def fdp(study: Study, outcomes) -> np.ndarray:
    pvalues = study.pvalues.reshape(SPEC.reps, SPEC.m)
    truth = sim._truth(SPEC)
    return np.array([
        sim.false_discovery_rows(pvalues, truth, t, count) for _, t, _, count in outcomes
    ])


def summary(estimates, outcomes, fdps) -> sim.ReplicationSummary:
    est = np.stack([estimates[name][1] for name in METHODS], axis=1)
    return sim.ReplicationSummary(
        spec=SPEC, pi0_methods=METHODS, procedures=PROCEDURES,
        pi0_estimates=est, excess=est - SPEC.pi0,
        thresholds=np.stack([t.T for _, t, _, _ in outcomes], axis=1),
        rejections=np.stack([c.T for _, _, _, c in outcomes], axis=1),
        fdp=fdps.transpose(2, 0, 1),
    )


def write(out: sim.ReplicationSummary, directory: str) -> None:
    """The data outputs of ``cli.cmd_simulate``, as it returns them."""
    for name, write_output, *data in cli._simulate_outputs(out, LAM, EPSILON):
        write_output(os.path.join(directory, name), *data)


def _same(a, b) -> bool:
    """Whether two nested outputs hold the same arrays, bit for bit."""
    if isinstance(a, (tuple, list)):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and a.tobytes() == b.tobytes()
    return a == b


def main() -> int:
    columns = draw()
    study = kernel(columns)
    estimates, outcomes = evaluate(study)
    fdps = fdp(study, outcomes)
    assert _same(columns, draw_per_group())
    alone = kernel_pad0(columns)
    assert _same((study.pvalues, study.support_flat), (alone.pvalues, alone.support_flat))
    assert _same((estimates, outcomes), evaluate_per_level(study))
    with tempfile.TemporaryDirectory() as directory:
        # each stage next to the form it replaces, run in turn
        stages = {
            "draw": draw, "draw (per group)": draw_per_group,
            "kernel": lambda: kernel(columns),
            "kernel (pad 0)": lambda: kernel_pad0(columns),
            "evaluate": lambda: evaluate(study),
            "evaluate (per level)": lambda: evaluate_per_level(study),
            "fdp": lambda: fdp(study, outcomes),
            "write": lambda: write(summary(estimates, outcomes, fdps), directory),
        }
        walls = dict(zip(stages, timing.interleaved(list(stages.values()), ROUNDS)))
    print(f"{SPEC.reps} replications x {SPEC.m} features, {len(METHODS)} "
          f"estimators, {len(PROCEDURES)} procedures x {len(SPEC.alpha_levels)} "
          f"levels; median [quartiles] ms of {ROUNDS} rounds, stages in turn")
    for name, wall in walls.items():
        print(f"{name:22s} {timing.spread(wall):>26s}")
    total = sum(statistics.median(walls[name]) for name in
                ("draw", "kernel", "evaluate", "fdp", "write"))
    print(f"{'sum of stage medians':22s} {total * 1e3:6.2f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
