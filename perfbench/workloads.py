"""Seeded workload definitions: input generators and command lines.

Each workload writes its input files into a directory before any timing
starts and returns the ``discretefdr`` argument vector that runs it. The
same seed always writes byte-identical inputs. The program sees only
those files, never the seed.

Why these four:

* ``analyze-bin``: Pareto(7, 7) means, 20% of rows with the group-2 mean
  scaled by U(1.5, 5). About 80 distinct totals over 15 000 rows, so
  over 99% of rows repeat a conditioning key: per-key memoisation,
  ``pounds_hat_pi0`` and output writing show here.
* ``analyze-fet``: per-feature trials, NB(size 3, mean 20) + 2 per
  group, so over 80% of the (r1, r2, s) keys are unique: memoisation is
  bypassed. It is also the single-study case with many distinct
  p-values for ``threshold``.
* ``simulate-ent``: 50 studies of 250 features, all estimators and
  procedures at five levels. Per-study overhead (rebuilt rejection
  processes, recomputed estimates) dominates.
* ``tune-ent``: 600 rows of 3 per-sample columns per group, tuned on
  the default 100-point grid with B = 100 under the doubling
  convention. The only workload covering bootstrap tuning, the ent
  ingest of per-sample columns and the doubling path.

Sizes are set so that a command takes about a second or less on a
2-core machine, which leaves a dozen or more timed commands in a
15-second run. ``tune-ent`` is smaller still: at 600 features a
bootstrap point's arrays (B x m values) stay within a core's 2 MiB L2
cache. At 3 000 features they spill into the L3 cache that a shared
host's tenants contend for, and its speed then swung 2x between runs
minutes apart, independently of the interpreter-bound work that
``calibrate.py`` tracks.

The fold changes of the ent workloads have light tails on purpose. With
the scenario's default Pareto(1.5, 1.426) fold change the largest total
swings with the seed (from about 1 000 to 15 000 at these sizes), and
the padded support matrix, and so peak memory, swings with it.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

# Per-sample negative-binomial shape used by the ent workloads: the
# reciprocal of the simulation scenario's default dispersion 1.451.
ENT_SIZE = 0.689


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``write_inputs(directory, rng)`` writes the input files and returns
    the command's arguments (without ``--out``). ``unit`` names the work
    one command completes, and ``work(outputs)`` counts it from the
    command's own outputs.
    """

    name: str
    command: str
    unit: str
    write_inputs: Callable[[str, np.random.Generator], list[str]]
    work: Callable[[dict], int]


def _ids(m: int) -> list[str]:
    return [f"f{i:05d}" for i in range(m)]


def _write_table(path: str, header: list[str], ids: list[str], columns) -> None:
    cols = np.column_stack(columns).astype(np.int64)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for ident, row in zip(ids, cols.tolist()):
            fh.write(ident + "," + ",".join(map(str, row)) + "\n")


def _effect_rows(rng: np.random.Generator, m: int, share: float) -> np.ndarray:
    """Boolean mask marking exactly ``share * m`` rows as false nulls."""
    mask = np.zeros(m, dtype=bool)
    mask[rng.choice(m, size=int(round(share * m)), replace=False)] = True
    return mask


def _analyze_bin(directory: str, rng: np.random.Generator) -> list[str]:
    m = 15_000
    theta1 = 7.0 * (1.0 + rng.pareto(7.0, m))
    effect = _effect_rows(rng, m, 0.2)
    theta2 = theta1.copy()
    theta2[effect] *= rng.uniform(1.5, 5.0, int(effect.sum()))
    x1 = rng.poisson(theta1)
    x2 = rng.poisson(theta2)
    path = os.path.join(directory, "counts.csv")
    _write_table(path, ["id", "count1", "count2"], _ids(m), (x1, x2))
    return ["analyze", path, "--test", "bin", "--alpha", "0.05", "--alpha", "0.1"]


def _analyze_fet(directory: str, rng: np.random.Generator) -> list[str]:
    m = 15_000
    size, mean = 3.0, 20.0
    p = size / (size + mean)
    r1 = rng.negative_binomial(size, p, m) + 2
    r2 = rng.negative_binomial(size, p, m) + 2
    theta1 = rng.uniform(0.08, 0.65, m)
    effect = _effect_rows(rng, m, 0.2)
    odds = rng.uniform(1.5, 13.0, int(effect.sum())) * theta1[effect] / (
        1.0 - theta1[effect]
    )
    theta2 = theta1.copy()
    theta2[effect] = odds / (1.0 + odds)
    x1 = rng.binomial(r1, theta1)
    x2 = rng.binomial(r2, theta2)
    path = os.path.join(directory, "counts.csv")
    _write_table(
        path, ["id", "x1", "r1", "x2", "r2"], _ids(m), (x1, r1, x2, r2)
    )
    return [
        "analyze", path, "--test", "fet",
        "--alpha", "0.01", "--alpha", "0.05", "--alpha", "0.1",
    ]


def _simulate_ent(directory: str, rng: np.random.Generator) -> list[str]:
    config = {
        "kind": "negbinom_ent",
        "m": 250,
        "pi0": 0.8,
        "reps": 50,
        "seed": int(rng.integers(0, 2**31 - 1)),
        "alpha_levels": [0.01, 0.025, 0.05, 0.1, 0.2],
        "pi0_methods": [
            "storey", "generalized", "pounds_tilde", "pounds_hat", "benjamini",
        ],
        "procedures": [
            "generalized", "storey", "storey_variant", "bh", "adaptive_bh",
        ],
        "workers": 1,
        "rho_shape": 3.0,
    }
    path = os.path.join(directory, "scenario.json")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(config, fh, indent=2)
        fh.write("\n")
    return ["simulate", path]


def _tune_ent(directory: str, rng: np.random.Generator) -> list[str]:
    m, reps = 600, 3
    mean1 = rng.uniform(0.5, 8.0, m)
    effect = _effect_rows(rng, m, 0.2)
    mean2 = mean1.copy()
    mean2[effect] *= rng.uniform(1.5, 6.0, int(effect.sum()))
    columns = []
    for mean in (mean1, mean2):
        p = ENT_SIZE / (ENT_SIZE + mean)
        columns.extend(rng.negative_binomial(ENT_SIZE, p, (reps, m)))
    path = os.path.join(directory, "counts.csv")
    header = ["id"] + [f"a{j}" for j in range(reps)] + [f"b{j}" for j in range(reps)]
    _write_table(path, header, _ids(m), columns)
    return [
        "tune", path, "--test", "ent", "--reps", str(reps),
        "--size", str(ENT_SIZE), "--convention", "doubling",
        "--B", "100", "--seed", "0",
    ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("analyze-bin", "analyze", "features", _analyze_bin,
                 lambda out: out["estimates.json"]["m"]),
        Workload("analyze-fet", "analyze", "features", _analyze_fet,
                 lambda out: out["estimates.json"]["m"]),
        Workload("simulate-ent", "simulate", "replications", _simulate_ent,
                 lambda out: out["aggregate.json"]["reps"]),
        Workload("tune-ent", "tune", "resamples", _tune_ent,
                 lambda out: len(out["tuning.json"]["mse"]) * out["tuning.json"]["B"]),
    )
}


def write_inputs(workload: Workload, directory: str, seed: int) -> list[str]:
    """Write ``workload``'s inputs for ``seed``; return its arguments."""
    os.makedirs(directory, exist_ok=True)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    return workload.write_inputs(directory, rng)
