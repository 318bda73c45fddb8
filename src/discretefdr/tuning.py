"""Bootstrap selection of the tuning pair for the adjusted estimator.

For each candidate ``(lambda, epsilon)`` pair on a user-supplied grid,
the study's profiles are resampled with replacement (p-value and
support travel together), the discreteness-adjusted estimate is
computed on every resample, and its mean squared error is taken
against the plug-in target: the minimum over the grid of the
full-sample estimates. The pair with the smallest estimated MSE wins;
ties break toward the smallest ``lambda``, then the smallest
``epsilon``.

On a grid with ``epsilon = 0`` everywhere (or uniform-null profiles)
the procedure reduces to the classical bootstrap tuning of the
exceedance estimator.

Each grid point draws from its own RNG stream derived from the base
seed and the point's index, so adding grid points never perturbs the
resamples of existing points, and evaluating points in parallel gives
byte-identical results to a serial run.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .estimators import Study, generalized_pi0


@dataclass(frozen=True)
class TuningGrid:
    """A finite search grid plus bootstrap configuration."""

    points: tuple[tuple[float, float], ...]
    B: int
    seed: int

    def __init__(
        self,
        points: Sequence[tuple[float, float]],
        B: int,
        seed: int,
    ) -> None:
        pts = tuple((float(lam), float(eps)) for lam, eps in points)
        if not pts:
            raise ValueError("the grid must be nonempty")
        for lam, eps in pts:
            if not 0.0 <= lam < 1.0:
                raise ValueError("grid lambda must lie in [0, 1)")
            if not 0.0 <= eps <= 1.0:
                raise ValueError("grid epsilon must lie in [0, 1]")
        if B < 1:
            raise ValueError("B must be at least 1")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "B", int(B))
        object.__setattr__(self, "seed", int(seed))


@dataclass(frozen=True)
class TuningResult:
    """Chosen tuning pair with the per-point MSE table."""

    chosen: tuple[float, float]
    mse: np.ndarray
    estimate: float
    full_sample: np.ndarray

    def to_json_dict(self) -> dict:
        return {
            "chosen": {"lambda": self.chosen[0], "epsilon": self.chosen[1]},
            "estimate": self.estimate,
            "mse": [
                {"mse": float(v), "full_sample": float(fs)}
                for v, fs in zip(self.mse, self.full_sample)
            ],
        }


def _clip01(x: np.ndarray) -> np.ndarray:
    return np.minimum(1.0, np.maximum(0.0, x))


def _point_mse(
    study: Study,
    lam: float,
    eps: float,
    B: int,
    seed: int,
    index: int,
    target: float,
) -> float:
    """Bootstrap MSE of one grid point against the plug-in target."""
    m = study.m
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(index,)))
    idx = rng.integers(0, m, size=(B, m))
    # each hypothesis's term travels with it, so form the terms once and
    # resample them
    floor = study.support_floor(lam)
    terms = (study.pvalues > lam).astype(np.float64) - eps * (lam - floor)
    raw = terms[idx].sum(axis=1) / ((1.0 - lam) * m)
    boot = _clip01(raw)
    return float(np.mean((boot - target) ** 2))


def bootstrap_tune(
    study: Study, grid: TuningGrid, workers: int = 1
) -> TuningResult:
    """Pick the tuning pair minimizing the bootstrap MSE.

    ``workers`` > 1 evaluates grid points concurrently; results are
    identical to a serial run because every point owns an independent
    RNG stream and results are merged by grid index.
    """
    if study.m < 2:
        raise ValueError("bootstrap tuning needs at least two profiles")
    points = grid.points
    full = np.array(
        [generalized_pi0(study, lam, eps).value for lam, eps in points]
    )
    target = float(full.min())

    def run(j: int) -> float:
        lam, eps = points[j]
        return _point_mse(study, lam, eps, grid.B, grid.seed, j, target)

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            mse = np.array(list(pool.map(run, range(len(points)))))
    else:
        mse = np.array([run(j) for j in range(len(points))])

    order = sorted(
        range(len(points)),
        key=lambda j: (mse[j], points[j][0], points[j][1]),
    )
    best = order[0]
    return TuningResult(
        chosen=points[best],
        mse=mse,
        estimate=float(full[best]),
        full_sample=full,
    )
