"""Bootstrap selection of the tuning pair for the adjusted estimator.

For each candidate ``(lambda, epsilon)`` pair on a user-supplied grid,
the discreteness-adjusted estimate is computed on B resamples of the
study's profiles, drawn with replacement (p-value and support travel
together), and its mean squared error is taken against the plug-in
target: the minimum over the grid of the full-sample estimates. The
pair with the smallest estimated MSE wins; ties break toward the
smallest ``lambda``, then the smallest ``epsilon``.

Every grid point is scored on the same B resamples, as in the bootstrap
rule of Storey, Taylor & Siegmund (2004): one B x m resample index is
drawn from ``SeedSequence(seed)``. A resample's estimate at ``(lambda,
epsilon)`` is ``(E - epsilon * G) / ((1 - lambda) * m)``, where ``E``
sums the exceedance indicators ``1{p_i > lambda}`` and ``G`` the floor
gaps ``lambda - floor_i`` over the resample. So the index is turned into
per-resample multiplicity counts, a bounded block of resamples at a
time, and reduced against each distinct lambda's two columns once,
whatever the number of epsilons. The same columns give the full-sample
estimates. Given the target, a point's MSE depends only on its own pair,
the study, B and the seed: adding, removing or reordering other grid
points never changes its bits.

On a grid with ``epsilon = 0`` everywhere (or uniform-null profiles)
the procedure reduces to the classical bootstrap tuning of the
exceedance estimator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .estimators import Study, _adjusted_raw, _clip01, _exceedance_parts


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


#: Most resample-count entries formed at once: the index is turned into
#: multiplicity counts this many (resample, hypothesis) cells at a time.
_BLOCK_ENTRIES = 1 << 18


def _resample_sums(idx: np.ndarray, parts: np.ndarray) -> np.ndarray:
    """Sums of every lambda's parts over every resample.

    ``idx`` is the B x m resample index and ``parts[k]`` the 2 x m
    exceedance indicators and floor gaps of the k-th distinct lambda.
    Returns ``sums`` with ``sums[k, :, b]`` the two rows summed over
    resample ``b``. Each block of resamples is turned into
    multiplicity counts once and reduced against each lambda's parts
    separately, so a lambda's sums do not depend on the other lambdas.
    """
    B, m = idx.shape
    sums = np.empty((parts.shape[0], 2, B))
    rows = max(1, _BLOCK_ENTRIES // m)
    for a in range(0, B, rows):
        block = idx[a : a + rows]
        n = block.shape[0]
        cells = (block + m * np.arange(n)[:, None]).ravel()
        counts = np.bincount(cells, minlength=n * m).reshape(n, m)
        counts = counts.astype(np.float64)
        for k in range(parts.shape[0]):
            sums[k, :, a : a + n] = parts[k] @ counts.T
    return sums


def bootstrap_tune(study: Study, grid: TuningGrid) -> TuningResult:
    """Pick the tuning pair minimizing the bootstrap MSE.

    All grid points are scored on the same ``grid.B`` resamples.
    """
    m = study.m
    if m < 2:
        raise ValueError("bootstrap tuning needs at least two profiles")
    points = grid.points
    lam_of, eps_of = np.array(points).T
    lams, which = np.unique(lam_of, return_inverse=True)
    parts = np.empty((lams.shape[0], 2, m))
    for k, lam in enumerate(lams.tolist()):
        parts[k] = _exceedance_parts(study, lam)
    full = np.array([
        _clip01(_adjusted_raw(*parts[k], eps, lam))
        for k, (lam, eps) in zip(which.tolist(), points)
    ])
    target = float(full.min())

    rng = np.random.default_rng(np.random.SeedSequence(grid.seed))
    # int32 draws the same values as the default int64 and halves the index
    idx = rng.integers(0, m, size=(grid.B, m), dtype=np.int32)
    sums = _resample_sums(idx, parts)[which]
    raw = (sums[:, 0] - eps_of[:, None] * sums[:, 1]) / (
        (1.0 - lam_of[:, None]) * m
    )
    boot = np.minimum(1.0, np.maximum(0.0, raw))
    mse = np.mean((boot - target) ** 2, axis=1)

    best = min(
        range(len(points)),
        key=lambda j: (mse[j], points[j][0], points[j][1]),
    )
    return TuningResult(
        chosen=points[best],
        mse=mse,
        estimate=float(full[best]),
        full_sample=full,
    )
