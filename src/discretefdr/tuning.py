"""Bootstrap selection of the tuning pair for the adjusted estimator.

For each candidate ``(lambda, epsilon)`` pair on a user-supplied grid,
the discreteness-adjusted estimate is computed on B resamples of the
study's profiles, drawn with replacement (p-value and support travel
together), and its mean squared error is taken against the plug-in
target: the minimum over the grid of the full-sample estimates. The
pair with the smallest estimated MSE wins; ties break toward the
smallest ``lambda``, then the smallest ``epsilon``.

Every grid point is scored on the same B resamples, as in the bootstrap
rule of Storey, Taylor & Siegmund (2004): the B x m resample index comes
from ``SeedSequence(seed)``. A resample's estimate at ``(lambda,
epsilon)`` is ``(E - epsilon * G) / ((1 - lambda) * m)``, where ``E``
sums the exceedance indicators ``1{p_i > lambda}`` and ``G`` the floor
gaps ``lambda - floor_i`` over the resample. One
``Study.exceedance_parts`` call on the distinct lambdas, the
call that gives ``analyze`` and ``simulate`` their parts, writes each
lambda's two rows of parts into one array, from floors found once per
stored support; the array is used as it is. The index is
drawn a bounded block of resamples at a time, which gives the values of
one whole draw; each block is turned into per-resample multiplicity
counts and reduced against each distinct lambda's two rows once,
whatever the number of epsilons. So the parts are held once and the
index never whole: on the default 100-point grid with B = 100 the
tracemalloc peak is about 400 bytes per hypothesis at m = 60 000, the
parts of 20 lambdas (320) and one block of resample counts (80). The same
rows give the full-sample estimates: each
lambda's epsilons form one block of terms, reduced row by row, which
gives each point's bits as its own row alone would, with no
grid-point-by-hypothesis gather. Given the target, a point's MSE
depends only on its own pair, the study, B and the seed: adding,
removing or reordering other grid points never changes its bits.

On a grid with ``epsilon = 0`` everywhere (or uniform-null profiles)
the procedure reduces to the classical bootstrap tuning of the
exceedance estimator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .estimators import Study, _clip01, _denominator, adjusted_rows


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
        if seed < 0:
            raise ValueError("seed must be at least 0")
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


#: Most resample-count entries formed at once: the index is drawn and
#: turned into multiplicity counts this many (resample, hypothesis) cells
#: at a time.
_BLOCK_ENTRIES = 1 << 18


def _resample_sums(rng: np.random.Generator, B: int, parts: np.ndarray) -> np.ndarray:
    """Sums of every lambda's parts over ``B`` resamples drawn from ``rng``.

    ``parts[k]`` holds the 2 x m exceedance indicators and floor gaps of
    the k-th distinct lambda. Returns ``sums`` with ``sums[k, :, b]`` the
    two rows summed over resample ``b``. The resample index is drawn a
    block of resamples at a time, and the blocks hold the values of one
    B x m draw. Each block is turned into multiplicity counts once and
    reduced against each lambda's parts separately, so a lambda's sums
    do not depend on the other lambdas.
    """
    m = parts.shape[-1]
    sums = np.empty((parts.shape[0], 2, B))
    rows = max(1, _BLOCK_ENTRIES // m)
    for a in range(0, B, rows):
        n = min(rows, B - a)
        # int32 draws the same values as the default int64 and halves the
        # block; its cells fit too, as n * m is at most _BLOCK_ENTRIES or m
        block = rng.integers(0, m, size=(n, m), dtype=np.int32)
        block += m * np.arange(n, dtype=np.int32)[:, None]
        counts = np.bincount(block.reshape(-1), minlength=n * m).reshape(n, m)
        counts = counts.astype(np.float64)
        for k in range(parts.shape[0]):
            sums[k, :, a : a + n] = parts[k] @ counts.T
        # freed before the next block is drawn and counted
        del counts
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
    parts = study.exceedance_parts(lams)
    # each lambda's epsilons as one block of rows, reduced row by row
    full = np.empty(len(points))
    for k, lam in enumerate(lams.tolist()):
        at = np.flatnonzero(which == k)
        full[at] = adjusted_rows(parts[k, 0], parts[k, 1], eps_of[at, None], lam)
    full = _clip01(full)
    target = float(full.min())

    rng = np.random.default_rng(np.random.SeedSequence(grid.seed))
    sums = _resample_sums(rng, grid.B, parts)[which]
    raw = (sums[:, 0] - eps_of[:, None] * sums[:, 1]) / _denominator(lam_of[:, None], m)
    mse = np.mean((_clip01(raw) - target) ** 2, axis=1)

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
