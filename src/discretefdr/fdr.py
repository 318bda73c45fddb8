"""FDR estimators, exact threshold computation, and step-up procedures.

The rejection process ``R(t)`` counts p-values at most ``t``. All FDR
estimators here have the form ``pi0 * t / (m^-1 * max(R(t), 1))`` with
different choices of the ``pi0`` multiplier and different clipping:

* ``storey``: the exceedance estimator's raw value, unclipped;
* ``storey_variant``: the same plus ``1 / ((1 - lambda) m)``, and the
  estimate is defined to be 1 for ``t > lambda``;
* ``generalized``: the discreteness-adjusted estimate (clipped to
  [0, 1] by definition), with the result capped at 1;
* ``storey_type_sigma``: the exceedance estimate minus a deterministic
  offset ``sigma / ((1 - lambda) m)``, clipped to [0, 1], with the
  result capped at 1.

``threshold`` computes ``sup { t : f(t) <= alpha }`` exactly by
scanning the intervals where ``R`` is constant, instead of stepping a
grid. On each interval ``f`` is linear in ``t``, so the supremum is a
closed-form candidate; scanning right to left returns the first
feasible one. At the returned threshold the estimator equals ``alpha``
to within 1e-12 whenever the multiplier exceeds ``alpha`` and at least
one hypothesis is rejected.

The scaled inverse rejection process ``L(t) = t / max(R(t), 1)`` is
exposed with its piecewise closed form; its only discontinuities are
downward jumps at distinct p-values, which is what makes the threshold
supremum attainable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .estimators import Pi0Estimate

FDR_KINDS = ("storey", "storey_variant", "generalized", "storey_type_sigma")

#: Maximum ulp-steps when descending onto the feasible side of alpha.
_MAX_NUDGES = 64


class RejectionProcess:
    """Sorted distinct p-values with multiplicities.

    Evaluates the rejection count ``R(t)`` in O(log n) and the scaled
    inverse rejection process in closed form. Instances are immutable
    after construction and safe for concurrent reads.
    """

    def __init__(self, pvalues: np.ndarray) -> None:
        values = np.asarray(pvalues, dtype=np.float64)
        if values.ndim != 1 or values.shape[0] < 1:
            raise ValueError("at least one p-value is required")
        if np.any(values <= 0.0) or np.any(values > 1.0):
            raise ValueError("p-values must lie in (0, 1]")
        self.values = values
        self.distinct, mult = np.unique(values, return_counts=True)
        self.mult = mult.astype(np.int64)
        self.cum = np.cumsum(self.mult)
        self.m = int(values.shape[0])

    def rejections(self, t: float) -> int:
        """Number of p-values at most ``t``."""
        j = int(np.searchsorted(self.distinct, t, side="right"))
        return 0 if j == 0 else int(self.cum[j - 1])

    def rejected_indices(self, t: float) -> np.ndarray:
        """Indices (original order) of p-values at most ``t``."""
        return np.flatnonzero(self.values <= t)


def build_rejection_process(pvalues: Sequence[float] | np.ndarray) -> RejectionProcess:
    """Sort and deduplicate p-values into a :class:`RejectionProcess`."""
    return RejectionProcess(np.asarray(pvalues, dtype=np.float64))


def inverse_rejection_L(proc: RejectionProcess, t: float) -> float:
    """Scaled inverse rejection process ``t / max(R(t), 1)``.

    Evaluated through its piecewise form: ``t`` below the smallest
    p-value, then ``t / T_j`` on each interval where the rejection
    count is the running total ``T_j``.
    """
    if not 0.0 <= t <= 1.0:
        raise ValueError("t must lie in [0, 1]")
    j = int(np.searchsorted(proc.distinct, t, side="right"))
    if j == 0:
        return t
    return t / float(proc.cum[j - 1])


@dataclass(frozen=True)
class FdrEstimator:
    """A named FDR estimator: a pi0 multiplier plus clipping rules.

    ``pi0`` is the estimate whose raw or clipped value feeds the
    multiplier, depending on ``kind``; ``lam`` is the tuning parameter
    used both by the variant cutoff and the sigma offset; ``sigma`` is
    the deterministic offset of the ``storey_type_sigma`` kind.
    """

    kind: str
    pi0: Pi0Estimate
    lam: float | None = None
    sigma: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in FDR_KINDS:
            raise ValueError(
                f"unknown FDR estimator kind {self.kind!r}; "
                f"choose from {FDR_KINDS}"
            )
        if self.kind in ("storey_variant", "storey_type_sigma"):
            if self.lam is None:
                raise ValueError(f"{self.kind} requires lam")
        if self.kind == "storey_type_sigma" and self.sigma is None:
            raise ValueError("storey_type_sigma requires sigma")

    def multiplier(self, m: int) -> float:
        """The effective pi0 multiplier for a study of size ``m``."""
        if self.kind == "storey":
            return self.pi0.raw
        if self.kind == "storey_variant":
            return self.pi0.raw + 1.0 / ((1.0 - self.lam) * m)
        if self.kind == "generalized":
            return self.pi0.value
        # storey_type_sigma
        span = (1.0 - self.lam) * m
        if not 0.0 <= self.sigma <= span * self.pi0.raw:
            raise ValueError(
                "sigma must lie in [0, (1 - lambda) * m * pi0_raw]"
            )
        shifted = self.pi0.raw - self.sigma / span
        return min(1.0, max(0.0, shifted))

    def _caps_at_one(self) -> bool:
        return self.kind in ("generalized", "storey_type_sigma")


def evaluate_fdr(est: FdrEstimator, proc: RejectionProcess, t: float) -> float:
    """Value of the named FDR estimator at threshold ``t``."""
    if not 0.0 <= t <= 1.0:
        raise ValueError("t must lie in [0, 1]")
    if est.kind == "storey_variant" and t > est.lam:
        return 1.0
    r = proc.rejections(t)
    base = est.multiplier(proc.m) * t * proc.m / max(r, 1)
    if est._caps_at_one():
        return min(1.0, base)
    return base


@dataclass(frozen=True)
class ThresholdResult:
    """Threshold of an FDR estimator at a level, with its rejections.

    ``fdr_at_t`` never exceeds the level the threshold was computed
    for; it equals the level to within 1e-12 whenever the pi0
    multiplier exceeds the level and at least one hypothesis is
    rejected. For plain step-up procedures, which carry no estimator,
    ``fdr_at_t`` is NaN.
    """

    t_alpha: float
    fdr_at_t: float
    rejections: int
    rejected: np.ndarray


def _nudge_down(f, t: float, floor: float, alpha: float) -> float | None:
    """Step ``t`` down by ulps until ``f(t) <= alpha``; None if stuck."""
    for _ in range(_MAX_NUDGES):
        if f(t) <= alpha:
            return t
        if t <= floor:
            return None
        t = float(np.nextafter(t, 0.0))
        if t < floor:
            return None
    return None


def threshold(
    est: FdrEstimator, proc: RejectionProcess, alpha: float
) -> ThresholdResult:
    """Largest ``t`` with estimator value at most ``alpha``, exactly.

    Within each interval where the rejection count is a constant
    ``T_j``, the estimator is ``mult * t * m / T_j``, so the feasible
    region there is ``t <= alpha * T_j / (m * mult)``. The scan starts
    at the rightmost interval and returns the first candidate that
    lies inside its interval, descending by ulps where floating-point
    round-off would otherwise push the estimator a hair above
    ``alpha``. This guarantees ``f(t_alpha) <= alpha`` in float
    arithmetic while keeping ``|f(t_alpha) - alpha| <= 1e-12`` when
    the equality contract applies.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must lie in [0, 1]")
    m = proc.m
    mult = est.multiplier(m)

    def f(t: float) -> float:
        return evaluate_fdr(est, proc, t)

    def result(t: float) -> ThresholdResult:
        return ThresholdResult(
            t_alpha=t,
            fdr_at_t=f(t),
            rejections=proc.rejections(t),
            rejected=proc.rejected_indices(t),
        )

    if mult <= 0.0:
        return result(1.0)
    if alpha >= 1.0 and (est._caps_at_one() or est.kind == "storey_variant"):
        return result(1.0)

    # The variant is pinned at 1 beyond lam, so its feasible region for
    # alpha < 1 stops there.
    cap = est.lam if est.kind == "storey_variant" else 1.0

    distinct = proc.distinct
    cum = proc.cum
    n = distinct.shape[0]
    scale = m * mult

    # Interval j (1-based) is [distinct[j-1], distinct[j]) with
    # rejection count cum[j-1]; the rightmost interval is closed at 1.
    j_hi = int(np.searchsorted(distinct, cap, side="right"))
    for j in range(j_hi, 0, -1):
        left = float(distinct[j - 1])
        if j == n:
            right = 1.0
        else:
            right = float(np.nextafter(float(distinct[j]), 0.0))
        right = min(right, cap)
        cand = alpha * float(cum[j - 1]) / scale
        t = min(cand, right)
        if t < left:
            continue
        t = _nudge_down(f, t, left, alpha)
        if t is not None:
            return result(t)

    # Interval [0, p_(1)): no rejections, estimator is mult * t * m.
    right = cap
    if n > 0 and distinct[0] <= cap:
        right = float(np.nextafter(float(distinct[0]), 0.0))
    t = min(alpha / scale, right)
    t = _nudge_down(f, t, 0.0, alpha)
    if t is None:
        t = 0.0
    return result(t)


def bh_procedure(
    pvalues: Sequence[float] | np.ndarray, alpha: float
) -> ThresholdResult:
    """Linear step-up procedure at level ``alpha``.

    Rejects the hypotheses with the ``k*`` smallest p-values, where
    ``k*`` is the largest ``k`` with ``p_(k) <= k * alpha / m`` (0 if
    none). ``fdr_at_t`` is NaN: no estimator is attached.
    """
    values = np.asarray(pvalues, dtype=np.float64)
    if values.ndim != 1 or values.shape[0] < 1:
        raise ValueError("at least one p-value is required")
    if np.any(values <= 0.0) or np.any(values > 1.0):
        raise ValueError("p-values must lie in (0, 1]")
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must lie in [0, 1]")
    m = values.shape[0]
    ordered = np.sort(values)
    ok = ordered <= np.arange(1, m + 1) * (alpha / m)
    if not np.any(ok):
        return ThresholdResult(0.0, math.nan, 0, np.empty(0, dtype=np.int64))
    k_star = int(np.flatnonzero(ok)[-1]) + 1
    t = float(ordered[k_star - 1])
    rejected = np.flatnonzero(values <= t)
    return ThresholdResult(t, math.nan, k_star, rejected)


def adaptive_bh(
    pvalues: Sequence[float] | np.ndarray, alpha: float, pi0: Pi0Estimate
) -> ThresholdResult:
    """Step-up procedure at level ``min(1, alpha / pi0.value)``."""
    if pi0.value <= 0.0:
        raise ValueError("adaptive level undefined: pi0 estimate is zero")
    return bh_procedure(pvalues, min(1.0, alpha / pi0.value))

