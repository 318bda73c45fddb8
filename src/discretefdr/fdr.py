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

``threshold`` computes ``sup { t : f(t) <= alpha }`` exactly from the
intervals where ``R`` is constant, instead of stepping a grid. On each
interval ``f`` is linear in ``t``, so the supremum there is a
closed-form candidate, and whether it lies inside its interval is one
vectorised comparison over all intervals at once. Only the feasible
candidates are then nudged down by ulps onto the feasible side of
``alpha``, right to left, falling back to the next one in the rare case
a nudge fails. At the returned threshold the estimator equals ``alpha``
to within 1e-12 whenever the multiplier exceeds ``alpha`` and at least
one hypothesis is rejected.

The step-up procedures read their cutoff off the same sorted distinct
p-values: the largest step-up count is always a running total of the
multiplicities, so no second sort of the p-values is needed.

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
        # written so that NaN, which fails every comparison, fails it too
        if not np.all((values > 0.0) & (values <= 1.0)):
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


def _nudge_down(
    f, t: float, floor: float, alpha: float
) -> tuple[float, float] | None:
    """Step ``t`` down by ulps until ``f(t) <= alpha``.

    Returns ``(t, f(t))``, or None if stuck.
    """
    for _ in range(_MAX_NUDGES):
        value = f(t)
        if value <= alpha:
            return t, value
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
    region there is ``t <= alpha * T_j / (m * mult)``. For every
    interval at once, the candidate ``min(alpha * T_j / (m * mult),
    right_j)`` is feasible when it is not below the interval's left end.
    The feasible candidates are then taken right to left and the first
    whose descent by ulps (where floating-point round-off would
    otherwise push the estimator a hair above ``alpha``) succeeds is
    returned; the interval below the smallest p-value is the last
    resort. This guarantees ``f(t_alpha) <= alpha`` in float
    arithmetic while keeping ``|f(t_alpha) - alpha| <= 1e-12`` when
    the equality contract applies.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must lie in [0, 1]")
    m = proc.m
    mult = est.multiplier(m)

    def f(t: float) -> float:
        return evaluate_fdr(est, proc, t)

    def result(t: float, value: float | None = None) -> ThresholdResult:
        return ThresholdResult(
            t_alpha=t,
            fdr_at_t=f(t) if value is None else value,
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
    n = distinct.shape[0]
    scale = m * mult

    # Interval j (0-based) is [distinct[j], distinct[j+1]) with rejection
    # count cum[j]; the rightmost interval is closed at 1.
    j_hi = int(np.searchsorted(distinct, cap, side="right"))
    left = distinct[:j_hi]
    right = np.nextafter(distinct[1 : j_hi + 1], 0.0)
    if j_hi == n:
        right = np.append(right, 1.0)
    cand = np.minimum(alpha * proc.cum[:j_hi] / scale, np.minimum(right, cap))
    for j in np.flatnonzero(cand >= left)[::-1]:
        found = _nudge_down(f, float(cand[j]), float(left[j]), alpha)
        if found is not None:
            return result(*found)

    # Interval [0, p_(1)): no rejections, estimator is mult * t * m.
    right = cap
    if n > 0 and distinct[0] <= cap:
        right = float(np.nextafter(float(distinct[0]), 0.0))
    found = _nudge_down(f, min(alpha / scale, right), 0.0, alpha)
    return result(0.0) if found is None else result(*found)


def bh_procedure(
    pvalues: Sequence[float] | np.ndarray | RejectionProcess, alpha: float
) -> ThresholdResult:
    """Linear step-up procedure at level ``alpha``.

    Rejects the hypotheses with the ``k*`` smallest p-values, where
    ``k*`` is the largest ``k`` with ``p_(k) <= k * alpha / m`` (0 if
    none). ``fdr_at_t`` is NaN: no estimator is attached. ``pvalues``
    may be a prebuilt :class:`RejectionProcess`, which is used as is.

    Within a block of tied p-values the step-up condition only gets
    easier as the count grows, so ``k*`` is the running total at the
    end of some block: ``k* = cum[j*]`` for the last ``j*`` with
    ``distinct[j*] <= cum[j*] * alpha / m``.
    """
    proc = (
        pvalues
        if isinstance(pvalues, RejectionProcess)
        else build_rejection_process(pvalues)
    )
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must lie in [0, 1]")
    ok = np.flatnonzero(proc.distinct <= proc.cum * (alpha / proc.m))
    if ok.shape[0] == 0:
        return ThresholdResult(0.0, math.nan, 0, np.empty(0, dtype=np.int64))
    j = ok[-1]
    t = float(proc.distinct[j])
    return ThresholdResult(t, math.nan, int(proc.cum[j]), proc.rejected_indices(t))


def adaptive_bh(
    pvalues: Sequence[float] | np.ndarray | RejectionProcess,
    alpha: float,
    pi0: Pi0Estimate,
) -> ThresholdResult:
    """Step-up procedure at level ``min(1, alpha / pi0.value)``."""
    if pi0.value <= 0.0:
        raise ValueError("adaptive level undefined: pi0 estimate is zero")
    return bh_procedure(pvalues, min(1.0, alpha / pi0.value))
