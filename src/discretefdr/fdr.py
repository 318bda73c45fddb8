"""FDR estimators, exact threshold computation, and step-up procedures.

The rejection process ``R(t)`` counts p-values at most ``t``. Each
procedure is one row of :data:`PROCEDURES`: the estimate it runs on,
its pi0 multiplier, the settings that multiplier reads and its rule. An
FDR estimator is ``mult * t / (m^-1 * max(R(t), 1))`` under its rule;
a ``step`` row is the linear step-up procedure at ``min(1, alpha /
mult)``. :func:`solve_thresholds` runs any row, and ``FDR_KINDS``,
:class:`FdrEstimator` and ``sim`` read the table.

P-values are held as a :class:`PValueBlock`: ``R`` studies of ``m``
p-values each, one per row, sorted row by row once. Every solver works
row-wise on a block, over the intervals of all rows at once; a
:class:`RejectionProcess` holds one study as a one-row block, and
``threshold``, ``bh_procedure`` and ``adaptive_bh`` are the one-row
case.

``solve_thresholds`` computes ``sup { t : f(t) <= alpha }`` exactly
from the intervals where ``R`` is constant, instead of stepping a grid.
On each interval ``f`` is linear in ``t``, so the supremum there is a
closed-form candidate, and whether it lies inside its interval is one
comparison. Each row's last feasible candidate is then nudged down by
ulps onto the feasible side of ``alpha``, all rows together, and a row
moves to its next feasible candidate in the rare case a nudge fails.
The rejection count is the chosen interval's running total, so the
p-values are not scanned again. At the returned threshold the
estimator equals ``alpha`` to within 1e-12 whenever the multiplier
exceeds ``alpha`` and at least one hypothesis is rejected.

``step_up`` reads each row's step-up cutoff off the same intervals: the
largest step-up count is always a running total of the multiplicities,
so no second sort of the p-values is needed.

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

from .estimators import Pi0Estimate, _check_tuning, _clip01, _denominator


def _sigma_multiplier(raw, value, m, lam, sigma):
    """The exceedance estimate less the offset ``sigma / ((1 - lam) m)``,
    clipped to [0, 1]."""
    span = _denominator(lam, m)
    if not np.all((0.0 <= sigma) & (sigma <= span * raw)):
        raise ValueError("sigma must lie in [0, (1 - lambda) * m * pi0_raw]")
    return _clip01(raw - sigma / span)


#: Each procedure as (the estimate it runs on, None for pi0 = 1; its pi0
#: multiplier from the estimate's ``raw`` and clipped ``value``, floats or
#: one per row, and ``m, lam, sigma``; the settings the multiplier reads;
#: its rule). The estimator is capped at 1 (``cap``), 1 beyond ``lam``
#: (``pin``) or neither (None); a ``step`` row is the linear step-up
#: procedure at level ``min(1, alpha / mult)``.
PROCEDURES = {
    "generalized": ("generalized", lambda raw, value, *_: value, (), "cap"),
    "storey": ("storey", lambda raw, *_: raw, (), None),
    "storey_variant": (
        "storey",
        lambda raw, value, m, lam, sigma: raw + 1.0 / _denominator(lam, m),
        ("lam",),
        "pin",
    ),
    "storey_type_sigma": ("storey", _sigma_multiplier, ("lam", "sigma"), "cap"),
    "bh": (None, lambda raw, value, *_: value, (), "step"),
    "adaptive_bh": ("benjamini", lambda raw, value, *_: value, (), "step"),
}
FDR_KINDS = tuple(name for name, row in PROCEDURES.items() if row[3] != "step")

#: Maximum ulp-steps when descending onto the feasible side of alpha.
_MAX_NUDGES = 64


class PValueBlock:
    """``R`` studies of ``m`` p-values each, one study per row.

    ``values`` is the (R, m) block as given, sorted row by row once to
    find the intervals. The intervals on which a row's rejection count is
    constant are laid out flat, row after row (``row``): first
    ``[0, p_(1))``, where nothing is rejected, then one interval from
    each distinct p-value up to just below the next one (up to 1 for
    the largest). ``left`` holds their left ends, ``rejections`` the
    rejection count on each and ``count`` the estimator's divisor
    ``max(R(t), 1)``. The p-value at which an interval starts ends a
    block of ties in the sorted row, so its rejection count is the
    running total there. Instances are immutable after construction.
    """

    def __init__(self, pvalues: np.ndarray) -> None:
        values = np.asarray(pvalues, dtype=np.float64)
        if values.ndim != 2 or 0 in values.shape:
            raise ValueError("at least one p-value is required")
        # written so that NaN, which fails every comparison, fails it too
        if not np.all((values > 0.0) & (values <= 1.0)):
            raise ValueError("p-values must lie in (0, 1]")
        rows, m = values.shape
        ordered = np.sort(values, axis=1)
        self.values, self.rows, self.m = values, rows, m
        # column p of a row is the interval with rejection count p; it
        # exists for p = 0 and where ordered[p - 1] ends a block of ties
        starts = np.ones((rows, m + 1), dtype=bool)
        np.not_equal(ordered[:, :-1], ordered[:, 1:], out=starts[:, 1:m])
        at = np.flatnonzero(starts)
        per_row = np.count_nonzero(starts, axis=1)
        self.row = np.repeat(np.arange(rows), per_row)
        self.rejections = at - self.row * (m + 1)
        self.count = np.maximum(self.rejections, 1)
        # interval p starts at column p of [0, ordered]; it runs up to
        # just below the next interval's start, the value that follows
        # its block of ties, and the last interval of a row up to 1
        starts_at = np.zeros((rows, m + 1))
        starts_at[:, 1:] = ordered
        self.left = starts_at.ravel()[at]
        self._per_row = per_row
        self._first = np.cumsum(per_row) - per_row
        self._last = self._first + per_row - 1
        self._index = np.arange(at.shape[0])

    def last(self, mask: np.ndarray) -> np.ndarray:
        """Per row, the flat index of its last interval where ``mask``
        holds along its last axis, or -1 if there is none."""
        marked = np.where(mask, self._index, -1)
        return np.maximum.reduceat(marked, self._first, axis=-1)

class RejectionProcess:
    """Sorted distinct p-values with multiplicities.

    Evaluates the rejection count ``R(t)`` in O(log n) and the scaled
    inverse rejection process in closed form. ``block`` is the study as
    a one-row :class:`PValueBlock`, on which the solvers run. Instances
    are immutable after construction and safe for concurrent reads.
    """

    def __init__(self, pvalues: np.ndarray) -> None:
        values = np.asarray(pvalues, dtype=np.float64)
        if values.ndim != 1:  # the block refuses an empty row
            raise ValueError("at least one p-value is required")
        self.block = PValueBlock(values[None, :])
        self.values = values
        # the intervals past [0, p_(1)) start at the distinct p-values
        self.distinct = self.block.left[1:]
        self.cum = self.block.rejections[1:]
        self.mult = np.diff(self.cum, prepend=0)
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
    """Scaled inverse rejection process ``t / max(R(t), 1)``: ``t`` below
    the smallest p-value, then ``t / T_j`` on each interval where the
    rejection count is the running total ``T_j``."""
    if not 0.0 <= t <= 1.0:
        raise ValueError("t must lie in [0, 1]")
    return t / max(proc.rejections(t), 1)


@dataclass(frozen=True)
class FdrEstimator:
    """A named FDR estimator: a row of :data:`PROCEDURES` that is not a
    step-up procedure, with its estimate and settings.

    ``pi0`` is the estimate whose raw or clipped value feeds the
    multiplier; ``lam`` and ``sigma`` are the settings the row's
    multiplier reads (``lam`` also ends the variant's feasible region).
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
        settings = PROCEDURES[self.kind][2]
        for setting in settings:
            if getattr(self, setting) is None:
                raise ValueError(f"{self.kind} requires {setting}")
        _check_tuning(settings, 0, self.lam, None)

    def multiplier(self, m: int) -> float:
        """The effective pi0 multiplier for a study of size ``m``."""
        multiplier = PROCEDURES[self.kind][1]
        return float(multiplier(self.pi0.raw, self.pi0.value, m, self.lam, self.sigma))


def evaluate_fdr(est: FdrEstimator, proc: RejectionProcess, t: float) -> float:
    """Value of the named FDR estimator at threshold ``t``."""
    if not 0.0 <= t <= 1.0:
        raise ValueError("t must lie in [0, 1]")
    count = max(proc.rejections(t), 1)
    mult = est.multiplier(proc.m)
    return float(_fdr_values(PROCEDURES[est.kind][3], mult, est.lam, proc.m, t, count))


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


def _fdr_values(rule, mult, lam, m, t, count):
    """The estimator's values at ``t`` where ``max(R(t), 1)`` is ``count``:
    ``mult * t * m / count``, under the procedure's ``rule``."""
    value = mult * t * m / count
    if rule == "cap":
        value = np.minimum(1.0, value)
    if rule == "pin":
        value = np.where(t > lam, 1.0, value)
    return value


def _nudge_down(rule, mult, lam, m, count, t, floor, alpha):
    """Step every candidate ``t`` down by ulps until the estimator, with
    multipliers ``mult`` and divisors ``count``, is at most its ``alpha``.

    Returns the stepped ``t`` and whether each candidate got there; one
    fails once it would step below its ``floor`` or after
    ``_MAX_NUDGES`` values above ``alpha``. Usually no step is needed.
    """
    done = _fdr_values(rule, mult, lam, m, t, count) <= alpha
    if done.all():
        return t, done
    live = np.flatnonzero(~done)
    t = t.copy()
    for _ in range(_MAX_NUDGES - 1):
        live = live[t[live] > floor[live]]
        if live.shape[0] == 0:
            break
        t[live] = np.nextafter(t[live], 0.0)
        live = live[t[live] >= floor[live]]
        ok = _fdr_values(rule, mult[live], lam, m, t[live], count[live]) <= alpha[live]
        done[live[ok]] = True
        live = live[~ok]
    return t, done


def solve_thresholds(
    block: PValueBlock, kind: str, mult: np.ndarray, lam: float | None, alpha
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per level and row, procedure ``kind`` of :data:`PROCEDURES` at
    the levels ``alpha`` (one, or an array), all solved at once.

    ``mult`` holds each row's pi0 multiplier and ``lam`` is the setting
    the row's rule reads. Returns, each of shape ``alpha.shape + (rows,)``,
    the thresholds, the estimator's values there (NaN for a ``step``
    row, which runs :func:`step_up` at ``min(1, alpha / mult)``) and the
    rejection counts; a level's are the bits a call at it alone gives.

    For an FDR estimator, the threshold is the largest ``t`` with
    estimator value at most ``alpha``. Within each interval where the
    rejection count is a constant ``T_j``, the estimator is ``mult * t *
    m / max(T_j, 1)``, so the feasible region there is ``t <= alpha *
    max(T_j, 1) / (m * mult)``. For the intervals of every row and level
    at once, the candidate ``min(alpha * max(T_j, 1) / (m * mult),
    right_j)`` is feasible when it is not below the interval's left end.
    Each (level, row)'s last feasible candidate is then descended by
    ulps (where floating-point round-off would otherwise push the
    estimator a hair above ``alpha``), all together; one whose descent
    fails moves to its next feasible candidate, and one with none left
    gets 0. This guarantees ``f(t_alpha) <= alpha`` in float arithmetic
    while keeping ``|f(t_alpha) - alpha| <= 1e-12`` when the equality
    contract applies. A row whose multiplier is not positive, or any row
    at ``alpha`` 1 of an estimator that never exceeds 1, gets ``t = 1``.
    """
    alpha = np.asarray(alpha, dtype=np.float64)
    if not np.all((0.0 <= alpha) & (alpha <= 1.0)):
        raise ValueError("alpha must lie in [0, 1]")
    shape, level = alpha.shape + (block.rows,), alpha.reshape(-1, 1)
    m, row = block.m, block.row
    mult = np.asarray(mult, dtype=np.float64)
    rule = PROCEDURES[kind][3]
    if rule == "step":
        if np.any(mult <= 0.0):
            raise ValueError("adaptive level undefined: pi0 estimate is zero")
        t, rejections = step_up(block, np.minimum(1.0, level / mult))
        return t.reshape(shape), np.full(shape, math.nan), rejections.reshape(shape)
    # per (level, row): rows that reject everything divide by a stand-in
    # and stay infeasible
    everything = (mult <= 0.0) | ((level >= 1.0) & (rule is not None))
    some = everything.any()
    scale = np.where(everything, 1.0, m * mult) if some else m * mult
    scale = np.repeat(scale, block._per_row, axis=-1)  # onto the intervals
    # The variant is pinned at 1 beyond lam, so its feasible region for
    # alpha < 1 stops there.
    cap = lam if rule == "pin" else 1.0
    # right_j >= left_j, so min(bound_j, right_j) >= left_j iff bound_j is
    bound = level * block.count
    np.minimum(np.divide(bound, scale, out=bound), cap, out=bound)
    feasible = bound >= block.left
    if some:
        feasible &= ~np.repeat(everything, block._per_row, axis=-1)

    t = np.where(everything, 1.0, 0.0)
    rejections = np.where(everything, m, 0)
    chosen = block.last(feasible).ravel()
    pending = np.flatnonzero(chosen >= 0)  # flat (level, row) indices
    while pending.shape[0]:
        at, lvl = chosen[pending], pending // block.rows
        last = at == block._last[row[at]]  # a row's last interval ends at 1
        right = np.where(last, 1.0, np.nextafter(block.left[at + 1 - last], 0.0))
        stepped, done = _nudge_down(
            rule, mult[row[at]], lam, m, block.count[at],
            np.minimum(bound[lvl, at], right), block.left[at], level[lvl, 0],
        )
        np.put(t, pending[done], stepped[done])
        np.put(rejections, pending[done], block.rejections[at[done]])
        # rare: a failed one moves to its next feasible candidate
        pending = pending[~done]
        if pending.shape[0]:
            feasible[lvl[~done], at[~done]] = False
            chosen = block.last(feasible).ravel()
            pending = pending[chosen[pending] >= 0]
    value = _fdr_values(rule, mult, lam, m, t, np.maximum(rejections, 1))
    return t.reshape(shape), value.reshape(shape), rejections.reshape(shape)


def step_up(block: PValueBlock, level: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per row, the linear step-up cutoff at that row's ``level``, of
    shape (rows,) or, for several levels at once, (levels, rows).

    Returns each row's threshold ``p_(k*)`` and ``k*``, the largest
    ``k`` with ``p_(k) <= k * level / m`` (``(0, 0)`` if none). Within a
    block of tied p-values the condition only gets easier as the count
    grows, so ``k*`` is the running total at the end of some block: the
    rejection count of the last interval whose left end ``p`` satisfies
    ``p <= T * level / m``. The interval ``[0, p_(1))`` always does.
    """
    level = np.asarray(level, dtype=np.float64)
    if not np.all((0.0 <= level) & (level <= 1.0)):
        raise ValueError("alpha must lie in [0, 1]")
    level = np.repeat(level / block.m, block._per_row, axis=-1)  # onto the intervals
    at = block.last(block.left <= block.rejections * level)
    return block.left[at], block.rejections[at]


def _solve_one(kind, pvalues, alpha, pi0=None, lam=None, sigma=None):
    """Procedure ``kind`` on one study at level ``alpha``: the one-row
    case of :func:`solve_thresholds`, run on the estimate ``pi0`` (None
    for pi0 = 1). ``pvalues`` may be a prebuilt :class:`RejectionProcess`,
    which is used as is."""
    # the level is checked before the multiplier, which may refuse sigma
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must lie in [0, 1]")
    proc = (
        pvalues
        if isinstance(pvalues, RejectionProcess)
        else build_rejection_process(pvalues)
    )
    raw, value = (1.0, 1.0) if pi0 is None else (pi0.raw, pi0.value)
    mult = PROCEDURES[kind][1](raw, value, proc.m, lam, sigma)
    (t,), (fdr_at_t,), (count,) = solve_thresholds(
        proc.block, kind, np.array([mult], dtype=np.float64), lam, alpha
    )
    t = float(t)
    return ThresholdResult(t, float(fdr_at_t), int(count), proc.rejected_indices(t))


def threshold(
    est: FdrEstimator, proc: RejectionProcess, alpha: float
) -> ThresholdResult:
    """Largest ``t`` with estimator value at most ``alpha``, exactly."""
    return _solve_one(est.kind, proc, alpha, est.pi0, est.lam, est.sigma)


def bh_procedure(
    pvalues: Sequence[float] | np.ndarray | RejectionProcess, alpha: float
) -> ThresholdResult:
    """Linear step-up procedure at level ``alpha``.

    Rejects the hypotheses with the ``k*`` smallest p-values, where
    ``k*`` is the largest ``k`` with ``p_(k) <= k * alpha / m`` (0 if
    none). ``fdr_at_t`` is NaN: no estimator is attached. ``pvalues``
    may be a prebuilt :class:`RejectionProcess`, which is used as is.
    """
    return _solve_one("bh", pvalues, alpha)


def adaptive_bh(
    pvalues: Sequence[float] | np.ndarray | RejectionProcess,
    alpha: float,
    pi0: Pi0Estimate,
) -> ThresholdResult:
    """Step-up procedure at level ``min(1, alpha / pi0.value)``."""
    return _solve_one("adaptive_bh", pvalues, alpha, pi0)
