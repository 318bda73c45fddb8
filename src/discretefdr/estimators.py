"""Estimators of the proportion of true null hypotheses.

Five estimators are provided. ``storey_pi0`` is the classical
exceedance-count estimator for a tuning parameter ``lambda``.
``generalized_pi0`` subtracts the discreteness-induced bias term using
each hypothesis's null p-value support: a discrete null puts no mass
on the gap between ``lambda`` and the largest attainable p-value below
it, and the generalized estimator removes exactly that gap, weighted
by per-hypothesis constants ``epsilon``. ``pounds_tilde_pi0`` doubles
the mean p-value, ``pounds_hat_pi0`` rescales each p-value by its null
expectation, and ``benjamini_pi0`` uses the median order statistic.

Estimates report both the raw value and the value clipped to [0, 1].
With ``epsilon = 0``, or when every support is empty (a continuous
uniform null), ``generalized_pi0`` equals ``storey_pi0`` bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np


def _first_equal(flat, start, length) -> np.ndarray:
    """For every support of a layout, the first support equal to it.

    Only supports of one length and one smallest element can be equal,
    so only those are compared, one length at a time.
    """
    k = length.shape[0]
    smallest = np.full(k, -1.0)
    nonempty = length > 0
    smallest[nonempty] = flat[start[nonempty]]
    order = np.lexsort((smallest, length))
    tied = (np.diff(length[order]) == 0) & (np.diff(smallest[order]) == 0)
    candidate = np.zeros(k, dtype=bool)
    candidate[order[1:][tied]] = True
    candidate[order[:-1][tied]] = True
    first = np.arange(k)
    candidates = np.flatnonzero(candidate)
    for n in np.unique(length[candidates]).tolist():
        ks = candidates[length[candidates] == n]
        if n == 0:
            first[ks] = ks[0]
            continue
        rows = flat[start[ks, None] + np.arange(n)]
        _, at, inverse = np.unique(
            rows.view(np.dtype((np.void, 8 * n))).ravel(),
            return_index=True,
            return_inverse=True,
        )
        first[ks] = ks[at[inverse.reshape(-1)]]
    return first


class Study:
    """P-values with their null supports, optionally with truth labels.

    ``truth`` marks each hypothesis as a true null (True) or a false
    null (False); it is only used by simulation oracles, never by the
    estimators themselves.

    Hypotheses whose tests share a null law share a support, so each
    distinct support is stored once, in compressed rows: distinct
    support ``k`` is ``support_flat[support_start[k]: support_start[k]
    + support_len[k]]``, and hypothesis ``i`` has distinct support
    ``support_index[i]``. The distinct supports are laid out by
    ascending length, so the supports of one length form one
    contiguous 2-D block. Per-support statistics are computed
    blockwise, once per distinct support, and gathered through
    ``support_index``. The flat array is read-only because hypotheses
    share its slices.
    """

    def __init__(
        self,
        pvalues: Sequence[float] | np.ndarray,
        supports: Sequence[np.ndarray],
        truth: Sequence[bool] | np.ndarray | None = None,
    ) -> None:
        supports = [np.asarray(s, dtype=np.float64) for s in supports]
        length = np.array([s.shape[0] for s in supports], dtype=np.int64)
        flat = np.concatenate(supports) if supports else np.empty(0)
        self._store(pvalues, flat, np.cumsum(length) - length, length, truth)

    @classmethod
    def from_distinct(
        cls,
        pvalues: np.ndarray,
        support_flat: np.ndarray,
        support_start: np.ndarray,
        support_len: np.ndarray,
        truth: Sequence[bool] | np.ndarray | None = None,
    ) -> "Study":
        """Build a study from the batch kernels' layout.

        Hypothesis ``i``'s support is ``support_flat[support_start[i]:
        support_start[i] + support_len[i]]``, where ``support_flat``
        holds each distinct support once and hypotheses that share a
        support share its slice.
        """
        study = cls.__new__(cls)
        study._store(pvalues, support_flat, support_start, support_len, truth)
        return study

    def _store(self, pvalues, flat, start, length, truth) -> None:
        self.pvalues = np.asarray(pvalues, dtype=np.float64)
        if self.pvalues.ndim != 1 or self.pvalues.shape[0] < 1:
            raise ValueError("a study needs at least one p-value")
        flat = np.asarray(flat, dtype=np.float64)
        start = np.asarray(start, dtype=np.int64)
        length = np.asarray(length, dtype=np.int64)
        if length.shape[0] != self.pvalues.shape[0]:
            raise ValueError("supports and p-values must align")
        # read each shared slice once, then merge slices with equal contents
        slot = start * (flat.shape[0] + 1) + length
        _, at, index = np.unique(slot, return_index=True, return_inverse=True)
        start, length = start[at], length[at]
        first = _first_equal(flat, start, length)
        # store each distinct support once, laid out by ascending length
        kept = np.flatnonzero(first == np.arange(length.shape[0]))
        kept = kept[np.argsort(length[kept], kind="stable")]
        position = np.empty(length.shape[0], dtype=np.int64)
        position[kept] = np.arange(kept.shape[0])
        self.support_len = length[kept]
        self.support_start = np.cumsum(self.support_len) - self.support_len
        shift = np.repeat(start[kept] - self.support_start, self.support_len)
        self.support_flat = flat[shift + np.arange(shift.shape[0])]
        self.support_index = position[first[index.reshape(-1)]]
        self.support_flat.flags.writeable = False
        if truth is None:
            self.truth = None
        else:
            self.truth = np.asarray(truth, dtype=bool)
            if self.truth.shape[0] != self.pvalues.shape[0]:
                raise ValueError("truth labels and p-values must align")

    @property
    def m(self) -> int:
        return self.pvalues.shape[0]

    def distinct_supports(self) -> list[np.ndarray]:
        """Every distinct support once, in ``support_index`` order."""
        return [
            self.support_flat[a : a + n]
            for a, n in zip(self.support_start.tolist(), self.support_len.tolist())
        ]

    @property
    def supports(self) -> list[np.ndarray]:
        """The support of every hypothesis (read-only shared views)."""
        distinct = self.distinct_supports()
        return [distinct[k] for k in self.support_index.tolist()]

    def support_floor(self, lam: float) -> np.ndarray:
        """Largest support element at most ``lam``, per hypothesis.

        Hypotheses whose support has no element at most ``lam`` get 0;
        hypotheses with an empty support (uniform null) get ``lam``.
        """
        # supports are increasing, so the elements at most lam are a
        # prefix of each row; count them with one cumulative sum
        at_most = np.concatenate(([0], np.cumsum(self.support_flat <= lam)))
        count = (
            at_most[self.support_start + self.support_len]
            - at_most[self.support_start]
        )
        floor = np.zeros(self.support_len.shape[0])
        hit = count > 0
        floor[hit] = self.support_flat[self.support_start[hit] + count[hit] - 1]
        floor[self.support_len == 0] = lam
        return floor[self.support_index]


@dataclass(frozen=True)
class Pi0Estimate:
    """An estimate of the proportion of true nulls.

    ``raw`` is the pre-clipping value (it may fall outside [0, 1] and
    is infinite for the median estimator when the median p-value is
    1); ``value`` is clipped to [0, 1].
    """

    method: str
    raw: float
    value: float
    lam: float | None = None
    epsilon: float | np.ndarray | None = None

    def to_json_dict(self) -> dict:
        if self.epsilon is None:
            eps: object = None
        elif np.ndim(self.epsilon) == 0:
            eps = float(self.epsilon)
        else:
            arr = np.asarray(self.epsilon, dtype=np.float64)
            eps = {
                "min": float(arr.min()),
                "max": float(arr.max()),
                "mean": float(arr.mean()),
            }
        return {
            "method": self.method,
            "raw": self.raw,
            "value": self.value,
            "lambda": self.lam,
            "epsilon": eps,
        }


def _clip01(x: float) -> float:
    if x < 0.0:
        return 0.0
    if x > 1.0:
        return 1.0
    return x


def _denominator(lam: float, m: int) -> float:
    return (1.0 - lam) * m


def _check_lambda(lam: float) -> None:
    if not 0.0 <= lam < 1.0:
        raise ValueError("lambda must lie in [0, 1)")


def storey_pi0(study: Study, lam: float) -> Pi0Estimate:
    """Exceedance-count estimator: count(p > lambda) scaled.

    The raw value can exceed 1; the clipped value is in [0, 1].
    """
    _check_lambda(lam)
    count = int(np.count_nonzero(study.pvalues > lam))
    raw = count / _denominator(lam, study.m)
    return Pi0Estimate("storey", raw, _clip01(raw), lam=lam)


def generalized_pi0(
    study: Study, lam: float, epsilon: float | np.ndarray
) -> Pi0Estimate:
    """Discreteness-adjusted exceedance estimator.

    Subtracts, per hypothesis, ``epsilon_i`` times the gap between
    ``lam`` and the largest support element at most ``lam``. With
    ``epsilon = 0``, or when every support is empty, this reproduces
    :func:`storey_pi0` exactly.

    Bias: the estimate is the sum of the terms
    ``1{p_i > lam} - epsilon_i * (lam - floor_i)`` over
    ``(1 - lam) * m``, where ``floor_i`` is the largest support element
    at most ``lam``. Given its conditioning total, a true null's p-value
    is at most ``lam`` with probability ``floor_i`` (minimum-likelihood
    convention and uniform nulls; at most ``floor_i`` under doubling),
    so its term has expectation ``1 - floor_i - epsilon_i * (lam -
    floor_i)``: exactly ``1 - lam`` at ``epsilon_i = 1`` and at least
    that for smaller weights. A false null's term has expectation
    ``P(p_i > lam) - epsilon_i * (lam - floor_i)``, which is negative
    once ``P(p_i > lam) < epsilon_i * (lam - floor_i)``, as under strong
    signal. The true nulls thus never bias the estimate downward, while
    false nulls can pull it below the true proportion when ``lam`` and
    ``epsilon`` are chosen badly.
    """
    _check_lambda(lam)
    eps = np.asarray(epsilon, dtype=np.float64)
    if eps.ndim == 0:
        eps_arr: np.ndarray | float = float(eps)
        if not 0.0 <= float(eps) <= 1.0:
            raise ValueError("epsilon must lie in [0, 1]")
    else:
        if eps.shape[0] != study.m:
            raise ValueError("per-hypothesis epsilon must have length m")
        if np.any(eps < 0.0) or np.any(eps > 1.0):
            raise ValueError("epsilon must lie in [0, 1]")
        eps_arr = eps
    indicator, gap = _exceedance_parts(study, lam)
    raw = _adjusted_raw(indicator, gap, eps_arr, lam)
    return Pi0Estimate(
        "generalized", raw, _clip01(raw), lam=lam, epsilon=epsilon
    )


def _exceedance_parts(study: Study, lam: float) -> tuple[np.ndarray, np.ndarray]:
    """The adjusted estimator's per-hypothesis parts at ``lam``: the
    exceedance indicators ``1{p_i > lam}`` and the floor gaps
    ``lam - floor_i``."""
    indicator = (study.pvalues > lam).astype(np.float64)
    return indicator, lam - study.support_floor(lam)


def _adjusted_raw(
    indicator: np.ndarray, gap: np.ndarray, epsilon, lam: float
) -> float:
    """Unclipped adjusted estimate from its per-hypothesis parts."""
    terms = indicator - epsilon * gap
    return float(np.sum(terms)) / _denominator(lam, indicator.shape[0])


def pounds_tilde_pi0(study: Study) -> Pi0Estimate:
    """Twice the mean p-value, capped at 1 (two-sided p-values)."""
    raw = 2.0 * float(np.mean(study.pvalues))
    return Pi0Estimate("pounds_tilde", raw, _clip01(raw))


def _support_means(flat, start, length) -> np.ndarray:
    """Null expected p-value of every support of a layout sorted by length.

    The terms ``t_k * (t_k - t_{k-1})`` are formed over the flat array at
    once. The supports of one length are then one C-contiguous block, and
    a block's row sums equal each support's own pairwise sum.
    """
    gaps = np.diff(flat, prepend=0.0)
    heads = start[length > 0]
    gaps[heads] = flat[heads]
    terms = flat * gaps
    means = np.full(length.shape[0], 0.5)
    bounds = (np.flatnonzero(np.diff(length)) + 1).tolist()
    for a, b in zip([0, *bounds], [*bounds, length.shape[0]]):
        n = int(length[a])
        if n:
            at = int(start[a])
            means[a:b] = terms[at : at + (b - a) * n].reshape(b - a, n).sum(axis=1)
    return means


def pounds_hat_pi0(study: Study) -> Pi0Estimate:
    """Mean of p-values rescaled by their null expectations, capped.

    Each expectation is computed once per distinct support, one block
    of supports of a length at a time.
    """
    per_support = _support_means(
        study.support_flat, study.support_start, study.support_len
    )
    expectations = per_support[study.support_index]
    raw = float(np.mean(study.pvalues / expectations))
    return Pi0Estimate("pounds_hat", raw, _clip01(raw))


def benjamini_pi0(study: Study) -> Pi0Estimate:
    """Median-based estimator of the proportion of true nulls.

    Uses the order statistic at rank floor(m/2). When that p-value is
    1 the formula is singular; the estimate is then set to 1, the
    maximally conservative value, since discrete p-values reach 1
    routinely.
    """
    m = study.m
    if m < 2:
        raise ValueError("the median estimator needs at least two p-values")
    k = m // 2
    pk = float(np.sort(study.pvalues)[k - 1])
    if pk >= 1.0:
        return Pi0Estimate("benjamini", math.inf, 1.0)
    raw = (m - k + 1) / (m * (1.0 - pk))
    return Pi0Estimate("benjamini", raw, _clip01(raw))
