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

Each estimator is computed row-wise (``storey_rows``, ``adjusted_rows``
and so on) on a block of studies of equal size, one study per row, and
returns one raw estimate per row. The estimator table lives here:
``ESTIMATORS`` maps each name to its rows function, the tuning
parameters it takes and the fewest p-values it is defined from, and
every caller reads it: ``compute_pi0`` and the ``*_pi0`` functions,
which are the one-row case, and the simulation's block evaluation.
Estimates report both the raw value and the value clipped to [0, 1].
With ``epsilon = 0``, or when every support is empty (a continuous
uniform null), ``generalized_pi0`` equals ``storey_pi0`` bit for bit.

A ``Study`` stores each support slice it is given once, never merging
by content: one per kernel law (``Study.from_distinct``), or one per
hypothesis (``Study(pvalues, supports)``). ``Study.exceedance_parts``
forms the adjusted estimator's parts from them, for the estimator table
and for bootstrap tuning alike.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._kernels import TIE_RTOL, _check_name, group_keys


class Study:
    """P-values with their null supports, optionally with truth labels.

    ``truth`` marks each hypothesis as a true null (True) or a false
    null (False); it is only used by simulation oracles, never by the
    estimators themselves.

    Each support slice given is stored once (so each law of the
    kernels' layout once), in compressed rows: stored support ``k`` is
    ``support_flat[support_start[k]: support_start[k] + support_len[k]]``,
    and hypothesis ``i`` has stored support ``support_index[i]``.
    The stored supports are laid out by ascending length, then by the
    start of the slice given, so the supports of one length form one
    contiguous 2-D block. Per-support statistics are computed blockwise,
    once per stored support, and gathered through ``support_index``.
    The flat array is read-only because hypotheses share its slices.

    A slice is known by its start and whether it is empty, never by its
    contents. Every slice given must lie within the flat array, and the
    nonempty slices that start at one place must have one length, as
    valid supports do: each is strictly increasing and ends at 1, so it
    ends at the first 1 from its start. Any other layout raises a
    :class:`ValueError`. The slices are found by one ``group_keys`` call
    on ``2 * start + (length > 0)``, which puts an empty slice before a
    nonempty one at its start, and one stable sort of the stored
    supports' lengths orders them.
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
        holds each law's support once and hypotheses that share a law
        share its slice. Each slice is stored once, as given, under the
        layout rules of :class:`Study`: a slice lies within
        ``support_flat``, and nonempty slices with one start have one
        length, or a :class:`ValueError` is raised.
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
        if np.any((start < 0) | (length < 0) | (start > flat.shape[0] - length)):
            raise ValueError("a support slice lies outside support_flat")
        # one slot per start and emptiness, in ascending start, an empty
        # slice before a nonempty one at one start
        keys, slot = group_keys(2 * start + (length > 0))
        starts = keys >> 1
        slot_len = np.zeros(starts.shape[0], dtype=np.int64)
        slot_len[slot] = length
        if not np.array_equal(slot_len[slot], length):
            raise ValueError("support slices that start at one point differ in length")
        # by ascending length, then start
        order = np.argsort(slot_len, kind="stable")
        position = np.empty_like(order)
        position[order] = np.arange(order.shape[0])
        self.support_len = slot_len[order]
        self.support_start = np.cumsum(self.support_len) - self.support_len
        shift = np.repeat(starts[order] - self.support_start, self.support_len)
        self.support_flat = flat[shift + np.arange(shift.shape[0])]
        self.support_index = position[slot]
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
        """Every stored support once, in ``support_index`` order."""
        return [
            self.support_flat[a : a + n]
            for a, n in zip(self.support_start.tolist(), self.support_len.tolist())
        ]

    @property
    def supports(self) -> list[np.ndarray]:
        """The support of every hypothesis (read-only shared views)."""
        distinct = self.distinct_supports()
        return [distinct[k] for k in self.support_index.tolist()]

    def support_floor(self, lam) -> np.ndarray:
        """Largest support element at most ``lam``, per hypothesis.

        Hypotheses whose support has no element at most ``lam`` get 0;
        hypotheses with an empty support (uniform null) get ``lam``.
        ``lam`` is one value, or a 1-D array of values in any order, for
        which the floors come as one row per value, each row bitwise the
        floors of its value alone.

        Supports are increasing, so the elements at most ``lam`` are a
        prefix of each stored support; the floor is its last element.
        One ``np.add.reduceat`` at the stored supports' starts counts
        every prefix, over ``support_flat <= lam`` with one row per
        value, for one value and an array alike.
        ``benchmarks/bench_io.py`` times it on its 15 000-row ``fet``
        table (97 818 support points) at 0.35 ms for one value and 4.8 ms
        for ``tune``'s 20 default values (medians of 300 interleaved
        calls, 2-vCPU host).
        """
        return self._stored_floor(lam).take(self.support_index, axis=-1)

    def _stored_floor(self, lam) -> np.ndarray:
        """The floors of :meth:`support_floor` once per stored support:
        hypothesis ``i``'s is at ``[..., support_index[i]]``."""
        lams = np.asarray(lam, dtype=np.float64)
        if lams.ndim > 1:
            raise ValueError("an array of lambdas must be 1-D")
        flat, start = self.support_flat, self.support_start
        length = self.support_len
        # the empty supports come first and count no point
        first = int(np.searchsorted(length, 0, side="right"))
        count = np.zeros((*lams.shape, length.shape[0]), dtype=np.intp)
        count[..., first:] = np.add.reduceat(
            flat <= lambda_cut(lams[..., None]), start[first:], axis=-1, dtype=np.intp
        )
        floor = np.zeros(count.shape)
        hit = count > 0
        floor[hit] = flat[(start + count - 1)[hit]]
        # a point within the cut's tolerance above lam is lam: no gap
        np.minimum(floor, lams[..., None], out=floor)
        np.copyto(floor, lams[..., None], where=length == 0)
        return floor

    def exceedance_parts(self, lam) -> np.ndarray:
        """The adjusted estimator's parts at ``lam`` (one value or a 1-D
        array, as for :meth:`support_floor`), as one ``(..., 2, m)`` array:
        row 0 holds the exceedance indicators ``1{p_i > lam}``, row 1 the
        floor gaps ``lam - floor_i``. The stored supports' floors are
        gathered one value at a time, so no ``(..., m)`` floors are held
        beside the parts."""
        floor = self._stored_floor(lam)
        lams = np.asarray(lam, dtype=np.float64)
        parts = np.empty((*lams.shape, 2, self.m))
        np.greater(self.pvalues, lambda_cut(lams[..., None]), out=parts[..., 0, :])
        for at in np.ndindex(lams.shape):
            np.subtract(lams[at], floor[at].take(self.support_index), out=parts[at][1])
        return parts

    def support_mean(self) -> np.ndarray:
        """Null expected p-value, per hypothesis: computed once per
        distinct support, one block of supports of a length at a time.
        Hypotheses with an empty support (uniform null) get 1/2."""
        means = _support_means(self.support_flat, self.support_start, self.support_len)
        return means[self.support_index]


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


def lambda_cut(lam):
    """The cut that decides "at most ``lam``": a p-value or support point
    counts as at most ``lam`` when it is at most ``lam * (1 + TIE_RTOL)``.

    An exact p-value equal to ``lam`` (a tie such as 1/2 at the default
    cutoff) computes on either side of it by a few ulps, depending on
    summation order and the libm, so a plain ``p > lam`` would let
    rounding decide the exceedance count and the support floor. The
    tolerance is the kernels' ``TIE_RTOL``, within which they already
    count two probabilities as tied, far above that rounding. Only
    ``lam`` (one value or an array of them) is widened, so no array of
    p-values is formed anew; every comparison with ``lam`` takes this
    cut: the exceedance indicators (``storey_rows``,
    ``Study.exceedance_parts``), the support floors (``Study.support_floor``,
    each clamped to at most ``lam``), ``sim.bias_decomposition`` and the
    pinned FDR estimator of ``fdr``.
    """
    return lam * (1.0 + TIE_RTOL)


def _clip01(x):
    """``x`` clipped to [0, 1], elementwise (NaN stays NaN)."""
    return np.clip(x, 0.0, 1.0)


def _one(method: str, raw: np.ndarray, lam, epsilon) -> Pi0Estimate:
    """The estimate of a one-row block, with the tuning parameters
    ``method`` takes."""
    given = {"lam": lam, "epsilon": epsilon}
    tuning = {name: given[name] for name in ESTIMATORS[method][1]}
    return Pi0Estimate(method, float(raw[0]), float(_clip01(raw)[0]), **tuning)


def _denominator(lam: float, m: int) -> float:
    return (1.0 - lam) * m


def _check_tuning(tuning, m: int, lam, epsilon) -> None:
    """Refuse ``lam`` or ``epsilon`` out of range for studies of ``m``
    p-values, where ``tuning`` names it."""
    if "lam" in tuning and not 0.0 <= lam < 1.0:
        raise ValueError("lambda must lie in [0, 1)")
    if "epsilon" in tuning:
        eps = np.asarray(epsilon)
        if eps.ndim and eps.shape[0] != m:
            raise ValueError("per-hypothesis epsilon must have length m")
        if not np.all((0.0 <= eps) & (eps <= 1.0)):
            raise ValueError("epsilon must lie in [0, 1]")


def _check_defined(method: str, m: int) -> None:
    """Refuse studies of ``m`` p-values, too few for estimator ``method``."""
    fewest = ESTIMATORS[method][2]
    if m < fewest:
        raise ValueError(
            f"the {method} estimator needs at least {fewest} p-values; m = {m}"
        )


# Row-wise raw estimates: each takes one study per row of an (R, m)
# block and returns the R unclipped estimates. A row's reduction of a
# C-contiguous block is bitwise the same as reducing that row alone.


def storey_rows(pvalues: np.ndarray, lam: float) -> np.ndarray:
    """Raw exceedance-count estimates: count(p > lambda) scaled."""
    count = np.count_nonzero(pvalues > lambda_cut(lam), axis=-1)
    return count / _denominator(lam, pvalues.shape[-1])


def adjusted_rows(indicator: np.ndarray, gap: np.ndarray, epsilon, lam) -> np.ndarray:
    """Raw discreteness-adjusted estimates from their per-hypothesis
    parts, the exceedance indicators and floor gaps of
    :meth:`Study.exceedance_parts`."""
    terms = indicator - epsilon * gap
    return np.sum(terms, axis=-1) / _denominator(lam, indicator.shape[-1])


def pounds_tilde_rows(pvalues: np.ndarray) -> np.ndarray:
    """Twice the mean p-value of each row."""
    return 2.0 * np.mean(pvalues, axis=-1)


def pounds_hat_rows(pvalues: np.ndarray, expectation: np.ndarray) -> np.ndarray:
    """Mean of each row's p-values over their null expectations."""
    return np.mean(pvalues / expectation, axis=-1)


def benjamini_rows(pvalues: np.ndarray) -> np.ndarray:
    """Median-based estimates, from the order statistic at rank
    floor(m/2) of each row (m at least 2); inf where it is 1."""
    m = pvalues.shape[-1]
    k = m // 2
    pk = np.partition(pvalues, k - 1, axis=-1)[..., k - 1]
    with np.errstate(divide="ignore"):
        raw = (m - k + 1) / (m * (1.0 - pk))
    return np.where(pk >= 1.0, math.inf, raw)


#: Each estimator by name: its raw estimates of a block of studies, as a
#: function of ``(study, values, lam, epsilon)``, where ``values`` holds
#: the study's hypotheses ``m`` to a row (so a per-hypothesis array of
#: the study takes the block's shape); the tuning parameters it takes,
#: which are checked and kept in its estimate; and the fewest p-values
#: it is defined from. The entries look the row-wise functions up as
#: module globals at call time.
ESTIMATORS = {
    "storey": (lambda study, values, lam, eps: storey_rows(values, lam), ("lam",), 1),
    "generalized": (
        lambda study, values, lam, eps: adjusted_rows(
            *study.exceedance_parts(lam).reshape(2, *values.shape), eps, lam
        ),
        ("lam", "epsilon"),
        1,
    ),
    "pounds_tilde": (lambda study, values, lam, eps: pounds_tilde_rows(values), (), 1),
    "pounds_hat": (
        lambda study, values, lam, eps: pounds_hat_rows(
            values, study.support_mean().reshape(values.shape)
        ),
        (),
        1,
    ),
    "benjamini": (lambda study, values, lam, eps: benjamini_rows(values), (), 2),
}


def compute_pi0(study: Study, method: str, lam, epsilon) -> Pi0Estimate:
    """The named estimate of one study: the one-row case of its entry in
    :data:`ESTIMATORS`, which says whether ``lam`` and ``epsilon`` are
    checked and kept in the estimate."""
    _check_name(method, tuple(ESTIMATORS), "pi0 method")
    rows, tuning, _ = ESTIMATORS[method]
    _check_tuning(tuning, study.m, lam, epsilon)
    _check_defined(method, study.m)
    raw = rows(study, study.pvalues[None, :], lam, epsilon)
    return _one(method, raw, lam, epsilon)


def storey_pi0(study: Study, lam: float) -> Pi0Estimate:
    """Exceedance-count estimator: count(p > lambda) scaled.

    The raw value can exceed 1; the clipped value is in [0, 1].
    """
    return compute_pi0(study, "storey", lam, None)


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
    return compute_pi0(study, "generalized", lam, epsilon)


def pounds_tilde_pi0(study: Study) -> Pi0Estimate:
    """Twice the mean p-value, capped at 1 (two-sided p-values)."""
    return compute_pi0(study, "pounds_tilde", None, None)


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
    """Mean of p-values rescaled by their null expectations, capped."""
    return compute_pi0(study, "pounds_hat", None, None)


def benjamini_pi0(study: Study) -> Pi0Estimate:
    """Median-based estimator of the proportion of true nulls.

    Uses the order statistic at rank floor(m/2). When that p-value is
    1 the formula is singular; the estimate is then set to 1, the
    maximally conservative value, since discrete p-values reach 1
    routinely.
    """
    return compute_pi0(study, "benjamini", None, None)
