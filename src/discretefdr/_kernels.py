"""Conditional null laws of the exact tests and their p-value tables.

Each test conditions on a key that fixes its null law: the total ``n``
for the binomial test, the margins ``(r1, r2, s)`` for the
hypergeometric test and the total ``s`` for the negative-binomial test.
The unnormalized log-weights of each law are written once, in
``logw_binomial``, ``logw_fisher`` and ``logw_negbinom``; every caller
(the batch kernels, the single tests through them, and the exact bias
enumeration in ``sim``) builds its laws from these.

Two two-sided conventions turn a law into a table of outcome p-values:

* minimum likelihood (``outcome_pvalues``): the p-value of an outcome
  is the total null probability of all outcomes whose null probability
  does not exceed its own. Probability ties are detected with a
  relative tolerance of ``TIE_RTOL`` so that outcomes with
  mathematically equal probabilities (for example symmetric pairs
  computed through floating-point log-gamma) fall into the same tie
  class;
* tail doubling (``doubling_pvalues``): twice the smaller tail, capped
  at 1.

The batch kernels group the features by conditioning key with
``np.unique``, build one outcome table and one support per distinct
key, and fill in every feature by indexing. Batch results use a
flattened per-feature layout because supports have variable length:
``(pvalues, support_flat, support_start, support_len)`` where
hypothesis ``i`` owns ``support_flat[support_start[i]:
support_start[i] + support_len[i]]``. The slices do not overlap, so
writing to one feature's support cannot change another's.

Counts are exact for conditioned totals up to a few thousand; far
beyond that, extreme-tail probabilities can underflow float64 after
the log-weight shift.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import gammaln

TIE_RTOL = 1e-12


# ---------------------------------------------------------------------------
# null laws
# ---------------------------------------------------------------------------


def logw_binomial(n) -> np.ndarray:
    """Log-weights of Binomial(n, 1/2) over the outcomes ``0..n``."""
    a = np.arange(n + 1)
    return gammaln(n + 1.0) - gammaln(a + 1.0) - gammaln(n - a + 1.0)


def logw_fisher(r1, r2, s) -> np.ndarray:
    """Hypergeometric log-weights of ``a`` given margins ``(r1, r2, s)``.

    The outcomes run over the attainable range ``lo..hi`` with
    ``lo = max(0, s - r2)`` and ``hi = min(r1, s)``.
    """
    a = np.arange(max(0, s - r2), min(r1, s) + 1)
    return (gammaln(r1 + 1.0) - gammaln(a + 1.0) - gammaln(r1 - a + 1.0)) + (
        gammaln(r2 + 1.0) - gammaln(s - a + 1.0) - gammaln(r2 - (s - a) + 1.0)
    )


def logw_negbinom(s, shape_total: float) -> np.ndarray:
    """Log-weights of the split ``a`` of a negative-binomial total ``s``.

    Proportional to ``C(a + k - 1, a) * C(s - a + k - 1, s - a)`` with
    ``k = shape_total``; the common mean cancels.
    """
    a = np.arange(s + 1)
    left = gammaln(a + shape_total) - gammaln(a + 1.0) - math.lgamma(shape_total)
    return left + left[::-1]


# ---------------------------------------------------------------------------
# outcome p-value tables
# ---------------------------------------------------------------------------


def outcome_pvalues(logw: np.ndarray) -> np.ndarray:
    """Minimum-likelihood p-value of every outcome of one discrete null.

    Parameters
    ----------
    logw : ndarray
        Unnormalized log-probabilities of the outcomes. Any additive
        constant cancels.

    Returns
    -------
    ndarray
        ``out[a]`` is the two-sided p-value of outcome ``a``. The modal
        outcome gets exactly 1.0.
    """
    w = np.exp(logw - logw.max())
    sw = np.sort(w)
    cw = np.cumsum(sw)
    total = cw[-1]
    idx = np.searchsorted(sw, w * (1.0 + TIE_RTOL), side="right") - 1
    return cw[idx] / total


def doubling_pvalues(logw: np.ndarray) -> np.ndarray:
    """Tail-doubling p-value of every outcome: ``min(1, 2 * smaller tail)``."""
    w = np.exp(logw - logw.max())
    probs = w / w.sum()
    lower = np.cumsum(probs)
    upper = np.cumsum(probs[::-1])[::-1]
    return np.minimum(1.0, 2.0 * np.minimum(lower, upper))


_TABLES = {"minlik": outcome_pvalues, "doubling": doubling_pvalues}


def pvalue_tables(build, keys: np.ndarray, convention: str = "minlik"):
    """Outcome p-value table of every distinct conditioning key.

    ``keys`` holds one key per row (or one scalar key per element);
    ``build(*key)`` returns the key's log-weights. Returns the distinct
    keys, sorted, the index of each input row's key among them, and one
    table per distinct key.
    """
    keys = np.asarray(keys, dtype=np.int64)
    if keys.ndim == 1:
        # sorting plain integers is several times faster than sorting rows
        uniq, inverse = np.unique(keys, return_inverse=True)
        uniq = uniq[:, None]
    else:
        uniq, inverse = np.unique(keys, axis=0, return_inverse=True)
    table = _TABLES[convention]
    tables = [table(build(*key)) for key in uniq.tolist()]
    return uniq, inverse.reshape(-1), tables


def as_csr(arrays) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Concatenate 1-D arrays into ``(flat, start, length)``."""
    length = np.array([a.shape[0] for a in arrays], dtype=np.int64)
    start = np.cumsum(length) - length
    flat = np.concatenate(arrays) if arrays else np.empty(0)
    return flat, start, length


def _batch(build, keys, observed, convention):
    """Per-feature p-values and supports from one table per distinct key.

    ``observed[i]`` is feature ``i``'s position in its key's table.
    """
    _, inverse, tables = pvalue_tables(build, keys, convention)
    table_flat, table_start, _ = as_csr(tables)
    pvals = table_flat[table_start[inverse] + observed]
    sup_flat, sup_start, sup_len = as_csr([np.unique(t) for t in tables])
    length = sup_len[inverse]
    start = np.cumsum(length) - length
    gather = np.repeat(sup_start[inverse] - start, length)
    flat = sup_flat[gather + np.arange(gather.shape[0])]
    return pvals, flat, start, length


# ---------------------------------------------------------------------------
# batch kernels
# ---------------------------------------------------------------------------


def batch_binomial(x1, x2, convention: str = "minlik"):
    """Symmetric conditional binomial test for every count pair.

    Given pair ``(x1[i], x2[i])``, conditions on ``n = x1 + x2`` and
    evaluates outcome ``a = x1`` against Binomial(n, 1/2).
    """
    x1 = np.asarray(x1, dtype=np.int64)
    x2 = np.asarray(x2, dtype=np.int64)
    return _batch(logw_binomial, x1 + x2, x1, convention)


def batch_fisher(x1, r1, x2, r2, convention: str = "minlik"):
    """Conditional hypergeometric test for every 2x2 table.

    Margins ``(r1[i], r2[i], s = x1 + x2)`` fix the attainable range of
    ``a = x1``; the null law of ``a`` is hypergeometric.
    """
    x1 = np.asarray(x1, dtype=np.int64)
    r1 = np.asarray(r1, dtype=np.int64)
    x2 = np.asarray(x2, dtype=np.int64)
    r2 = np.asarray(r2, dtype=np.int64)
    ss = x1 + x2
    lo = np.maximum(0, ss - r2)
    return _batch(
        logw_fisher, np.column_stack((r1, r2, ss)), x1 - lo, convention
    )


def batch_negbinom(s1, s2, shape_total, convention: str = "minlik"):
    """Conditional test of two negative-binomial group sums.

    Each group sum is modeled as NegBinomial with shape ``shape_total``
    (per-sample shape times samples per group) and a common mean under
    the null. Conditional on ``s = s1 + s2`` the mean cancels and the
    null weight of a split ``a`` is given by :func:`logw_negbinom`.
    """
    s1 = np.asarray(s1, dtype=np.int64)
    s2 = np.asarray(s2, dtype=np.int64)
    k = float(shape_total)
    return _batch(lambda s: logw_negbinom(s, k), s1 + s2, s1, convention)


def using_numba() -> bool:
    """Always False: every kernel runs on numpy. Kept for callers."""
    return False


def warm_up() -> None:
    """Run each batch kernel once on tiny inputs.

    Pays one-time first-call costs before timed sections.
    """
    one = np.array([1], dtype=np.int64)
    two = np.array([2], dtype=np.int64)
    batch_binomial(one, two)
    batch_fisher(one, two, one, two)
    batch_negbinom(one, two, 3.0)
