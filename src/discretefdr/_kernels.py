"""Conditional null laws of the exact tests and their p-value tables.

Each test conditions on a key that fixes its null law: the total ``n``
for the binomial test, the margins ``(r1, r2, s)`` for the
hypergeometric test and the total ``s`` for the negative-binomial test.
The unnormalized log-weights of each law are written once, in
``binomial_laws``, ``fisher_laws`` and ``negbinom_laws``, for an array
of distinct keys at a time, from the log-gamma values of ``_lgamma``
(bit for bit those of scipy's ``gammaln``, without importing scipy).
Each returns ``(length, logw)``: law ``k`` has ``length[k]`` outcomes,
and ``logw(rows, j)`` gives the laws ``rows`` (a column) at outcome
offsets ``j`` (a block). Only the batch kernels build laws from these;
every other caller (the single tests, the simulations and the exact
bias enumeration in ``sim``) goes through the batch kernels.

Two two-sided conventions turn a law into a table of outcome p-values:

* minimum likelihood: the p-value of an outcome is the total null
  probability of all outcomes whose null probability does not exceed
  its own. Probability ties are detected with a relative tolerance of
  ``TIE_RTOL`` so that outcomes with mathematically equal
  probabilities (for example symmetric pairs computed through
  floating-point log-gamma) fall into the same tie class;
* tail doubling: twice the smaller tail, capped at 1.

``tables`` builds the table and the support (the sorted distinct
p-values) of many laws at once. Under both conventions a law of ``n``
outcomes is padded with zero weights to the next power of two, and
each width's laws are built as one 2-D block, with no Python loop per
law. Zero weights sort first and add nothing to any running sum, so
padding changes no bit of a minimum-likelihood table or of a doubling
tail. The one sum that padding would change is a doubling law's total
(numpy sums pairwise, and a longer row takes another summation path),
so each total is summed over its law's own length: one slice sum per
distinct length in a block.

The batch kernels group the features by conditioning key and build one
law per distinct key. They return ``(pvalues, support_flat,
support_start, support_len)``: feature ``i``'s support is
``support_flat[support_start[i]: support_start[i] + support_len[i]]``.
``support_flat`` holds each distinct key's support once, so features
that share a key share one slice and no support is copied per feature;
``estimators.Study.from_distinct`` takes the layout as is.

The kernels accept conditioned totals up to ``MAX_TOTAL`` (2^22 - 1):
the total ``x1 + x2`` of the binomial test, each margin ``r1``, ``r2`` of
the hypergeometric test and the total ``s1 + s2`` of the
negative-binomial test. A padded minimum-likelihood law then has at most
2^22 entries; on a 2-vCPU host one law at the limit takes about 1.6 s
(binomial) or 3 s (negative binomial) and a peak of about 430 MB to
build. Up to about 1.7 s of that is ``math.log``, which ``_lgamma``
calls once per entry of the law's log-factorial table (and of the
negative-binomial log-gamma table). A larger total raises a
:class:`ValueError` naming the limit; the check never forms a sum that
could wrap in int64.

Counts are exact for conditioned totals up to a few thousand. Beyond
that, extreme-tail p-values fall below the float64 range (at a binomial
total of about 1 100) and compute as exactly 0.0. ``tables`` raises each
such entry to the smallest positive float, ``FLOOR``: the entries merge
into one support point below every other, the true p-value does not
exceed it, so the null still dominates the uniform, and every support
stays in (0, 1]. No entry that computes above 0.0 changes.
"""

from __future__ import annotations

import math

import numpy as np

from ._lgamma import gammaln, log_factorials

TIE_RTOL = 1e-12

#: Tie-class depth scanned blockwise; deeper ties are searched per law.
_MAX_TIE_DEPTH = 8

#: Most entries (laws times width) built in one block, to bound memory.
_BLOCK_ENTRIES = 1 << 18

#: The smallest positive float: the p-value of outcomes whose exact
#: p-value is below the float64 range.
FLOOR = float(np.nextafter(0.0, 1.0))

#: The largest conditioned total (or hypergeometric margin) of a law.
MAX_TOTAL = 2**22 - 1


# ---------------------------------------------------------------------------
# null laws
# ---------------------------------------------------------------------------


def binomial_laws(n):
    """Binomial(n, 1/2) over the outcomes ``0..n``, for every total."""
    n = np.asarray(n, dtype=np.int64)
    lf = log_factorials(int(n.max(initial=0)))

    def logw(rows, j):
        nn = n[rows]
        return lf[nn] - lf[j] - lf[nn - j]

    return n + 1, logw


def fisher_laws(r1, r2, s):
    """Hypergeometric laws of ``a`` given margins ``(r1, r2, s)``.

    The outcomes run over the attainable range ``lo..hi`` with
    ``lo = max(0, s - r2)`` and ``hi = min(r1, s)``.
    """
    r1, r2, s = (np.asarray(v, dtype=np.int64) for v in (r1, r2, s))
    lo = np.maximum(0, s - r2)
    lf = log_factorials(int(max(r1.max(initial=0), r2.max(initial=0))))

    def logw(rows, j):
        n1, n2, t = r1[rows], r2[rows], s[rows]
        a = lo[rows] + j
        return (lf[n1] - lf[a] - lf[n1 - a]) + (
            lf[n2] - lf[t - a] - lf[n2 - (t - a)]
        )

    return np.minimum(r1, s) - lo + 1, logw


def negbinom_laws(s, shape_total: float):
    """Laws of the split ``a`` of a negative-binomial total ``s``.

    Proportional to ``C(a + k - 1, a) * C(s - a + k - 1, s - a)`` with
    ``k = shape_total``; the common mean cancels.
    """
    s = np.asarray(s, dtype=np.int64)
    k = float(shape_total)
    s_max = int(s.max(initial=0))
    rising = gammaln(np.arange(s_max + 1) + k)
    if not np.isfinite(rising).all():
        raise ValueError(
            f"shape_total {k!r} gives log-weights beyond the float64 range"
        )
    left = rising - log_factorials(s_max) - math.lgamma(k)

    def logw(rows, j):
        return left[j] + left[s[rows] - j]

    return s + 1, logw


# ---------------------------------------------------------------------------
# outcome p-value tables, one block of laws at a time
# ---------------------------------------------------------------------------


def _tie_end(sw: np.ndarray) -> np.ndarray:
    """Per row of sorted weights, the last ``j`` with
    ``sw[j] <= sw[i] * (1 + TIE_RTOL)`` for every ``i``.

    Zero weights are skipped: whatever their tie class, the running sum
    there is 0. Tie classes deeper than ``_MAX_TIE_DEPTH`` are searched
    one row at a time.
    """
    q = sw * (1.0 + TIE_RTOL)
    q[sw == 0.0] = -1.0
    cols = np.arange(sw.shape[1])
    end = np.repeat(cols[None, :], sw.shape[0], axis=0)
    for d in range(1, sw.shape[1]):
        hit = sw[:, d:] <= q[:, :-d]
        if not hit.any():
            break
        if d > _MAX_TIE_DEPTH:
            for r in np.flatnonzero(hit.any(axis=1)):
                found = np.searchsorted(sw[r], q[r], side="right") - 1
                end[r] = np.maximum(found, cols)
            break
        # sw is sorted, so a hit at depth d implies hits at every depth below
        end[:, :-d] += hit
    return end


def _minlik_block(w: np.ndarray, length: np.ndarray) -> np.ndarray:
    """Minimum-likelihood tables of a block of weight rows; zero padding
    changes no bit, so ``length`` is not needed."""
    order = np.argsort(w, axis=1, kind="stable")
    sw = np.take_along_axis(w, order, axis=1)
    cw = np.cumsum(sw, axis=1)
    sorted_pv = np.take_along_axis(cw, _tie_end(sw), axis=1) / cw[:, -1:]
    out = np.empty_like(w)
    np.put_along_axis(out, order, sorted_pv, axis=1)
    return out


def _doubling_block(w: np.ndarray, length: np.ndarray) -> np.ndarray:
    """Tail-doubling tables of a block of zero-padded weight rows; row
    ``r`` holds a law of ``length[r]`` outcomes.

    Each row's total is summed over its own length, as one slice sum per
    distinct length: the padded row would take another pairwise path.
    """
    total = np.empty((w.shape[0], 1))
    order = np.argsort(length, kind="stable")
    for rows in np.split(order, np.flatnonzero(np.diff(length[order])) + 1):
        total[rows, 0] = w[rows, : length[rows[0]]].sum(axis=1)
    probs = w / total
    lower = np.cumsum(probs, axis=1)
    upper = np.cumsum(probs[:, ::-1], axis=1)[:, ::-1]
    return np.minimum(1.0, 2.0 * np.minimum(lower, upper))


def _widths(length: np.ndarray) -> np.ndarray:
    """The next power of two of each law's length, so that few widths
    cover every length."""
    return np.left_shift(1, np.ceil(np.log2(length)).astype(np.int64))


def _blocks(width: np.ndarray):
    """Indices of the laws of one width, in blocks of at most
    ``_BLOCK_ENTRIES`` entries, or of one law when it is wider."""
    if width.shape[0] == 0:
        return
    order = np.argsort(width, kind="stable")
    for group in np.split(order, np.flatnonzero(np.diff(width[order])) + 1):
        step = max(1, _BLOCK_ENTRIES // int(width[group[0]]))
        for a in range(0, group.shape[0], step):
            yield group[a : a + step]


def tables(laws, convention: str = "minlik"):
    """Outcome p-value table and support of every law.

    ``laws`` is ``(length, logw)`` as the ``*_laws`` builders return it.
    Returns ``(table_flat, table_start, support_flat, support_start,
    support_len)``: law ``k``'s table is ``table_flat[table_start[k]:
    table_start[k] + length[k]]``, indexed by outcome offset, and its
    support, the table's sorted distinct values, is the matching slice
    of ``support_flat``.
    """
    length, law_logw = laws
    block_of = {"minlik": _minlik_block, "doubling": _doubling_block}[convention]
    table_start = np.cumsum(length) - length
    table_flat = np.empty(int(length.sum()))
    support_start = np.empty(length.shape[0], dtype=np.int64)
    support_len = np.empty(length.shape[0], dtype=np.int64)
    pieces = []
    filled = 0
    width = _widths(length)
    for rows in _blocks(width):
        rows = rows[:, None]
        n = length[rows]
        cols = np.arange(width[rows[0, 0]])
        pad = cols >= n
        logw = law_logw(rows, np.minimum(cols, n - 1))
        logw[pad] = -np.inf
        block = block_of(np.exp(logw - logw.max(axis=1, keepdims=True)), n[:, 0])
        keep = ~pad
        block[keep & (block == 0.0)] = FLOOR
        table_flat[(table_start[rows] + cols)[keep]] = block[keep]
        # supports: sort each row, padding last, and mask equal neighbours
        block[pad] = np.inf
        block.sort(axis=1)
        keep[:, 1:] &= block[:, 1:] != block[:, :-1]
        pieces.append(block[keep])
        count = keep.sum(axis=1)
        support_len[rows[:, 0]] = count
        support_start[rows[:, 0]] = filled + np.cumsum(count) - count
        filled += int(count.sum())
    support_flat = np.concatenate(pieces) if pieces else np.empty(0)
    return table_flat, table_start, support_flat, support_start, support_len


def _batch(make_laws, keys, observed, convention):
    """P-values of every feature and the shared slice of its support.

    ``keys`` holds one conditioning key per feature (a row, or a
    scalar); ``make_laws(*columns)`` builds the laws of the distinct
    keys. ``observed[i]`` is feature ``i``'s outcome offset in its law.
    """
    keys = np.asarray(keys, dtype=np.int64)
    if keys.ndim == 1:
        keys = keys[:, None]
    # sort the keys once; each run of equal keys is one law
    order = np.lexsort(keys.T[::-1])
    ranked = keys[order]
    new = np.ones(order.shape[0], dtype=bool)
    new[1:] = np.any(ranked[1:] != ranked[:-1], axis=1)
    inverse = np.empty_like(order)
    inverse[order] = np.cumsum(new) - 1
    table_flat, table_start, flat, start, length = tables(
        make_laws(*ranked[new].T), convention
    )
    pvalues = table_flat[table_start[inverse] + observed]
    return pvalues, flat, start[inverse], length[inverse]


# ---------------------------------------------------------------------------
# batch kernels
# ---------------------------------------------------------------------------

def _check_total(x1, x2) -> None:
    """Raise unless every ``x1 + x2`` is at most ``MAX_TOTAL``; the sum
    itself is not formed, so it cannot wrap."""
    if np.any(x2 > MAX_TOTAL - x1):
        raise ValueError(
            f"a conditioned total exceeds the largest supported total {MAX_TOTAL}"
        )


def batch_binomial(x1, x2, convention: str = "minlik"):
    """Symmetric conditional binomial test for every count pair.

    Given pair ``(x1[i], x2[i])``, conditions on ``n = x1 + x2`` and
    evaluates outcome ``a = x1`` against Binomial(n, 1/2).
    """
    x1 = np.asarray(x1, dtype=np.int64)
    x2 = np.asarray(x2, dtype=np.int64)
    _check_total(x1, x2)
    return _batch(binomial_laws, x1 + x2, x1, convention)


def batch_fisher(x1, r1, x2, r2, convention: str = "minlik"):
    """Conditional hypergeometric test for every 2x2 table.

    Margins ``(r1[i], r2[i], s = x1 + x2)`` fix the attainable range of
    ``a = x1``; the null law of ``a`` is hypergeometric.
    """
    x1 = np.asarray(x1, dtype=np.int64)
    r1 = np.asarray(r1, dtype=np.int64)
    x2 = np.asarray(x2, dtype=np.int64)
    r2 = np.asarray(r2, dtype=np.int64)
    if np.any(r1 > MAX_TOTAL) or np.any(r2 > MAX_TOTAL):
        raise ValueError(f"trials exceed the largest supported total {MAX_TOTAL}")
    ss = x1 + x2
    lo = np.maximum(0, ss - r2)
    return _batch(fisher_laws, np.column_stack((r1, r2, ss)), x1 - lo, convention)


def batch_negbinom(s1, s2, shape_total, convention: str = "minlik"):
    """Conditional test of two negative-binomial group sums.

    Each group sum is modeled as NegBinomial with shape ``shape_total``
    (per-sample shape times samples per group) and a common mean under
    the null. Conditional on ``s = s1 + s2`` the mean cancels and the
    null weight of a split ``a`` is given by :func:`negbinom_laws`.
    ``shape_total`` must be finite and positive, with log-gamma values
    in the float64 range (from about 5.6e-309 to 2.56e305); any other
    raises a :class:`ValueError` naming it.
    """
    s1 = np.asarray(s1, dtype=np.int64)
    s2 = np.asarray(s2, dtype=np.int64)
    _check_total(s1, s2)
    k = float(shape_total)
    if not 0.0 < k < math.inf:
        raise ValueError(f"shape_total must be a finite positive number, not {k!r}")
    return _batch(lambda s: negbinom_laws(s, k), s1 + s2, s1, convention)


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
