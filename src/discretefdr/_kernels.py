"""Conditional null laws of the exact tests and their p-value tables.

Each test conditions on a key that fixes its null law: the total ``n``
for the binomial test, the margins ``(r1, r2, s)`` for the
hypergeometric test and the total ``s`` for the negative-binomial test.
Each family's log coefficient is written once:
``log_binomial_coefficients`` (``log C(n, j)`` from a log-factorial
table) and ``log_negbinom_coefficients`` (``log C(j + k - 1, j)`` at
shape ``k``). The law builders ``binomial_laws``, ``fisher_laws`` and
``negbinom_laws`` form each law's unnormalized log-weights from them,
for an array of distinct keys at a time, and the exact bias enumeration
in ``sim`` takes the coefficients of its count pmfs from them too. The
log-factorials, and the log-gamma values of shapes below 13, come from
``_lgamma`` (bit for bit those of scipy's ``gammaln``, without
importing scipy). From shape 13 the negative-binomial coefficient is
Stirling's form, which forms no difference of terms of size
``k log k``, so it holds at every finite shape.

Each builder returns ``(length, logw)``: law ``k`` has ``length[k]``
outcomes, and ``logw(rows, j)`` gives the laws ``rows`` (a column) at
outcome offsets ``j`` (a block). Only the batch kernels build laws from
these; every other caller (the single tests, the simulations and the
exact bias enumeration in ``sim``) goes through the batch kernels.

Two two-sided conventions turn a law into a table of outcome p-values:

* minimum likelihood: the p-value of an outcome is the total null
  probability of all outcomes whose null probability does not exceed
  its own. Probability ties are detected with a relative tolerance of
  ``TIE_RTOL`` so that outcomes with mathematically equal
  probabilities (for example symmetric pairs computed through
  floating-point log-gamma) fall into the same tie class;
* tail doubling: twice the smaller tail, capped at 1. A doubled tail
  within ``TIE_RTOL`` of 1 is 1: the median outcome's doubled tail is
  at least 1 in exact arithmetic, so rounding must not leave a support
  that ends just below 1.

``tables`` builds the table and the support (the sorted distinct
p-values) of many laws at once, with no Python loop per law. It takes
the laws in ascending length and cuts them into consecutive 2-D blocks:
a block holds at most ``_BLOCK_ENTRIES`` entries, sized so that its
working arrays stay in a core's L2 cache, and its longest law is at most
twice its shortest or its padding at most ``_PAD_ENTRIES`` entries. A
block is as wide as its longest law, and each shorter law is padded with
zero weights. Zero weights sort first and add nothing to any running
sum, so padding changes no bit of a minimum-likelihood table or of a
doubling table: each law's total is the last entry of its running sum,
which padding leaves as it is (a pairwise row sum would not: numpy sums
a longer row along another path). Under minimum likelihood one stable
sort per block serves both the table and the supports: the p-values come
out in ascending order, and each support is read off them, its padding
dropped and equal neighbours masked.

The batch kernels, and ``estimators.Study`` its support starts, group
by :func:`group_keys`: ``m`` keys below ``_dense_keys(m)`` (``4 m +
1024``), such as the totals of a count table, with no sort, by
:func:`unique_below`, a running count of marks in a bool array of the
key range; wider keys, such as the hypergeometric test's packed
margins, by ``np.unique``. The batch kernels build one law per distinct
key. Both groupings give the distinct keys in ascending order and the
same index of each feature, so the laws, their order and every output
bit are the same either way. The hypergeometric test goes further: a
table with margins ``(r1, r2, s)`` and ``r1 > r2`` is tested as its
mirror ``(r2, r1, s)`` at the other group's count, so that a table and
its mirror share one law (see :func:`batch_fisher`). The kernels return
``(pvalues, support_flat, support_start, support_len)``:
feature ``i``'s support is
``support_flat[support_start[i]: support_start[i] + support_len[i]]``.
``support_flat`` holds each law's support once, so features that share
a law share one slice and no support is copied per feature;
``estimators.Study.from_distinct`` takes the layout as is.

The kernels accept conditioned totals up to ``MAX_TOTAL`` (2^22 - 1):
the total ``x1 + x2`` of the binomial test, each margin ``r1``, ``r2`` of
the hypergeometric test and the total ``s1 + s2`` of the
negative-binomial test. A law then has at most 2^22 entries, and is a
block of its own. On a 2-vCPU host one law at the limit takes about
1.3 s (binomial), 1.9 s (negative binomial below shape 13) or 1.2 s
(from 13) to build, with a tracemalloc peak of about 240 MB (380 MB below
shape 13, set by the log-gamma table). About 0.9 s of that is
``math.log``, which ``_lgamma`` calls once per entry of the law's
log-factorial table (and, below shape 13, of the negative-binomial
log-gamma table). A larger total raises a
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

from ._lgamma import gammaln, log_factorials, stirling_correction

TIE_RTOL = 1e-12

#: Tie-class depth scanned blockwise; deeper ties are searched per law.
_MAX_TIE_DEPTH = 8

#: Most entries (laws times width) built in one block. Each of a block's
#: working arrays (weights, sort order, sorted weights, running sums, tie
#: ends, p-values) then takes 128 KiB, so that those in use at once fit
#: in a core's 2 MiB L2 cache. On the analyze-fet benchmark input (15 000
#: tables; a 2-vCPU Xeon with 2 MiB of L2 per core, medians of 41 calls,
#: the sizes interleaved) the Fisher kernel under minimum likelihood took
#: 14.8 ms at 2^14, 16.4 at 2^13, 17.8 at 2^15, 22.2 at 2^16 and 26.3
#: at 2^17 (seed 2001), and 23.8 ms at 2^14 against 24.1 to 34.9 at the
#: others in a slower period (seed 2301); under tail doubling 2^14 was
#: also the fastest or within 2%. The analyze-bin kernel took 1.65 to
#: 1.73 ms at every size.
_BLOCK_ENTRIES = 1 << 14

#: Most padding entries of a block whose laws span over a factor two.
_PAD_ENTRIES = 1 << 12

#: The smallest positive float: the p-value of outcomes whose exact
#: p-value is below the float64 range.
FLOOR = float(np.nextafter(0.0, 1.0))

#: The largest conditioned total (or hypergeometric margin) of a law.
MAX_TOTAL = 2**22 - 1

#: The shape from which the negative-binomial coefficient is formed by
#: Stirling's series: the split point of ``lgam`` itself.
_STIRLING_SHAPE = 13.0


# ---------------------------------------------------------------------------
# null laws
# ---------------------------------------------------------------------------


def log_binomial_coefficients(lf: np.ndarray, n, j):
    """``log C(n, j)`` from the log-factorial table ``lf``.

    ``lf[j] + lf[n - j]`` is summed first: the sum does not depend on the
    order of its terms, so the outcomes ``j`` and ``n - j`` get the same
    bits, and mirror outcomes the same p-value.
    """
    return lf[n] - (lf[j] + lf[n - j])


def log_negbinom_coefficients(j_max: int, k: float) -> tuple[np.ndarray, float]:
    """``log C(j + k - 1, j) - j * drop`` for ``j = 0..j_max`` at shape
    ``k``, and ``drop``.

    Below ``_STIRLING_SHAPE`` this is ``gammaln(j + k) - log j! -
    lgamma(k)`` and ``drop`` is 0. From there ``drop`` is ``log k``, and
    ``log Gamma(j + k) - log Gamma(k) - j log k`` is Stirling's
    ``(j + k - 1/2) log1p(j / k) - j + C(j + k) - C(k)``, ``C`` the
    correction of :func:`~discretefdr._lgamma.stirling_correction`: no
    difference of terms of size ``k log k`` is formed, so the form holds
    at every finite shape. A weight's ``j * drop`` is common to every
    split of a total, so the laws ignore it; a pmf adds it back.
    """
    lf = log_factorials(j_max)
    if k < _STIRLING_SHAPE:
        return gammaln(np.arange(j_max + 1) + k) - lf - math.lgamma(k), 0.0
    j = np.arange(j_max + 1, dtype=np.float64)
    coef = (j + (k - 0.5)) * np.log1p(j / k) - j
    coef += stirling_correction(j + k) - stirling_correction(np.array([k]))
    coef -= lf
    return coef, math.log(k)


def binomial_laws(n):
    """Binomial(n, 1/2) over the outcomes ``0..n``, for every total."""
    n = np.asarray(n, dtype=np.int64)
    lf = log_factorials(int(n.max(initial=0)))

    def logw(rows, j):
        return log_binomial_coefficients(lf, n[rows], j)

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
        a = lo[rows] + j
        first = log_binomial_coefficients(lf, r1[rows], a)
        return first + log_binomial_coefficients(lf, r2[rows], s[rows] - a)

    return np.minimum(r1, s) - lo + 1, logw


def negbinom_laws(s, shape_total: float):
    """Laws of the split ``a`` of a negative-binomial total ``s``.

    Proportional to ``C(a + k - 1, a) * C(s - a + k - 1, s - a)`` with
    ``k = shape_total``; the common mean cancels.
    """
    s = np.asarray(s, dtype=np.int64)
    left, _ = log_negbinom_coefficients(int(s.max(initial=0)), float(shape_total))

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
    np.copyto(q, -1.0, where=sw == 0.0)
    end = np.repeat(np.arange(sw.shape[1])[None, :], sw.shape[0], axis=0)
    for d in range(1, sw.shape[1]):
        hit = sw[:, d:] <= q[:, :-d]
        if not hit.any():
            break
        if d > _MAX_TIE_DEPTH:
            for r in np.flatnonzero(hit.any(axis=1)):
                found = np.searchsorted(sw[r], q[r], side="right")
                found -= 1
                # a zero weight finds -1 and keeps its own index
                np.maximum(found, end[r], out=end[r])
            break
        # sw is sorted, so a hit at depth d implies hits at every depth below
        end[:, :-d] += hit
    return end


def _weights(law_logw, rows: np.ndarray, n: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Weights of the laws ``rows``, of lengths ``n`` (a column), into
    ``out``: each row of log-weights shifted by its largest, then
    exponentiated, and zero-padded to the width of ``out``."""
    width = out.shape[1]
    logw = law_logw(rows[:, None], np.minimum(np.arange(width), n - 1))
    logw -= logw.max(axis=1, keepdims=True)
    np.exp(logw, out=out)
    # padding weighs 0; multiplying by 1.0 keeps every bit of the rest
    out *= np.arange(width) < n
    return out


def _minlik_block(w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Minimum-likelihood p-values of a block of zero-padded weight rows,
    in each row's ascending order of weight, and the flat index into
    ``w`` of the outcome each belongs to.

    The sort is stable: a row's weights rise to its mode and fall after
    it, two runs that timsort merges in linear time. Zero weights sort
    first and add nothing to a running sum, so padding changes no bit.
    """
    offset = np.arange(0, w.size, w.shape[1])[:, None]
    at = np.argsort(w, axis=1, kind="stable")
    at += offset
    sw = w.reshape(-1)[at]
    end = _tie_end(sw)
    end += offset
    cw = np.cumsum(sw, axis=1)
    pv = cw.reshape(-1)[end]
    pv /= cw[:, -1:]
    return pv, at


def _doubling_block(w: np.ndarray) -> np.ndarray:
    """Tail-doubling tables of a block of zero-padded weight rows, in
    place.

    A row's tails are its running sums from either end, and its total
    the lower one's last entry, as in :func:`_minlik_block`: padding
    weighs 0 and comes last, so it changes no bit of a law's table. A
    doubled tail within ``TIE_RTOL`` of 1 is set to 1.
    """
    lower = np.cumsum(w, axis=1)
    upper = np.cumsum(w[:, ::-1], axis=1)[:, ::-1]
    np.minimum(lower, upper, out=w)
    w /= lower[:, -1:]
    w *= 2.0
    np.copyto(w, 1.0, where=w >= 1.0 - TIE_RTOL)
    return w


def _supports(sorted_pv: np.ndarray, n: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct values of each row of ``sorted_pv`` (each row sorted,
    its ``width - n`` padding entries first), and their count per row."""
    first = sorted_pv.shape[1] - n
    keep = np.arange(sorted_pv.shape[1]) >= first
    keep[:, 1:] &= sorted_pv[:, 1:] != sorted_pv[:, :-1]
    keep[np.arange(n.shape[0]), first[:, 0]] = True
    # np.compress: a boolean index takes several times as long
    return np.compress(keep.reshape(-1), sorted_pv), keep.sum(axis=1)


def _blocks(length: np.ndarray):
    """Indices of the laws in ascending length, cut into consecutive
    blocks: a block holds at most ``_BLOCK_ENTRIES`` entries (laws times
    its longest length), or one law when the law is wider, and its
    longest law is at most twice its shortest, or its padding (the
    entries past each law's length) at most ``_PAD_ENTRIES``.

    A cut scans the laws up to twice, or ``_PAD_ENTRIES`` more than, the
    shortest length, and at most ``_BLOCK_ENTRIES // shortest`` of them.
    """
    order = np.argsort(length, kind="stable")
    ranked = length[order]
    a = 0
    while a < order.shape[0]:
        shortest = int(ranked[a])
        longest = max(2 * shortest, shortest + _PAD_ENTRIES)
        within = int(np.searchsorted(ranked, longest, side="right"))
        ahead = ranked[a : min(within, a + max(1, _BLOCK_ENTRIES // shortest))]
        # a block of the next k laws takes k times the k-th length, and
        # pads that less their sum: both grow with k
        entries = np.arange(1, ahead.shape[0] + 1) * ahead
        fits = (ahead <= 2 * shortest) | (entries - np.cumsum(ahead) <= _PAD_ENTRIES)
        b = a + max(1, np.count_nonzero(fits & (entries <= _BLOCK_ENTRIES)))
        yield order[a:b]
        a = b


def tables(laws, convention: str = "minlik"):
    """Outcome p-value table and support of every law.

    ``laws`` is ``(length, logw)`` as the ``*_laws`` builders return it.
    Returns ``(table_flat, table_start, support_flat, support_start,
    support_len)``: law ``k``'s table is ``table_flat[table_start[k]:
    table_start[k] + length[k]]``, indexed by outcome offset, and its
    support, the table's sorted distinct values, is the matching slice
    of ``support_flat``. A block's laws are consecutive rows of
    ``table_flat`` as wide as its longest law, so the entries past a
    shorter law's length belong to no outcome. Each block is built with
    no loop over its laws or their lengths: under either convention a
    law's total is its running sum's last entry, which padding leaves
    as it is.
    """
    length, law_logw = laws
    minlik = {"minlik": True, "doubling": False}[convention]
    blocks = list(_blocks(length))
    widths = [int(length[rows[-1]]) for rows in blocks]
    bound = np.cumsum([0] + [rows.shape[0] * w for rows, w in zip(blocks, widths)])
    table_flat = np.empty(int(bound[-1]))
    table_start = np.empty(length.shape[0], dtype=np.int64)
    support_start = np.empty(length.shape[0], dtype=np.int64)
    support_len = np.empty(length.shape[0], dtype=np.int64)
    pieces = []
    filled = 0
    for rows, width, a, b in zip(blocks, widths, bound[:-1], bound[1:]):
        n = length[rows][:, None]
        table_start[rows] = np.arange(a, b, width)
        w = _weights(law_logw, rows, n, table_flat[a:b].reshape(-1, width))
        if minlik:
            # each row's p-values come sorted, its padding first
            sorted_pv, at = _minlik_block(w)
            np.maximum(sorted_pv, FLOOR, out=sorted_pv)
            w.reshape(-1)[at] = sorted_pv
        else:
            np.maximum(_doubling_block(w), FLOOR, out=w)
            sorted_pv = np.sort(w, axis=1)
        piece, count = _supports(sorted_pv, n)
        pieces.append(piece)
        support_len[rows] = count
        support_start[rows] = filled + np.cumsum(count) - count
        filled += int(count.sum())
    support_flat = np.concatenate(pieces) if pieces else np.empty(0)
    return table_flat, table_start, support_flat, support_start, support_len


def unique_below(values: np.ndarray, bound: int) -> tuple[np.ndarray, np.ndarray]:
    """``np.unique(values, return_inverse=True)`` of int64 values in
    ``[0, bound)``, in time linear in ``values`` and ``bound``, with no
    sort.

    Each value marks its place in a bool array of ``bound`` entries, whose
    marked places are the distinct values. A value's index among them is
    the running count of the marks at its place, minus one: nine bytes
    per place. Medians of 300 interleaved calls on analyze-bin's 15 000
    totals and analyze-fet's support starts (140 247 places): 0.05-0.07
    and 0.59-0.68 ms, against 0.10-0.14 and 0.28-0.36 ms for the marks
    packed 8 to a byte and 0.22-0.25 and 0.46-0.56 ms for ``np.unique``.
    """
    mark = np.zeros(bound, dtype=bool)
    mark[values] = True
    inverse = np.cumsum(mark, dtype=np.int64).take(values)
    inverse -= 1
    return np.flatnonzero(mark), inverse


def _dense_keys(m: int) -> int:
    """The largest key range that :func:`group_keys` groups by
    :func:`unique_below` rather than by ``np.unique``, for ``m`` keys.

    ``benchmarks/bench_kernels.py``'s grouping case (uniform keys, best
    of 200 calls, two runs on a 2-vCPU host) at m = 20 000:
    ``unique_below`` took 0.13-0.14, 0.39, 0.77-0.80 and 1.6-1.7 ms over
    m, 4 m, 8 m and 16 m keys, and 0.97 ms on analyze-fet-like support
    starts over 9.3 m, where ``np.unique`` took 0.44-0.61 ms; at m = 600
    both took 0.01-0.04 ms. The bound is 4 m, below the crossing near
    6 m, plus 1024 keys for small batches.
    """
    return 4 * m + 1024


def group_keys(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.unique(keys, return_inverse=True)`` of int64 ``keys``: by
    :func:`unique_below` when all ``m`` of them lie in
    ``[0, _dense_keys(m))``, else by ``np.unique``. Both give the same
    distinct keys and the same index of each."""
    bound = int(keys.max(initial=-1)) + 1
    if bound <= _dense_keys(keys.shape[0]) and keys.min(initial=0) >= 0:
        return unique_below(keys, bound)
    return np.unique(keys, return_inverse=True)


def _batch(make_laws, keys, observed, convention):
    """P-values of every feature and the shared slice of its support.

    ``keys`` holds one nonnegative integer conditioning key per feature,
    grouped by :func:`group_keys`; ``make_laws(distinct)`` builds the
    laws of the distinct keys. ``observed[i]`` is feature ``i``'s
    outcome offset in its law.
    """
    distinct, inverse = group_keys(np.asarray(keys, dtype=np.int64))
    table_flat, table_start, flat, start, length = tables(
        make_laws(distinct), convention
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

    A table with ``r1 > r2`` is tested as its mirror, margins ``(r2, r1,
    s)`` at outcome ``x2``, so the keys ``(r1, r2, s)`` and ``(r2, r1,
    s)`` share one law and one support slice, and swapping the groups
    changes no bit. Both conventions give the mirror's outcome the same
    p-value: the weight of ``a`` is ``log C(r1, a) + log C(r2, s - a)``,
    the mirror's weight of ``s - a`` is the same two terms in the other
    order, and the lower tail of one law is the upper tail of the other.
    """
    x1 = np.asarray(x1, dtype=np.int64)
    r1 = np.asarray(r1, dtype=np.int64)
    x2 = np.asarray(x2, dtype=np.int64)
    r2 = np.asarray(r2, dtype=np.int64)
    if np.any(r1 > MAX_TOTAL) or np.any(r2 > MAX_TOTAL):
        raise ValueError(f"trials exceed the largest supported total {MAX_TOTAL}")
    ss = x1 + x2
    swap = r1 > r2
    r1, r2 = np.where(swap, r2, r1), np.where(swap, r1, r2)
    x1 = np.where(swap, x2, x1)
    lo = np.maximum(0, ss - r2)
    # one int64 key per table, in the order of (r1, r2, s): the rank of
    # its margins packed in 44 bits (each below 2^22), then s in 23 bits
    margins, rank = np.unique((r1 << 22) | r2, return_inverse=True)

    def laws(keys):
        r12 = margins[keys >> 23]
        return fisher_laws(r12 >> 22, r12 & MAX_TOTAL, keys & ((1 << 23) - 1))

    return _batch(laws, (rank << 23) | ss, x1 - lo, convention)


def batch_negbinom(s1, s2, shape_total, convention: str = "minlik"):
    """Conditional test of two negative-binomial group sums.

    Each group sum is modeled as NegBinomial with shape ``shape_total``
    (per-sample shape times samples per group) and a common mean under
    the null. Conditional on ``s = s1 + s2`` the mean cancels and the
    null weight of a split ``a`` is given by :func:`negbinom_laws`.
    ``shape_total`` may be any finite number from about 5.6e-309 up,
    where its reciprocal and so ``log(Gamma(shape_total))`` are finite;
    any other raises a :class:`ValueError` naming it.
    """
    s1 = np.asarray(s1, dtype=np.int64)
    s2 = np.asarray(s2, dtype=np.int64)
    _check_total(s1, s2)
    k = float(shape_total)
    if not (0.0 < k < math.inf and 1.0 / k < math.inf):
        raise ValueError(
            "shape_total must be a finite positive number with a finite "
            f"reciprocal, not {k!r}"
        )
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
