"""Brute-force reference implementations used to freeze expected values.

Everything here is computed by direct enumeration over the conditioned
outcome space with scipy's pmfs — deliberately a different code path
from the library's log-weight kernels, so agreement is evidence rather
than tautology. The per-law builders from log-weights (``logw_*``,
``outcome_pvalues``, ``doubling_outcome_pvalues``) are the exception:
they repeat the kernels' arithmetic one law at a time, on the same
``math.lgamma`` values (``gammaln``), so the kernels' blockwise tables
must match them bit for bit once ``floored``.

The row-at-a-time count-table parser (``ingest_rows``) and CSV writer
(``write_csv_rows``) are the references for the library's column-wise
ones, ``json_text`` (a rounding pass, then ``json.dumps``) for the
one-walk JSON writer, ``draw_counts_per_group`` and
``group_sums_per_group`` (one sampler call per group) for ``sim``'s
draws of both groups in one call, ``generate_scenario_alone`` (one
kernel call per replication) for ``sim``'s pooled replications,
``clip01_where`` (nested ``np.where``) for ``estimators._clip01``, and
``batch_by_unique`` and
``study_layout``, which group by ``np.unique``, for the kernels' and
``estimators.Study``'s grouping in linear time. ``procedure_results`` transcribes
each procedure from the one-study estimates of ``pi0_loop`` and the
one-study solvers ``threshold_loop`` and ``bh_sorted``, the reference
for ``sim.evaluate_block``.
``PValueProfile``, ``support_cdf`` and ``null_expected_pvalue`` are
per-hypothesis scalar references for the estimators' per-support
statistics.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
from scipy import stats

TIE_RTOL = 1e-12

#: The smallest positive float.
FLOOR = float(np.nextafter(0.0, 1.0))


def counterexample_instance() -> np.ndarray:
    """A p-value multiset whose inverse rejection process jumps down.

    The heavy tie block right after a single small p-value produces a
    strict downward jump of ``L`` at an interior p-value, witnessing
    that ``m t / R(t)`` does not have only upward jumps.
    """
    return np.array([0.1, 0.4, 0.4, 0.4, 0.7, 1.0])


def minlik_pvalues(pmf: np.ndarray) -> np.ndarray:
    """Two-sided p-value of every outcome: total mass of outcomes no
    more likely than it, with a relative tie tolerance."""
    pmf = np.asarray(pmf, dtype=np.float64)
    total = pmf.sum()
    no_more_likely = pmf[None, :] <= pmf[:, None] * (1.0 + TIE_RTOL)
    return (no_more_likely * pmf[None, :]).sum(axis=1) / total


def binomial_outcome_pvalues(n: int) -> np.ndarray:
    """Outcome p-values of the conditional test for two Poisson counts
    given their total n: Binomial(n, 1/2)."""
    return minlik_pvalues(stats.binom.pmf(np.arange(n + 1), n, 0.5))


def fisher_outcome_pvalues(r1: int, r2: int, s: int) -> tuple[int, np.ndarray]:
    """Outcome p-values of the conditional test for two binomial counts
    given margins (r1, r2) and total s: hypergeometric. Returns the
    smallest attainable outcome and the p-values from there up."""
    lo, hi = max(0, s - r2), min(r1, s)
    a = np.arange(lo, hi + 1)
    return lo, minlik_pvalues(stats.hypergeom.pmf(a, r1 + r2, r1, s))


def fisher_exact_pvalue(x1: int, r1: int, x2: int, r2: int, convention: str = "minlik"):
    """The exact two-sided p-value of the 2x2 table ``(x1, r1, x2, r2)``
    as a ``Fraction``: the hypergeometric weights ``C(r1, a) C(r2, s -
    a)`` as integers, so ties and tails are exact. Under minimum
    likelihood the mass of the outcomes no heavier than ``x1``; under
    tail doubling twice the smaller tail, capped at 1."""
    s = x1 + x2
    lo, hi = max(0, s - r2), min(r1, s)
    w = [math.comb(r1, a) * math.comb(r2, s - a) for a in range(lo, hi + 1)]
    k = x1 - lo
    if convention == "minlik":
        return Fraction(sum(v for v in w if v <= w[k]), sum(w))
    return min(Fraction(1), Fraction(2 * min(sum(w[: k + 1]), sum(w[k:])), sum(w)))


def negbinom_outcome_pvalues(s: int, shape_total: float) -> np.ndarray:
    """Outcome p-values of the conditional test for two negative
    binomial group sums given their total s, each sum with shape
    ``shape_total``. The conditional law f(a)f(s-a)/sum is free of the
    common null mean, so any positive mean works; s/2 is used."""
    if s == 0:
        return np.array([1.0])
    a = np.arange(s + 1)
    p = shape_total / (shape_total + s / 2.0)
    f = stats.nbinom.pmf(a, shape_total, p)
    return minlik_pvalues(f * f[::-1])


def doubling_pvalues(pmf: np.ndarray) -> np.ndarray:
    """Two-sided p-values under the tail-doubling convention:
    min(1, 2 * min(lower tail, upper tail)) per outcome."""
    pmf = np.asarray(pmf, dtype=np.float64)
    total = pmf.sum()
    lower = np.cumsum(pmf) / total
    upper = np.cumsum(pmf[::-1])[::-1] / total
    return np.minimum(1.0, 2.0 * np.minimum(lower, upper))


def null_mass_at_most(pmf: np.ndarray, pvalues: np.ndarray, t: float) -> float:
    """P(p-value <= t) under the conditional null, by enumeration."""
    pmf = np.asarray(pmf, dtype=np.float64)
    return float(pmf[pvalues <= t].sum() / pmf.sum())


# ---------------------------------------------------------------------------
# per-feature loops: references for the per-key and per-support paths
# ---------------------------------------------------------------------------


def gammaln(x) -> np.ndarray:
    """``log(Gamma(x))`` elementwise, one ``math.lgamma`` call per entry,
    as the kernels take their log-gamma values."""
    x = np.asarray(x, dtype=np.float64)
    values = map(math.lgamma, x.reshape(-1).tolist())
    return np.fromiter(values, np.float64, x.size).reshape(x.shape)


def logw_binomial(n) -> np.ndarray:
    """Log-weights of Binomial(n, 1/2) over the outcomes ``0..n``."""
    a = np.arange(n + 1)
    return gammaln(n + 1.0) - (gammaln(a + 1.0) + gammaln(n - a + 1.0))


def logw_fisher(r1, r2, s) -> np.ndarray:
    """Hypergeometric log-weights of ``a`` over ``max(0, s - r2)..min(r1, s)``,
    from the four cells ``a, b = r1 - a, c = s - a, d = r2 - c``: minus
    the sum of the two diagonals' log-factorial sums."""
    a = np.arange(max(0, s - r2), min(r1, s) + 1)
    b, c = r1 - a, s - a
    d = r2 - c
    return -(
        (gammaln(a + 1.0) + gammaln(d + 1.0)) + (gammaln(b + 1.0) + gammaln(c + 1.0))
    )


def logw_negbinom(s, shape_total: float) -> np.ndarray:
    """Log-weights of the split ``a`` of a negative-binomial total ``s``."""
    a = np.arange(s + 1)
    left = gammaln(a + shape_total) - gammaln(a + 1.0) - math.lgamma(shape_total)
    return left + left[::-1]


def outcome_pvalues(logw: np.ndarray) -> np.ndarray:
    """Minimum-likelihood p-value of every outcome of one law, from its
    log-weights, with one sort and one search per law."""
    w = np.exp(logw - logw.max())
    sw = np.sort(w)
    cw = np.cumsum(sw)
    total = cw[-1]
    idx = np.searchsorted(sw, w * (1.0 + TIE_RTOL), side="right") - 1
    return cw[idx] / total


def doubling_outcome_pvalues(logw: np.ndarray) -> np.ndarray:
    """Tail-doubling p-value of every outcome of one law, from its
    log-weights: ``min(1, 2 * smaller tail)``, each tail a running sum
    of the weights over their total, the last running sum; a doubled
    tail within ``TIE_RTOL`` of 1 is 1."""
    w = np.exp(logw - logw.max())
    lower = np.cumsum(w)
    upper = np.cumsum(w[::-1])[::-1]
    doubled = 2.0 * (np.minimum(lower, upper) / lower[-1])
    return np.where(doubled >= 1.0 - TIE_RTOL, 1.0, doubled)


def floored(table: np.ndarray) -> np.ndarray:
    """A table with its entries of exactly 0.0 (p-values below the
    float64 range) raised to the smallest positive float."""
    return np.where(table == 0.0, FLOOR, table)


def law_tables_loop(kind: str, keys, convention: str = "minlik", shape_total=None):
    """Reference for ``_kernels.tables``: one law at a time, each table
    from its own log-weights and each support from ``np.unique``.
    Returns the list of tables and the list of supports."""
    table = {"minlik": outcome_pvalues, "doubling": doubling_outcome_pvalues}[
        convention
    ]
    if kind == "bin":
        logws = [logw_binomial(int(n)) for n in keys]
    elif kind == "fet":
        logws = [logw_fisher(*map(int, key)) for key in keys]
    else:
        logws = [logw_negbinom(int(s), float(shape_total)) for s in keys]
    tables = [floored(table(logw)) for logw in logws]
    return tables, [np.unique(t) for t in tables]


def batch_loop(kind: str, args, convention: str = "minlik"):
    """Per-feature reference for ``_kernels.batch_*``.

    Rebuilds every feature's null law and outcome table on its own, with
    no grouping by conditioning key, and lays the results out per
    feature: ``(pvalues, support_flat, support_start, support_len)``.
    The laws and tables are the per-law builders above, so any
    difference from the kernels comes from grouping features by key and
    building the laws blockwise. A hypergeometric table with ``r1 > r2``
    is built as its mirror, then one with ``2 s > r1 + r2`` as its
    complement, and then one with ``s < r1`` as its transpose, as the
    kernel tests them.
    """
    table = {"minlik": outcome_pvalues, "doubling": doubling_outcome_pvalues}[
        convention
    ]
    if kind == "bin":
        x1, x2 = (np.asarray(a, dtype=np.int64) for a in args)
        laws = [(logw_binomial(x1[i] + x2[i]), x1[i]) for i in range(len(x1))]
    elif kind == "fet":
        x1, r1, x2, r2 = (np.asarray(a, dtype=np.int64) for a in args)
        laws = []
        for i in range(len(x1)):
            # a table with r1 > r2 is tested as its mirror
            a, r, b, q = (x2[i], r2[i], x1[i], r1[i]) if r1[i] > r2[i] else (
                x1[i], r1[i], x2[i], r2[i]
            )
            s = a + b
            if 2 * s > r + q:
                # and with 2 s > r1 + r2 as its complement
                a, s = r - a, r + q - s
            if s < r:
                # and with s < r1 as its transpose, at the same outcome
                r, q, s = s, r + q - s, r
            laws.append((logw_fisher(r, q, s), a - max(0, s - q)))
    else:
        s1, s2 = (np.asarray(a, dtype=np.int64) for a in args[:2])
        k = float(args[2])
        laws = [
            (logw_negbinom(s1[i] + s2[i], k), s1[i]) for i in range(len(s1))
        ]
    m = len(laws)
    pvals = np.empty(m)
    start = np.empty(m, dtype=np.int64)
    length = np.empty(m, dtype=np.int64)
    pieces = []
    pos = 0
    for i, (logw, observed) in enumerate(laws):
        out = floored(table(logw))
        pvals[i] = out[observed]
        sup = np.unique(out)
        pieces.append(sup)
        start[i] = pos
        length[i] = sup.shape[0]
        pos += sup.shape[0]
    flat = np.concatenate(pieces) if pieces else np.empty(0)
    return pvals, flat, start, length


def batch_by_unique(make_laws, keys, observed, convention):
    """Reference for ``_kernels._batch``: the same laws and tables, the
    features grouped by ``np.unique`` at any key range."""
    from discretefdr import _kernels

    distinct, inverse = np.unique(np.asarray(keys, dtype=np.int64), return_inverse=True)
    table_flat, table_start, flat, start, length = _kernels.tables(
        make_laws(distinct), convention
    )
    pvalues = table_flat[table_start[inverse] + observed]
    return pvalues, flat, start[inverse], length[inverse]


def per_feature_layout(pvalues, flat, start, length):
    """Copy the kernels' shared support slices out to a layout in which
    every feature owns its own slice, laid out in feature order."""
    pieces = [flat[a : a + n] for a, n in zip(start.tolist(), length.tolist())]
    per_flat = np.concatenate(pieces) if pieces else np.empty(0)
    return pvalues, per_flat, np.cumsum(length) - length, length


def study_layout(pvalues, flat, start, length, truth=None):
    """Reference for the arrays ``estimators.Study`` stores, as a
    namespace of ``pvalues``, ``support_flat``, ``support_start``,
    ``support_len``, ``support_index`` and ``truth``: each distinct
    ``(start, length)`` slice once, grouped by ``np.unique`` and ordered
    by a stable sort on length, so by length and then start."""
    flat = np.asarray(flat, dtype=np.float64)
    start = np.asarray(start, dtype=np.int64)
    length = np.asarray(length, dtype=np.int64)
    slot = start * (flat.shape[0] + 1) + length
    _, at, index = np.unique(slot, return_index=True, return_inverse=True)
    order = np.argsort(length[at], kind="stable")
    position = np.argsort(order)
    at = at[order]
    support_len = length[at]
    support_start = np.cumsum(support_len) - support_len
    shift = np.repeat(start[at] - support_start, support_len)
    return SimpleNamespace(
        pvalues=np.asarray(pvalues, dtype=np.float64),
        support_flat=flat[shift + np.arange(shift.shape[0])],
        support_start=support_start,
        support_len=support_len,
        support_index=position[index.reshape(-1)],
        truth=None if truth is None else np.asarray(truth, dtype=bool),
    )


@dataclass(frozen=True)
class PValueProfile:
    """An observed p-value paired with its discrete null support.

    An empty support means the null distribution is continuous uniform
    on (0, 1]. A nonempty support is strictly increasing, ends at 1 and
    contains the observed p-value.
    """

    pvalue: float
    support: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "support", np.asarray(self.support, dtype=np.float64)
        )


def profile(study, i: int) -> PValueProfile:
    """Hypothesis ``i`` of a study as a profile."""
    return PValueProfile(float(study.pvalues[i]), study.supports[i])


def support_cdf(profile: PValueProfile, lam: float) -> float:
    """Null CDF of the profile's p-value at ``lam``: the largest support
    element at most ``lam`` (0 when none qualifies), or ``lam`` itself
    for an empty support (continuous uniform null)."""
    return float(support_floor_loop([profile.support], lam)[0])


def null_expected_pvalue(profile: PValueProfile) -> float:
    """Expected p-value under the profile's null distribution.

    For a support ``t_1 < ... < t_K`` the null puts mass
    ``t_k - t_{k-1}`` on ``t_k`` (with ``t_0 = 0``), so the expectation
    is the sum of ``t_k * (t_k - t_{k-1})``. An empty support means a
    uniform null with expectation 1/2.
    """
    s = profile.support
    if s.shape[0] == 0:
        return 0.5
    return float(np.sum(s * np.diff(np.concatenate(([0.0], s)))))


def cut(lam):
    """The cut below which a p-value or support point counts as at most
    ``lam``: within ``TIE_RTOL`` of ``lam`` above it still does."""
    return lam * (1.0 + TIE_RTOL)


def support_floor_loop(supports, lam: float) -> np.ndarray:
    """Largest support element at most ``lam`` (up to the ``cut``, and
    then at most ``lam`` itself), one hypothesis at a time (0 when none
    qualifies, ``lam`` for an empty support)."""
    out = np.empty(len(supports))
    for i, s in enumerate(supports):
        if s.shape[0] == 0:
            out[i] = lam
            continue
        idx = int(np.searchsorted(s, cut(lam), side="right"))
        out[i] = 0.0 if idx == 0 else min(s[idx - 1], lam)
    return out


def generalized_raw_loop(pvalues, supports, lam: float, epsilon) -> float:
    """Unclipped discreteness-adjusted estimate from a per-hypothesis loop."""
    floor = support_floor_loop(supports, lam)
    terms = (np.asarray(pvalues) > cut(lam)).astype(np.float64) - epsilon * (
        lam - floor
    )
    return float(np.sum(terms)) / ((1.0 - lam) * len(supports))


def pounds_hat_raw_loop(pvalues, supports) -> float:
    """Unclipped mean of p-values over their null expectations, with one
    expectation computed per hypothesis."""
    expectations = np.array(
        [null_expected_pvalue(PValueProfile(p, s)) for p, s in zip(pvalues, supports)]
    )
    return float(np.mean(np.asarray(pvalues) / expectations))


# ---------------------------------------------------------------------------
# thresholds and step-up cutoffs, one interval or one p-value at a time
# ---------------------------------------------------------------------------


def threshold_loop(est, proc, alpha: float):
    """Reference for ``fdr.threshold``: scans the intervals where the
    rejection count is constant one at a time, right to left, and
    returns the first candidate that lies inside its interval and
    survives the descent by ulps onto the feasible side of ``alpha``."""
    from discretefdr.fdr import _MAX_NUDGES, ThresholdResult

    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must lie in [0, 1]")
    m = proc.m
    mult = est.multiplier(m)
    capped = est.kind in ("generalized", "storey_type_sigma")

    def f(t):
        # the estimator at t, from its definition
        if est.kind == "storey_variant" and t > cut(est.lam):
            return 1.0
        value = mult * t * m / max(proc.rejections(t), 1)
        return min(1.0, value) if capped else value

    def result(t):
        return ThresholdResult(
            t, f(t), proc.rejections(t), proc.rejected_indices(t)
        )

    def nudge(t, floor):
        # descend by ulps until f(t) <= alpha; None if stuck
        for _ in range(_MAX_NUDGES):
            if f(t) <= alpha:
                return t
            if t <= floor:
                return None
            t = float(np.nextafter(t, 0.0))
            if t < floor:
                return None
        return None

    if mult <= 0.0:
        return result(1.0)
    if alpha >= 1.0 and (capped or est.kind == "storey_variant"):
        return result(1.0)
    cap = est.lam if est.kind == "storey_variant" else 1.0
    distinct, cum = proc.distinct, proc.cum
    n = distinct.shape[0]
    scale = m * mult
    # interval j (1-based) is [distinct[j-1], distinct[j]) with count cum[j-1]
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
        t = nudge(t, left)
        if t is not None:
            return result(t)
    right = cap
    if n > 0 and distinct[0] <= cap:
        right = float(np.nextafter(float(distinct[0]), 0.0))
    t = nudge(min(alpha / scale, right), 0.0)
    return result(0.0 if t is None else t)


def bh_sorted(pvalues, alpha: float):
    """Reference for ``fdr.bh_procedure``: the step-up condition
    ``p_(k) <= k * alpha / m`` tested at every rank of the sorted
    p-values."""
    from discretefdr.fdr import ThresholdResult

    values = np.asarray(pvalues, dtype=np.float64)
    m = values.shape[0]
    ordered = np.sort(values)
    ok = ordered <= np.arange(1, m + 1) * (alpha / m)
    if not np.any(ok):
        return ThresholdResult(0.0, np.nan, 0, np.empty(0, dtype=np.int64))
    k_star = int(np.flatnonzero(ok)[-1]) + 1
    t = float(ordered[k_star - 1])
    return ThresholdResult(t, np.nan, k_star, np.flatnonzero(values <= t))


# ---------------------------------------------------------------------------
# conditional expectations of the adjusted estimator's terms
# ---------------------------------------------------------------------------


def poisson_bin_adjusted_terms(
    spec, rep_index: int, lam: float, epsilon: float
):
    """Observed p-values and conditional expectations of the adjusted
    estimator's per-hypothesis terms for one ``poisson_bin`` replication.

    The replication's group means and counts are redrawn in the order
    the ``sim`` module documents: parameters (group-1 means, then effect
    factors), then group-1 counts, then group-2 counts. Given hypothesis
    i's total n, its group-1 count is Binomial(n, q_i) with ``q_i =
    theta1_i / (theta1_i + theta2_i)``; enumerating it over the outcome
    p-values gives ``P(p_i > lam | n)``, and the support floor is the
    largest outcome p-value at most ``lam`` (0 when none is). The term
    ``1{p_i > lam} - epsilon * (lam - floor)`` then has expectation
    ``P(p_i > lam | n) - epsilon * (lam - floor)`` given n. Returns
    ``(pvalues, expected_terms)``, one entry per hypothesis; the first
    ``spec.m0`` hypotheses are the true nulls.
    """
    rng = np.random.default_rng(
        np.random.SeedSequence(spec.seed, spawn_key=(rep_index,))
    )
    m, m0 = spec.m, spec.m0
    theta1 = spec.pareto_location * (1.0 + rng.pareto(spec.pareto_shape, m))
    rho = rng.uniform(spec.rho_low, spec.rho_high, m - m0)
    theta2 = theta1.copy()
    theta2[m0:] = rho * theta1[m0:]
    x1 = rng.poisson(theta1)
    x2 = rng.poisson(theta2)

    totals = x1 + x2
    q = theta1 / (theta1 + theta2)
    pvalues = np.empty(m)
    expected = np.empty(m)
    for n in np.unique(totals):
        pv = binomial_outcome_pvalues(int(n))
        below = pv[pv <= cut(lam)]
        floor = min(float(below.max()), lam) if below.size else 0.0
        at = np.nonzero(totals == n)[0]
        pvalues[at] = pv[x1[at]]
        pmf = stats.binom.pmf(np.arange(n + 1)[None, :], n, q[at, None])
        exceed = pmf[:, pv > cut(lam)].sum(axis=1)
        expected[at] = exceed - epsilon * (lam - floor)
    return pvalues, expected


def group_sums_per_group(spec, rng, p) -> np.ndarray:
    """Reference for ``sim._group_sums``: one group's sums from a sampler
    call of its own, refused as one such call refuses."""
    sigma = 1.0 / spec.dispersion
    try:
        with np.errstate(over="ignore", divide="ignore"):
            counts = rng.negative_binomial(sigma, p, (spec.reps_per_group, spec.m))
    except ValueError:
        if not np.all((0.0 < p) & (p <= 1.0)):
            raise  # numpy's message names p
        low = np.min(p)
        with np.errstate(over="ignore"):
            mean = sigma * (1.0 - low) / low
        raise ValueError(
            f"dispersion {spec.dispersion!r} is too large for the largest group "
            f"mean {mean:.6g}: numpy's negative-binomial sampler refuses the "
            "per-sample shape 1 / dispersion with these group means"
        ) from None
    return counts.sum(axis=0).astype(np.int64)


def draw_counts_per_group(spec, rep_index: int, means=None) -> tuple:
    """Reference for ``sim._draw_counts``: one replication's count
    columns, one sampler call per group, group 1's first."""
    from discretefdr.sim import _draw_parameters, _replication_rng

    rng = _replication_rng(spec, rep_index)
    params = _draw_parameters(spec, rng, means)
    if spec.kind == "poisson_bin":
        try:
            x1 = rng.poisson(params["theta1"])
            x2 = rng.poisson(params["theta2"])
        except ValueError:
            mean = max(np.max(params["theta1"]), np.max(params["theta2"]))
            raise ValueError(
                f"the largest group mean {mean:.6g} is too large: numpy's Poisson "
                "sampler refuses it"
            ) from None
        return x1.astype(np.int64), x2.astype(np.int64)
    if spec.kind == "binomial_fet":
        trials = params["trials"].astype(np.int64)
        x1 = rng.binomial(trials, params["theta1"])
        x2 = rng.binomial(trials, params["theta2"])
        return x1.astype(np.int64), trials, x2.astype(np.int64)
    sigma = 1.0 / spec.dispersion
    return tuple(
        group_sums_per_group(spec, rng, sigma / (sigma + params[theta]))
        for theta in ("theta1", "theta2")
    )


def generate_scenario_alone(spec, rep_index: int):
    """Reference for ``sim``'s pooled replications: draws one
    replication's counts, one sampler call per group, and tests them with
    a kernel call of their own, as ``generate_scenario`` did before
    replications were pooled."""
    from discretefdr import Study, _kernels

    columns = draw_counts_per_group(spec, rep_index)
    truth = np.zeros(spec.m, dtype=bool)
    truth[: spec.m0] = True
    if spec.kind == "poisson_bin":
        out = _kernels.batch_binomial(*columns)
    elif spec.kind == "binomial_fet":
        x1, trials, x2 = columns
        out = _kernels.batch_fisher(x1, trials, x2, trials)
    else:
        k = spec.reps_per_group
        out = _kernels.batch_negbinom(*columns, k * (1.0 / spec.dispersion))
    return Study.from_distinct(*out, truth=truth)


# ---------------------------------------------------------------------------
# exact bias enumeration, one count pair at a time
# ---------------------------------------------------------------------------


def count_law(spec, theta, trials=None):
    """scipy's frozen laws of one group's counts, one per entry of
    ``theta`` (a mean, or a success probability with ``trials`` trials):
    Poisson, binomial, or the group sum's negative binomial with shape
    ``reps_per_group / dispersion``."""
    if spec.kind == "poisson_bin":
        return stats.poisson(theta)
    if spec.kind == "binomial_fet":
        return stats.binom(trials, theta)
    shape = spec.reps_per_group * (1.0 / spec.dispersion)
    return stats.nbinom(shape, shape / (shape + spec.reps_per_group * theta))


def negbinom_pmf_loop(shape: float, mean: float, top: int) -> np.ndarray:
    """The negative-binomial pmf of ``shape`` and ``mean`` at ``0..top``,
    one count at a time by the ratio ``(shape + x) / (x + 1) * mean /
    (shape + mean)`` of consecutive terms: no log-gamma values, so no
    cancellation at large shapes, where scipy's own pmf loses digits."""
    out = np.empty(top + 1)
    out[0] = math.exp(-shape * math.log1p(mean / shape))
    ratio = mean / (shape + mean)
    for x in range(top):
        out[x + 1] = out[x] * ((shape + x) / (x + 1) * ratio)
    return out


def count_bounds(spec, theta, trials=None):
    """Reference for each group's count bound in ``sim.bias_decomposition``:
    the trials of a binomial, else the least ``2^j - 1`` at or above
    scipy's ``isf`` at the tail ``sim._TAIL``."""
    from discretefdr.sim import _TAIL

    if spec.kind == "binomial_fet":
        return np.asarray(trials, dtype=np.int64)
    tail = count_law(spec, theta).isf(_TAIL)
    return (2.0 ** np.ceil(np.log2(tail + 1.0)) - 1.0).astype(np.int64)


def bias_expectations_loop(spec, lam: float, bounds, rep_index: int = 0):
    """Reference for ``sim.bias_decomposition``: per hypothesis ``i``, a
    sum over its count pairs ``(x1, x2)`` in ``0..bounds[i, 0]`` by
    ``0..bounds[i, 1]`` of the pair's probability (scipy's pmfs of the
    two groups' counts) times the public single test's ``1{p <= lam}``,
    support floor at ``lam`` (0 when no support point is at most
    ``lam``) and p-value. Returns ``(cdf, null_cdf, mean_p, covered)``,
    ``covered`` being the probability of the pairs summed over."""
    from discretefdr import binomial_test, fisher_test, nb_exact_test
    from discretefdr.sim import _draw_parameters, _replication_rng

    params = _draw_parameters(spec, _replication_rng(spec, rep_index))
    fet = spec.kind == "binomial_fet"
    size, k = 1.0 / spec.dispersion, spec.reps_per_group
    tested = {}

    def single(x1, x2, r):
        if (x1, x2, r) not in tested:
            if spec.kind == "poisson_bin":
                res = binomial_test(x1, x2)
            elif fet:
                res = fisher_test(x1, r, x2, r)
            else:
                res = nb_exact_test(x1, x2, size, k)
            below = res.support[res.support <= cut(lam)]
            floor = min(float(below.max()), lam) if below.size else 0.0
            tested[x1, x2, r] = (res.pvalue, floor)
        return tested[x1, x2, r]

    def pmf(theta, top, r):
        x = np.arange(top + 1)
        if spec.kind == "poisson_bin":
            return stats.poisson.pmf(x, theta)
        if fet:
            return stats.binom.pmf(x, r, theta)
        shape = k * size
        return stats.nbinom.pmf(x, shape, shape / (shape + k * theta))

    out = np.zeros((4, spec.m))
    for i in range(spec.m):
        r = int(params["trials"][i]) if fet else None
        top1, top2 = (int(b) for b in bounds[i])
        w1 = pmf(params["theta1"][i], top1, r)
        w2 = pmf(params["theta2"][i], top2, r)
        for x1 in range(top1 + 1):
            for x2 in range(top2 + 1):
                p, floor = single(x1, x2, r)
                w = w1[x1] * w2[x2]
                out[:, i] += (w * (p <= cut(lam)), w * floor, w * p, w)
    return tuple(out)


# ---------------------------------------------------------------------------
# bootstrap tuning, one gather and sum per grid point
# ---------------------------------------------------------------------------


def bootstrap_shared_gather(study, grid):
    """Reference for ``tuning.bootstrap_tune``: draws the shared B x m
    resample index, then for each grid point gathers its adjusted terms
    over the index and sums each resample. Returns the chosen pair, the
    MSE table and the full-sample column."""
    from discretefdr import generalized_pi0

    m = study.m
    full = np.array(
        [generalized_pi0(study, lam, eps).value for lam, eps in grid.points]
    )
    target = float(full.min())
    rng = np.random.default_rng(np.random.SeedSequence(grid.seed))
    idx = rng.integers(0, m, size=(grid.B, m))
    mse = np.empty(len(grid.points))
    for j, (lam, eps) in enumerate(grid.points):
        floor = study.support_floor(lam)
        terms = (study.pvalues > cut(lam)).astype(np.float64) - eps * (lam - floor)
        raw = terms[idx].sum(axis=1) / ((1.0 - lam) * m)
        boot = np.minimum(1.0, np.maximum(0.0, raw))
        mse[j] = np.mean((boot - target) ** 2)
    best = min(
        range(len(grid.points)),
        key=lambda j: (mse[j], grid.points[j][0], grid.points[j][1]),
    )
    return grid.points[best], mse, full


# ---------------------------------------------------------------------------
# row-at-a-time text I/O: references for the column-wise reader and writer
# ---------------------------------------------------------------------------


def fmt_cell(x) -> str:
    """Render one CSV cell: floats at 9 significant digits, NaN as NA."""
    if isinstance(x, float):
        if math.isnan(x):
            return "NA"
        return f"{x:.9g}"
    if x is None:
        return "NA"
    return str(x)


def write_csv_rows(path, header, rows) -> None:
    """Write rows with ``csv.writer``, one ``fmt_cell`` call per cell."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([fmt_cell(cell) for cell in row])


def jsonify(obj):
    """Round floats to 9 significant digits; map non-finite to JSON-safe."""
    if isinstance(obj, float):
        if math.isnan(obj):
            return None
        if math.isinf(obj):
            return "Infinity" if obj > 0 else "-Infinity"
        return float(f"{obj:.9g}")
    if isinstance(obj, dict):
        return {k: jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonify(v) for v in obj]
    return obj


def json_text(payload) -> str:
    """The text of a JSON output: ``jsonify``, then ``json.dumps`` with
    ``indent=2``, and a closing line feed."""
    return json.dumps(jsonify(payload), indent=2) + "\n"


#: The largest count, per cell and per group sum, a table may hold.
INT64_MAX = 2**63 - 1


def _parse_int(token: str, lineno: int) -> int:
    token = token.strip()
    try:
        value = int(token)
    except ValueError:
        raise ValueError(f"line {lineno}: non-integer count {token!r}") from None
    if value < 0:
        raise ValueError(f"line {lineno}: negative count {value}")
    if value > INT64_MAX:
        raise ValueError(
            f"line {lineno}: count {value} exceeds the largest supported "
            f"count {INT64_MAX}"
        )
    return value


def _within(total: int, schema) -> bool:
    if schema.min_total is not None and total < schema.min_total:
        return False
    if schema.max_total is not None and total > schema.max_total:
        return False
    return True


def ingest_rows(source, schema):
    """Reference for ``ingest_counts``: parse, check and filter one row
    at a time, in Python integers, refusing a count or a group sum beyond
    int64. A row of the wrong width names every legal width. Once every
    row parses, the first kept row whose conditioned total exceeds the
    kernels' limit is an error."""
    from discretefdr import CountTable
    from discretefdr._kernels import MAX_TOTAL

    text = source.read().decode("utf-8")
    lines = [
        (lineno, line)
        for lineno, line in enumerate(text.splitlines(), start=1)
        if line.lstrip()[:1] not in ("", "#")
    ]
    if not lines:
        raise ValueError("line 1: empty input, header row required")
    delim = "\t" if "\t" in lines[0][1] else ","

    if schema.kind == "fet":
        legal = [5] if schema.trials is None else [5, 3]
    elif schema.kind == "ent" and schema.reps > 1:
        legal = [1 + 2 * schema.reps, 3]
    else:
        legal = [3]
    ids, g1, g2, t1, t2 = [], [], [], [], []
    dropped = 0
    beyond = []
    for lineno, line in lines[1:]:
        tokens = line.split(delim)
        if len(tokens) not in legal:
            raise ValueError(
                f"line {lineno}: expected {' or '.join(map(str, legal))} "
                f"columns, got {len(tokens)}"
            )
        if schema.kind == "fet" and len(tokens) == 5:
            x1, r1, x2, r2 = (_parse_int(tok, lineno) for tok in tokens[1:])
        elif schema.kind == "ent" and len(tokens) > 3:
            vals = [_parse_int(tok, lineno) for tok in tokens[1:]]
            x1, x2 = sum(vals[: schema.reps]), sum(vals[schema.reps :])
            for total in (x1, x2):
                if total > INT64_MAX:
                    raise ValueError(
                        f"line {lineno}: group sum {total} exceeds the largest "
                        f"supported count {INT64_MAX}"
                    )
            r1 = r2 = 0
        else:
            x1 = _parse_int(tokens[1], lineno)
            x2 = _parse_int(tokens[2], lineno)
            r1 = r2 = schema.trials if schema.kind == "fet" else 0
        if schema.kind == "fet" and (x1 > r1 or x2 > r2):
            raise ValueError(f"line {lineno}: count exceeds trials")
        totals = (r1, r2) if schema.kind == "fet" else (x1, x2)
        if not all(_within(t, schema) for t in totals):
            dropped += 1
            continue
        if schema.kind == "fet" and max(r1, r2) > MAX_TOTAL:
            beyond.append(f"line {lineno}: trials {max(r1, r2)} exceed")
        elif schema.kind != "fet" and x1 + x2 > MAX_TOTAL:
            beyond.append(f"line {lineno}: total {x1 + x2} exceeds")
        ids.append(tokens[0].strip())
        g1.append(x1)
        g2.append(x2)
        t1.append(r1)
        t2.append(r2)

    if beyond:
        raise ValueError(f"{beyond[0]} the largest supported total {MAX_TOTAL}")
    fet = schema.kind == "fet"
    return CountTable(
        kind=schema.kind,
        ids=ids,
        group1=np.array(g1, dtype=np.int64),
        group2=np.array(g2, dtype=np.int64),
        trials1=np.array(t1, dtype=np.int64) if fet else None,
        trials2=np.array(t2, dtype=np.int64) if fet else None,
        size=schema.size,
        reps=schema.reps,
        dropped=dropped,
    )


def features_rows(table, study):
    """``features.csv`` rows: id, p-value and the support cell."""
    for ident, p, support in zip(table.ids, study.pvalues.tolist(), study.supports):
        yield ident, p, ";".join([f"{v:.9g}" for v in support.tolist()])


def clip01_where(x):
    """Reference for ``estimators._clip01``: ``x`` clipped to [0, 1] by
    nested ``np.where`` (NaN stays NaN, -0.0 stays -0.0)."""
    return np.where(x < 0.0, 0.0, np.where(x > 1.0, 1.0, x))


def pi0_loop(study, method: str, lam: float, eps) -> tuple[float, float]:
    """Reference for the estimators: one study's raw and clipped
    estimate, from the one-study formulas (the per-hypothesis loops for
    the support-based two)."""
    p, m = study.pvalues, study.m
    if method == "storey":
        raw = int(np.count_nonzero(p > cut(lam))) / ((1.0 - lam) * m)
    elif method == "generalized":
        raw = generalized_raw_loop(p, study.supports, lam, eps)
    elif method == "pounds_tilde":
        raw = 2.0 * float(np.mean(p))
    elif method == "pounds_hat":
        raw = pounds_hat_raw_loop(p, study.supports)
    else:  # benjamini, the order statistic at rank floor(m / 2)
        k = m // 2
        pk = float(np.sort(p)[k - 1])
        raw = math.inf if pk >= 1.0 else (m - k + 1) / (m * (1.0 - pk))
    return raw, 0.0 if raw < 0.0 else 1.0 if raw > 1.0 else raw


def procedure_results(study, procedures, alphas, lam, eps):
    """Every named procedure at every level, transcribed from the
    definitions: the estimate a procedure runs on comes from
    :func:`pi0_loop`, then :func:`threshold_loop` runs on its FDR
    estimator or :func:`bh_sorted` runs at the (adapted) level. Yields
    ``(name, (lambda, epsilon, pi0 multiplier), alpha, result)``, level
    by level; ``adaptive_bh`` is left out at m = 1, where the median
    estimator is undefined."""
    from discretefdr import FdrEstimator, Pi0Estimate, build_rejection_process

    proc = build_rejection_process(study.pvalues)
    for alpha in alphas:
        for name in procedures:
            if name == "bh":
                res = bh_sorted(study.pvalues, alpha)
                yield name, (None, None, 1.0), alpha, res
            elif name == "adaptive_bh":
                if study.m >= 2:
                    value = pi0_loop(study, "benjamini", lam, eps)[1]
                    res = bh_sorted(study.pvalues, min(1.0, alpha / value))
                    yield name, (None, None, value), alpha, res
            else:
                method = "generalized" if name == "generalized" else "storey"
                pi0 = Pi0Estimate(method, *pi0_loop(study, method, lam, eps), lam=lam)
                est = FdrEstimator(name, pi0, lam=lam)
                cell_eps = eps if name == "generalized" else 0.0
                cells = (lam, cell_eps, est.multiplier(study.m))
                yield name, cells, alpha, threshold_loop(est, proc, alpha)


def analyze_table_rows(study, lam, eps, alphas):
    """``table.csv`` rows of ``analyze``: its four procedures, level by
    level."""
    procedures = ("generalized", "storey", "bh", "adaptive_bh")
    for name, cells, alpha, res in procedure_results(
        study, procedures, alphas, lam, eps
    ):
        yield (name, *cells, alpha, res.t_alpha, res.fdr_at_t, res.rejections)


def pi0_replication_rows(summary):
    """``pi0_replications.csv`` rows of ``simulate``."""
    for r in range(summary.spec.reps):
        for j, name in enumerate(summary.pi0_methods):
            yield (
                r, name, float(summary.pi0_estimates[r, j]),
                float(summary.excess[r, j]),
            )


def mtp_replication_rows(summary):
    """``mtp_replications.csv`` rows of ``simulate``."""
    for r in range(summary.spec.reps):
        for j, name in enumerate(summary.procedures):
            for a, alpha in enumerate(summary.spec.alpha_levels):
                yield (
                    r, name, float(alpha),
                    float(summary.thresholds[r, j, a]),
                    int(summary.rejections[r, j, a]),
                    float(summary.fdp[r, j, a]),
                )
