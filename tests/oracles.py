"""Brute-force reference implementations used to freeze expected values.

Everything here is computed by direct enumeration over the conditioned
outcome space with scipy's pmfs — deliberately a different code path
from the library's log-weight kernels, so agreement is evidence rather
than tautology. The per-law builders from log-weights (``logw_*``,
``outcome_pvalues``, ``doubling_outcome_pvalues``) are the exception:
they repeat the kernels' arithmetic one law at a time, so the kernels'
blockwise tables must match them bit for bit once ``floored``.

The row-at-a-time count-table parser (``ingest_rows``) and CSV writer
(``write_csv_rows``) are the references for the library's column-wise
ones, and ``generate_scenario_alone`` (one kernel call per replication)
for ``sim``'s pooled replications. ``procedure_results`` transcribes
each procedure from its estimator and FDR functions, the reference for
``sim.evaluate_study``. ``PValueProfile``, ``support_cdf`` and
``null_expected_pvalue`` are per-hypothesis scalar references for the
estimators' per-support statistics.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np
from scipy import stats
from scipy.special import gammaln

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


def logw_binomial(n) -> np.ndarray:
    """Log-weights of Binomial(n, 1/2) over the outcomes ``0..n``."""
    a = np.arange(n + 1)
    return gammaln(n + 1.0) - gammaln(a + 1.0) - gammaln(n - a + 1.0)


def logw_fisher(r1, r2, s) -> np.ndarray:
    """Hypergeometric log-weights of ``a`` over ``max(0, s - r2)..min(r1, s)``."""
    a = np.arange(max(0, s - r2), min(r1, s) + 1)
    return (gammaln(r1 + 1.0) - gammaln(a + 1.0) - gammaln(r1 - a + 1.0)) + (
        gammaln(r2 + 1.0) - gammaln(s - a + 1.0) - gammaln(r2 - (s - a) + 1.0)
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
    log-weights: ``min(1, 2 * smaller tail)``."""
    w = np.exp(logw - logw.max())
    probs = w / w.sum()
    lower = np.cumsum(probs)
    upper = np.cumsum(probs[::-1])[::-1]
    return np.minimum(1.0, 2.0 * np.minimum(lower, upper))


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
    building the laws blockwise.
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
            s = x1[i] + x2[i]
            lo = max(0, s - r2[i])
            laws.append((logw_fisher(r1[i], r2[i], s), x1[i] - lo))
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


def per_feature_layout(pvalues, flat, start, length):
    """Copy the kernels' shared support slices out to a layout in which
    every feature owns its own slice, laid out in feature order."""
    pieces = [flat[a : a + n] for a, n in zip(start.tolist(), length.tolist())]
    per_flat = np.concatenate(pieces) if pieces else np.empty(0)
    return pvalues, per_flat, np.cumsum(length) - length, length


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


def support_floor_loop(supports, lam: float) -> np.ndarray:
    """Largest support element at most ``lam``, one hypothesis at a time
    (0 when none qualifies, ``lam`` for an empty support)."""
    out = np.empty(len(supports))
    for i, s in enumerate(supports):
        if s.shape[0] == 0:
            out[i] = lam
            continue
        idx = int(np.searchsorted(s, lam, side="right"))
        out[i] = 0.0 if idx == 0 else s[idx - 1]
    return out


def generalized_raw_loop(pvalues, supports, lam: float, epsilon) -> float:
    """Unclipped discreteness-adjusted estimate from a per-hypothesis loop."""
    floor = support_floor_loop(supports, lam)
    terms = (np.asarray(pvalues) > lam).astype(np.float64) - epsilon * (
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
    from discretefdr.fdr import _MAX_NUDGES, ThresholdResult, evaluate_fdr

    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must lie in [0, 1]")
    m = proc.m
    mult = est.multiplier(m)

    def f(t):
        return evaluate_fdr(est, proc, t)

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
    if alpha >= 1.0 and (est._caps_at_one() or est.kind == "storey_variant"):
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
        below = pv[pv <= lam]
        floor = float(below.max()) if below.size else 0.0
        at = np.nonzero(totals == n)[0]
        pvalues[at] = pv[x1[at]]
        pmf = stats.binom.pmf(np.arange(n + 1)[None, :], n, q[at, None])
        exceed = pmf[:, pv > lam].sum(axis=1)
        expected[at] = exceed - epsilon * (lam - floor)
    return pvalues, expected


def generate_scenario_alone(spec, rep_index: int):
    """Reference for ``sim``'s pooled replications: draws one
    replication's counts and tests them with a kernel call of their own,
    as ``generate_scenario`` did before replications were pooled."""
    from discretefdr import Study, _kernels
    from discretefdr.sim import _draw_parameters, _replication_rng

    rng = _replication_rng(spec, rep_index)
    params = _draw_parameters(spec, rng)
    truth = np.zeros(spec.m, dtype=bool)
    truth[: spec.m0] = True

    if spec.kind == "poisson_bin":
        x1 = rng.poisson(params["theta1"])
        x2 = rng.poisson(params["theta2"])
        out = _kernels.batch_binomial(
            x1.astype(np.int64), x2.astype(np.int64)
        )
    elif spec.kind == "binomial_fet":
        trials = params["trials"].astype(np.int64)
        x1 = rng.binomial(trials, params["theta1"])
        x2 = rng.binomial(trials, params["theta2"])
        out = _kernels.batch_fisher(
            x1.astype(np.int64), trials, x2.astype(np.int64), trials
        )
    else:
        sigma = 1.0 / spec.dispersion
        k = spec.reps_per_group
        p1 = sigma / (sigma + params["theta1"])
        p2 = sigma / (sigma + params["theta2"])
        s1 = rng.negative_binomial(sigma, p1, size=(k, spec.m)).sum(axis=0)
        s2 = rng.negative_binomial(sigma, p2, size=(k, spec.m)).sum(axis=0)
        out = _kernels.batch_negbinom(
            s1.astype(np.int64), s2.astype(np.int64), k * sigma
        )
    return Study.from_distinct(*out, truth=truth)


# ---------------------------------------------------------------------------
# exact bias enumeration, one count pair at a time
# ---------------------------------------------------------------------------


def bias_expectations_loop(spec, lam: float, truncation: int, rep_index: int = 0):
    """Reference for ``sim.bias_decomposition``: per hypothesis, a sum
    over its count pairs ``(x1, x2)`` of the pair's probability (scipy's
    pmfs of the two groups' counts) times the public single test's
    ``1{p <= lam}``, support floor at ``lam`` (0 when no support point is
    at most ``lam``) and p-value. The pairs are ``0..r`` by ``0..r`` for
    ``binomial_fet`` with trials ``r``, and those with ``x1 + x2 <=
    truncation`` otherwise. Returns ``(cdf, null_cdf, mean_p, covered)``,
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
            below = res.support[res.support <= lam]
            floor = float(below.max()) if below.size else 0.0
            tested[x1, x2, r] = (res.pvalue, floor)
        return tested[x1, x2, r]

    def pmf(theta, r):
        x = np.arange(r + 1)
        if spec.kind == "poisson_bin":
            return stats.poisson.pmf(x, theta)
        if fet:
            return stats.binom.pmf(x, r, theta)
        shape = k * size
        return stats.nbinom.pmf(x, shape, shape / (shape + k * theta))

    out = np.zeros((4, spec.m))
    for i in range(spec.m):
        r = int(params["trials"][i]) if fet else truncation
        w1, w2 = pmf(params["theta1"][i], r), pmf(params["theta2"][i], r)
        for x1 in range(r + 1):
            for x2 in range(r + 1 if fet else r + 1 - x1):
                p, floor = single(x1, x2, r)
                w = w1[x1] * w2[x2]
                out[:, i] += (w * (p <= lam), w * floor, w * p, w)
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
        terms = (study.pvalues > lam).astype(np.float64) - eps * (lam - floor)
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


def _parse_int(token: str, lineno: int) -> int:
    token = token.strip()
    try:
        value = int(token)
    except ValueError:
        raise ValueError(f"line {lineno}: non-integer count {token!r}") from None
    if value < 0:
        raise ValueError(f"line {lineno}: negative count {value}")
    return value


def _within(total: int, schema) -> bool:
    if schema.min_total is not None and total < schema.min_total:
        return False
    if schema.max_total is not None and total > schema.max_total:
        return False
    return True


def ingest_rows(source, schema):
    """Reference for ``ingest_counts``: parse, check and filter one row
    at a time, in Python integers. Once every row parses, the first kept
    row whose conditioned total exceeds the kernels' limit is an error."""
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

    ids, g1, g2, t1, t2 = [], [], [], [], []
    dropped = 0
    beyond = []
    for lineno, line in lines[1:]:
        tokens = line.split(delim)
        if schema.kind == "fet" and len(tokens) == 5:
            x1, r1, x2, r2 = (_parse_int(tok, lineno) for tok in tokens[1:])
        elif schema.kind == "fet" and schema.trials is None:
            raise ValueError(f"line {lineno}: expected 5 columns, got {len(tokens)}")
        elif schema.kind == "ent" and len(tokens) == 1 + 2 * schema.reps:
            vals = [_parse_int(tok, lineno) for tok in tokens[1:]]
            x1, x2 = sum(vals[: schema.reps]), sum(vals[schema.reps :])
            r1 = r2 = 0
        else:
            if len(tokens) != 3:
                raise ValueError(
                    f"line {lineno}: expected 3 columns, got {len(tokens)}"
                )
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


def procedure_results(study, procedures, alphas, lam, eps):
    """Every named procedure at every level, transcribed from the
    definitions: the estimate a procedure runs on comes from its own
    estimator function, then :func:`threshold` runs on its FDR estimator
    or a step-up procedure runs at the (adapted) level. Yields
    ``(name, (lambda, epsilon, pi0 multiplier), alpha, result)``, level
    by level; ``adaptive_bh`` is left out at m = 1, where the median
    estimator is undefined."""
    from discretefdr import (
        FdrEstimator,
        adaptive_bh,
        benjamini_pi0,
        bh_procedure,
        build_rejection_process,
        generalized_pi0,
        storey_pi0,
        threshold,
    )

    proc = build_rejection_process(study.pvalues)
    for alpha in alphas:
        for name in procedures:
            if name == "bh":
                yield name, (None, None, 1.0), alpha, bh_procedure(proc, alpha)
            elif name == "adaptive_bh":
                if study.m >= 2:
                    pi0 = benjamini_pi0(study)
                    res = adaptive_bh(proc, alpha, pi0)
                    yield name, (None, None, pi0.value), alpha, res
            else:
                if name == "generalized":
                    pi0, cell_eps = generalized_pi0(study, lam, eps), eps
                else:
                    pi0, cell_eps = storey_pi0(study, lam), 0.0
                est = FdrEstimator(name, pi0, lam=lam)
                cells = (lam, cell_eps, est.multiplier(study.m))
                yield name, cells, alpha, threshold(est, proc, alpha)


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
