"""Acceptance gate: ten end-to-end checks, one verdict line each.

Each check exercises a documented guarantee of the package at a stated
tolerance and, where one applies, a wall-clock budget that is asserted.
Shared random corpora are built in module fixtures so the timed regions
cover the work under test, not scaffolding. Verdict lines print as
``ACCEPTANCE <k> PASS: ...`` and surface in the test report.

Check 6 measures the support-adjusted estimator's accuracy under dense
strong signal. Its excess over the true null proportion is split by
hypothesis, and each part is held to what the estimator promises: the
true-null part has expectation exactly 0 given the totals, and the
false-null part its exact expectation given the totals, found by
enumeration. The total has no lower bound, because false nulls pull
the estimate below the truth at a fixed cutoff and weight.

Check 10 measures the FDR estimators' conservativeness at fixed
thresholds, the paper's "simultaneous asymptotic conservativeness"
after Storey, Taylor & Siegmund (2004): at each threshold the mean of
the estimate less the realized false discovery proportion is not below
0 beyond noise, and the negative part of each replication's infimum
over a threshold grid shrinks as the number of hypotheses grows.

Check 8 compares against a published study's data set that is not
bundled; it skips unless an environment variable points at the count
file.
"""

from __future__ import annotations

import json
import os
import re
import time
from pathlib import Path

import numpy as np
import pytest

import oracles
from conftest import random_pvalue_instance, random_study
from discretefdr import (
    FdrEstimator,
    Pi0Estimate,
    ScenarioSpec,
    Study,
    TuningGrid,
    binomial_test,
    bootstrap_tune,
    build_rejection_process,
    compute_pi0,
    evaluate_fdr,
    fisher_test,
    generalized_pi0,
    generate_scenario,
    inverse_rejection_L,
    nb_exact_test,
    run_replications,
    storey_pi0,
    threshold,
)
from discretefdr.cli import main
from scipy import stats

CORPUS_SEED = 20240901
CORPUS_SIZE = 1000


@pytest.fixture(scope="module")
def support_corpus():
    """1000 studies with random step supports, p-values drawn from
    the supports, and a random exceedance cutoff per study."""
    rng = np.random.default_rng(CORPUS_SEED)
    studies = [
        random_study(rng, int(rng.integers(8, 41))) for _ in range(CORPUS_SIZE)
    ]
    lams = rng.uniform(0.0, 0.95, size=CORPUS_SIZE)
    return studies, lams


@pytest.fixture(scope="module")
def uniform_corpus():
    """200 studies with empty supports (continuous uniform nulls)."""
    rng = np.random.default_rng(CORPUS_SEED + 1)
    return [
        random_study(rng, int(rng.integers(8, 41)), empty_supports=True)
        for _ in range(200)
    ]


def test_acceptance_01_reduction_identity(support_corpus, uniform_corpus):
    """The support-adjusted estimator collapses to the plain
    exceedance estimator bit-for-bit when the adjustment is off, and
    for every adjustment weight when all supports are empty."""
    studies, lams = support_corpus
    eps_grid = (0.0, 0.25, 0.5, 0.75, 1.0)

    start = time.perf_counter()
    for study, lam in zip(studies, lams):
        adjusted = generalized_pi0(study, float(lam), 0.0)
        plain = storey_pi0(study, float(lam))
        assert adjusted.raw == plain.raw
        assert adjusted.value == plain.value
    for study, lam in zip(uniform_corpus, lams):
        plain = storey_pi0(study, float(lam))
        for eps in eps_grid:
            adjusted = generalized_pi0(study, float(lam), eps)
            assert adjusted.raw == plain.raw
            assert adjusted.value == plain.value
    elapsed = time.perf_counter() - start

    assert elapsed < 1.0, f"reduction identity took {elapsed:.3f}s (budget 1s)"
    print(
        f"ACCEPTANCE 1 PASS: bit-for-bit reduction on {len(studies)} "
        f"support studies (weight 0) and {len(uniform_corpus)} empty-support "
        f"studies x {len(eps_grid)} weights; elapsed {elapsed:.3f}s < 1s"
    )


def test_acceptance_02_domination_and_threshold_ordering(support_corpus):
    """The capped adjusted FDR estimator never exceeds the uncapped
    exceedance one pointwise, and its thresholds and rejection counts
    are never smaller. Zero violations allowed."""
    studies, _ = support_corpus
    rng = np.random.default_rng(CORPUS_SEED + 2)
    pointwise = thresholds = 0
    for study in studies:
        proc = build_rejection_process(study.pvalues)
        adjusted = FdrEstimator(
            kind="generalized", pi0=generalized_pi0(study, 0.5, 1.0)
        )
        plain = FdrEstimator(kind="storey", pi0=storey_pi0(study, 0.5))
        for t in rng.uniform(0.0, 1.0, size=100):
            assert evaluate_fdr(adjusted, proc, float(t)) <= evaluate_fdr(
                plain, proc, float(t)
            )
            pointwise += 1
        for alpha in (0.05, 0.1):
            res_adj = threshold(adjusted, proc, alpha)
            res_pl = threshold(plain, proc, alpha)
            assert res_adj.t_alpha >= res_pl.t_alpha
            assert res_adj.rejections >= res_pl.rejections
            thresholds += 1
    print(
        f"ACCEPTANCE 2 PASS: 0 violations over {pointwise} pointwise "
        f"comparisons and {thresholds} threshold/rejection orderings "
        f"on {len(studies)} studies"
    )


def test_acceptance_03_stopping_threshold_equality():
    """Whenever the multiplier exceeds the level and something is
    rejected, the solver lands exactly on the level (within 1e-12),
    for both the capped adjusted estimator and the offset variant;
    the exact solver agrees with a 1e-6 grid scan to one step."""
    rng = np.random.default_rng(CORPUS_SEED + 3)
    budget = 10.0
    tol = 1e-12
    grid_cases: list[tuple[FdrEstimator, object, float, float]] = []

    start = time.perf_counter()
    for kind in ("generalized", "storey_type_sigma"):
        qualified = 0
        attempts = 0
        while qualified < 1000:
            attempts += 1
            assert attempts < 5000, f"could not generate instances for {kind}"
            m = int(rng.integers(30, 120))
            proc = build_rejection_process(random_pvalue_instance(rng, m))
            alpha = float(rng.uniform(0.02, 0.2))
            if kind == "generalized":
                raw = float(rng.uniform(alpha + 0.05, 1.2))
                value = min(1.0, max(0.0, raw))
                est = FdrEstimator(
                    kind="generalized",
                    pi0=Pi0Estimate("generalized", raw, value, lam=0.5),
                )
            else:
                raw = float(rng.uniform(0.3, 1.5))
                target = float(rng.uniform(alpha + 0.02, min(1.0, raw)))
                sigma = (raw - target) * 0.5 * m
                est = FdrEstimator(
                    kind="storey_type_sigma",
                    pi0=Pi0Estimate("storey", raw, min(1.0, raw), lam=0.5),
                    lam=0.5,
                    sigma=sigma,
                )
            res = threshold(est, proc, alpha)
            if res.rejections == 0:
                continue
            qualified += 1
            f_at = evaluate_fdr(est, proc, res.t_alpha)
            assert abs(f_at - alpha) <= tol, (
                f"{kind}: |f(t_alpha) - alpha| = {abs(f_at - alpha):.2e}"
            )
            if len(grid_cases) < 80 and qualified % 25 == 0:
                grid_cases.append((est, proc, alpha, res.t_alpha))

    ts = np.arange(0.0, 1.0 + 5e-7, 1e-6)
    for est, proc, alpha, t_alpha in grid_cases:
        idx = np.searchsorted(proc.distinct, ts, side="right")
        r = np.where(idx > 0, proc.cum[np.maximum(idx - 1, 0)], 0)
        f = est.multiplier(proc.m) * ts * proc.m / np.maximum(r, 1)
        feasible = np.nonzero(f <= alpha + 1e-15)[0]
        g = float(ts[feasible[-1]])
        assert g <= t_alpha + 1e-12, "grid scan beat the exact solver"
        assert t_alpha - g <= 1e-6 + 1e-12, "solver beyond one grid step"
    elapsed = time.perf_counter() - start

    assert elapsed < budget, f"stopping check took {elapsed:.2f}s (budget 10s)"
    print(
        f"ACCEPTANCE 3 PASS: |f(t_alpha) - alpha| <= 1e-12 on 1000 "
        f"qualifying instances per estimator kind; exact solver within one "
        f"1e-6 grid step on {len(grid_cases)} instances; "
        f"elapsed {elapsed:.2f}s < {budget:.0f}s"
    )


def test_acceptance_04_inverse_rejection_oracle():
    """The closed-form scaled inverse rejection process equals the
    naive ratio exactly; every discontinuity steps downward; on the
    heavy-tie example the jump size matches the closed form exactly."""
    rng = np.random.default_rng(CORPUS_SEED + 4)
    for _ in range(1000):
        proc = build_rejection_process(
            random_pvalue_instance(rng, int(rng.integers(5, 60)))
        )
        t = float(rng.uniform(0.0, 1.0))
        assert inverse_rejection_L(proc, t) == t / max(proc.rejections(t), 1)
        at_points = proc.distinct / proc.cum
        left_limits = proc.distinct / np.concatenate(
            ([1.0], proc.cum[:-1].astype(np.float64))
        )
        assert np.all(at_points <= left_limits), "upward jump found"

    proc = build_rejection_process(oracles.counterexample_instance())
    heavy = int(np.argmax(proc.mult))
    p = float(proc.distinct[heavy])
    n = float(proc.mult[heavy])
    r = float(proc.cum[heavy])
    assert n > 1 and heavy > 0
    at = inverse_rejection_L(proc, p)
    left = p / float(proc.cum[heavy - 1])
    assert at < left, "discontinuity at the heavy p-value is not downward"
    assert left - at == p * n / (r * (r - n))
    print(
        "ACCEPTANCE 4 PASS: closed form == naive ratio on 1000 random "
        "(instance, t) pairs; all jumps downward; heavy-tie jump equals "
        f"p*n/(R*(R-n)) = {left - at!r} exactly"
    )


def test_acceptance_05_exact_test_oracle_equivalence():
    """For every conditioned total at most 30, the three exact tests
    match brute-force enumeration to 1e-12 in p-values and supports,
    and the null mass at or below each support point never exceeds it
    (discrete null dominates the uniform)."""
    budget = 30.0
    tol = 1e-12
    laws = 0

    def check_law(oracle_pv, pmf, results):
        nonlocal laws
        laws += 1
        package_pv = np.array([res.pvalue for res in results])
        assert np.abs(package_pv - oracle_pv).max() <= tol
        oracle_support = np.unique(oracle_pv)
        support = results[0].support
        assert support.shape == oracle_support.shape
        assert np.abs(support - oracle_support).max() <= tol
        for t in oracle_support:
            mass = oracles.null_mass_at_most(pmf, oracle_pv, float(t))
            assert mass <= t + tol, "null mass exceeds the support point"

    start = time.perf_counter()
    for n in range(31):
        check_law(
            oracles.binomial_outcome_pvalues(n),
            stats.binom.pmf(np.arange(n + 1), n, 0.5),
            [binomial_test(a, n - a) for a in range(n + 1)],
        )
    for r1 in range(1, 13):
        for r2 in range(1, 13):
            for s in range(r1 + r2 + 1):
                lo, oracle_pv = oracles.fisher_outcome_pvalues(r1, r2, s)
                hi = min(r1, s)
                pmf = stats.hypergeom.pmf(
                    np.arange(lo, hi + 1), r1 + r2, r1, s
                )
                check_law(
                    oracle_pv,
                    pmf,
                    [
                        fisher_test(a, r1, s - a, r2)
                        for a in range(lo, hi + 1)
                    ],
                )
    for size, reps in ((0.5, 1), (0.5, 3), (1.0, 1), (1.0, 3),
                       (2.0, 1), (2.0, 3), (3.0, 1), (3.0, 3)):
        shape_total = size * reps
        for s in range(31):
            oracle_pv = oracles.negbinom_outcome_pvalues(s, shape_total)
            if s == 0:
                pmf = np.array([1.0])
            else:
                a = np.arange(s + 1)
                q = shape_total / (shape_total + s / 2.0)
                f = stats.nbinom.pmf(a, shape_total, q)
                pmf = f * f[::-1]
            check_law(
                oracle_pv,
                pmf,
                [nb_exact_test(a, s - a, size, reps) for a in range(s + 1)],
            )
    elapsed = time.perf_counter() - start

    assert elapsed < budget, f"oracle check took {elapsed:.1f}s (budget 30s)"
    print(
        f"ACCEPTANCE 5 PASS: p-values and supports match enumeration to "
        f"1e-12 with dominated null mass on {laws} conditional laws "
        f"(totals <= 30); elapsed {elapsed:.1f}s < {budget:.0f}s"
    )


def test_acceptance_06_strong_signal_estimator_accuracy():
    """Desk-scale accuracy on the two-Poisson scenario at cutoff 0.5 and
    weight 1. The support-adjusted estimator must be the least
    upward-biased of the four estimators, and its excess over the true
    null proportion, split into a true-null and a false-null part, must
    be what the estimator promises of each: the true-null part, whose
    expectation given the totals is exactly 0, lies within 2 SE of 0;
    the false-null part lies within 2 SE of its exact expectation given
    each replication's totals, enumerated by ``oracles``. The total is
    not bounded below: under strong signal the false-null part is
    negative, the under-estimate that the method itself warns of."""
    budget = 300.0
    lam, eps = 0.5, 1.0
    methods = ("generalized", "storey", "pounds_tilde", "benjamini")
    reps = 50
    verdicts = []

    def se(samples: np.ndarray) -> float:
        return float(samples.std(ddof=1) / np.sqrt(reps))

    start = time.perf_counter()
    for pi0 in (0.5, 0.8):
        spec = ScenarioSpec(
            kind="poisson_bin", m=1000, pi0=pi0, reps=reps, seed=0
        )
        m, m0 = spec.m, spec.m0
        excess = {name: np.empty(reps) for name in methods}
        null_part = np.empty(reps)
        alt_part = np.empty(reps)
        alt_exact = np.empty(reps)
        for rep in range(reps):
            study = generate_scenario(spec, rep)
            estimates = {
                name: compute_pi0(study, name, lam, eps) for name in methods
            }
            for name in methods:
                excess[name][rep] = estimates[name].value - pi0
            # the estimator on each side of the truth labels; the two
            # parts add up to its unclipped excess
            supports = study.supports
            nulls = generalized_pi0(
                Study(study.pvalues[:m0], supports[:m0]), lam, eps
            )
            alts = generalized_pi0(
                Study(study.pvalues[m0:], supports[m0:]), lam, eps
            )
            null_part[rep] = m0 / m * (nulls.raw - 1.0)
            alt_part[rep] = (m - m0) / m * alts.raw
            assert abs(
                null_part[rep] + alt_part[rep]
                - (estimates["generalized"].raw - pi0)
            ) <= 1e-12
            pvalues, expected = oracles.poisson_bin_adjusted_terms(
                spec, rep, lam, eps
            )
            assert np.abs(pvalues - study.pvalues).max() <= 1e-12, (
                f"replication {rep}: the replay drew other counts"
            )
            assert np.abs(expected[:m0] - (1.0 - lam)).max() <= 1e-12, (
                "a true null's term does not have expectation 1 - lambda"
            )
            alt_exact[rep] = expected[m0:].sum() / ((1.0 - lam) * m)
        gen = excess["generalized"]
        gen_mean = float(gen.mean())
        null_mean, null_se = float(null_part.mean()), se(null_part)
        alt_mean, alt_se = float(alt_part.mean()), se(alt_part)
        exact_mean = float(alt_exact.mean())
        gap = alt_part - alt_exact
        gap_mean, gap_se = float(gap.mean()), se(gap)
        print(f"--- true null proportion {pi0}, {reps} replications ---")
        for name in methods:
            mean, name_se = excess[name].mean(), se(excess[name])
            print(f"  {name:13s} mean excess {mean:+.5f}  SE {name_se:.5f}")
        print(
            f"  true-null part  mean {null_mean:+.5f}  SE {null_se:.5f}  "
            "(exact expectation 0)"
        )
        print(
            f"  false-null part mean {alt_mean:+.5f}  SE {alt_se:.5f}  "
            f"exact {exact_mean:+.5f}  gap SE {gap_se:.5f}"
        )
        assert abs(null_mean) <= 2.0 * null_se, (
            f"pi0={pi0}: the true-null part of the excess, {null_mean:+.5f}, "
            f"is {null_mean / null_se:+.1f} SE from 0; at weight 1 each true "
            "null's term has expectation exactly 1 - lambda given its total"
        )
        assert abs(gap_mean) <= 2.0 * gap_se, (
            f"pi0={pi0}: the false-null part of the excess, {alt_mean:+.5f}, "
            f"is {gap_mean / gap_se:+.1f} SE from its exact expectation "
            f"{exact_mean:+.5f} given the totals"
        )
        for name in methods[1:]:
            diff = gen - excess[name]
            se_diff = float(diff.std(ddof=1) / np.sqrt(reps))
            assert gen_mean <= float(excess[name].mean()) + 2.0 * se_diff, (
                f"adjusted estimator above {name} at pi0={pi0}"
            )
        verdicts.append(
            f"pi0={pi0}: total {gen_mean:+.5f} (SE {se(gen):.5f}), "
            f"true-null {null_mean:+.5f} (SE {null_se:.5f}), "
            f"false-null {alt_mean:+.5f} (SE {alt_se:.5f}; "
            f"exact {exact_mean:+.5f})"
        )
    elapsed = time.perf_counter() - start
    assert elapsed < budget, f"accuracy check took {elapsed:.1f}s"

    print(
        "ACCEPTANCE 6 PASS: least upward bias of four estimators; "
        "true-null part within 2 SE of 0 and false-null part within 2 SE "
        "of its exact expectation; " + "; ".join(verdicts)
        + f"; elapsed {elapsed:.1f}s < {budget:.0f}s"
    )


def test_acceptance_07_false_discovery_proportion_control():
    """Desk-scale control: the adjusted procedure's mean realized
    false discovery proportion stays within two standard errors of
    every nominal level on both count scenarios."""
    budget = 600.0
    reps = 50
    alphas = (0.05, 0.1)
    lines = []

    start = time.perf_counter()
    for kind in ("poisson_bin", "binomial_fet"):
        for pi0 in (0.5, 0.8):
            spec = ScenarioSpec(
                kind=kind, m=1000, pi0=pi0, reps=reps, seed=0,
                alpha_levels=alphas,
            )
            summary = run_replications(
                spec, pi0_methods=(), procedures=("generalized",)
            )
            for k, alpha in enumerate(alphas):
                fdp = summary.fdp[:, 0, k]
                mean = float(fdp.mean())
                bound = alpha + 2.0 * float(fdp.std(ddof=1) / np.sqrt(reps))
                assert mean <= bound, (
                    f"{kind} pi0={pi0} alpha={alpha}: "
                    f"mean FDP {mean:.4f} > {bound:.4f}"
                )
                lines.append(f"{kind}/{pi0}/{alpha}: {mean:.4f}<={bound:.4f}")
    elapsed = time.perf_counter() - start

    assert elapsed < budget, f"control check took {elapsed:.1f}s"
    print(
        "ACCEPTANCE 7 PASS: mean FDP within alpha + 2*SE on "
        + "; ".join(lines)
        + f"; elapsed {elapsed:.1f}s < {budget:.0f}s"
    )


def test_acceptance_08_published_study_replication(tmp_path):
    """Conditional replication against a published two-line
    methylation study: needs the unbundled count file."""
    path = os.environ.get("DISCRETEFDR_METHYLATION_COUNTS", "")
    if not path or not os.path.exists(path):
        pytest.skip(
            "ACCEPTANCE 8 SKIP: point DISCRETEFDR_METHYLATION_COUNTS at the "
            "two-line methylation count file (5-column: id, count and "
            "trials per line) to enable; the run then checks m=3945 after "
            "keeping features whose per-line totals lie in [1, 25], the "
            "adjusted estimate 0.5984886 with 451 rejections at level 0.05, "
            "the exceedance estimate 0.7609632 with 379, and 305 for the "
            "linear step-up baseline"
        )
    out = tmp_path / "replication"
    code = main([
        "analyze", path, "--test", "fet", "--out", str(out),
        "--lambda", "0.5", "--epsilon", "1", "--alpha", "0.05",
        "--min-total", "1", "--max-total", "25",
    ])
    assert code == 0
    estimates = json.loads((out / "estimates.json").read_text())
    assert estimates["m"] == 3945
    assert abs(estimates["generalized"]["value"] - 0.5984886) <= 1e-6
    assert abs(estimates["storey"]["value"] - 0.7609632) <= 1e-6
    rows = (out / "table.csv").read_text().strip().splitlines()
    header = rows[0].split(",")
    rejections = {
        row.split(",")[0]: int(row.split(",")[header.index("rejections")])
        for row in rows[1:]
    }
    assert rejections["generalized"] == 451
    assert rejections["storey"] == 379
    assert rejections["bh"] == 305
    print(
        "ACCEPTANCE 8 PASS: m=3945, adjusted 0.5984886/451, "
        "exceedance 0.7609632/379, step-up 305 reproduced"
    )


def test_acceptance_09_bootstrap_tuning_reduction():
    """On continuous uniform nulls with the adjustment disabled, the
    tuner reproduces a direct transcription of the classical
    bootstrap cutoff selection, every cutoff scored on one shared set of
    resamples, bit for bit."""
    rng = np.random.default_rng(CORPUS_SEED + 9)
    m, B, seed = 200, 100, 12345
    pvalues = rng.uniform(1e-9, 1.0, size=m)
    study = Study(pvalues, [np.array([])] * m)
    lams = [k * 0.05 for k in range(20)]
    grid = TuningGrid([(lam, 0.0) for lam in lams], B=B, seed=seed)
    result = bootstrap_tune(study, grid)

    # direct transcription: exceedance estimates on the full sample,
    # bootstrap MSE on one shared resample index against their minimum,
    # smallest-cutoff tie-break
    full = np.array([
        min(1.0, max(0.0, float(
            np.count_nonzero(pvalues > lam) / ((1.0 - lam) * m)
        )))
        for lam in lams
    ])
    target = float(full.min())
    stream = np.random.default_rng(np.random.SeedSequence(seed))
    idx = stream.integers(0, m, size=(B, m))
    mse = np.empty(len(lams))
    for j, lam in enumerate(lams):
        raw = (pvalues[idx] > lam).astype(np.float64).sum(axis=1) / (
            (1.0 - lam) * m
        )
        boot = np.minimum(1.0, np.maximum(0.0, raw))
        mse[j] = np.mean((boot - target) ** 2)
    best = min(range(len(lams)), key=lambda j: (mse[j], lams[j]))

    assert result.chosen == (lams[best], 0.0)
    assert result.estimate == float(full[best])
    assert np.array_equal(result.mse, mse)
    assert np.array_equal(result.full_sample, full)
    print(
        f"ACCEPTANCE 9 PASS: tuner == direct transcription bit-for-bit "
        f"(chosen cutoff {result.chosen[0]:g}, estimate "
        f"{result.estimate:.6f})"
    )


def _fdr_less_fdp(study: Study, est: FdrEstimator, thresholds) -> np.ndarray:
    """``FDR_hat(t) - FDP(t)`` at each threshold, where ``FDP(t)`` is the
    share of true nulls among the p-values at most ``t`` (0 when there
    are none)."""
    proc = build_rejection_process(study.pvalues)
    nulls = np.sort(study.pvalues[study.truth])
    out = np.empty(len(thresholds))
    for i, t in enumerate(thresholds):
        false = int(np.searchsorted(nulls, t, side="right"))
        out[i] = evaluate_fdr(est, proc, t) - false / max(proc.rejections(t), 1)
    return out


def test_acceptance_10_fdr_estimator_conservativeness():
    """The FDR estimators are conservative at fixed thresholds on both
    count scenarios: (a) at each of seven thresholds from 0.001 to 0.2,
    the mean over 100 replications of ``FDR_hat(t) - FDP(t)`` is at
    least -2 SE, for the adjusted estimator (cutoff 0.5, weight 1) and
    the exceedance estimator, at m = 1000 and true null proportions
    0.5, 0.8 and 0.95; (b) on the two-Poisson scenario at 0.5, the mean
    negative part of each replication's infimum of ``FDR_hat(t) -
    FDP(t)`` over 100 thresholds in [0.005, 0.5] (50 replications) falls
    as m grows over 1000, 4000 and 16 000: the estimator is
    conservative asymptotically, not at every finite m."""
    budget = 60.0
    lam, eps = 0.5, 1.0
    thresholds = (0.001, 0.005, 0.01, 0.02, 0.05, 0.1, 0.2)
    grid = np.linspace(0.005, 0.5, 100)
    reps = 100
    worst = {"generalized": np.inf, "storey": np.inf}
    lines = []

    def estimators(study):
        return {
            "generalized": FdrEstimator(
                kind="generalized", pi0=generalized_pi0(study, lam, eps)
            ),
            "storey": FdrEstimator(kind="storey", pi0=storey_pi0(study, lam)),
        }

    start = time.perf_counter()
    for kind in ("poisson_bin", "binomial_fet"):
        for pi0 in (0.5, 0.8, 0.95):
            spec = ScenarioSpec(kind=kind, m=1000, pi0=pi0, reps=reps, seed=0)
            gaps = {name: np.empty((reps, len(thresholds))) for name in worst}
            for rep in range(reps):
                study = generate_scenario(spec, rep)
                for name, est in estimators(study).items():
                    gaps[name][rep] = _fdr_less_fdp(study, est, thresholds)
            for name, gap in gaps.items():
                mean = gap.mean(axis=0)
                se = gap.std(axis=0, ddof=1) / np.sqrt(reps)
                z = np.divide(mean, se, out=np.full_like(mean, np.inf), where=se > 0)
                for t, m_t, se_t in zip(thresholds, mean, se):
                    assert m_t >= -2.0 * se_t, (
                        f"{kind} pi0={pi0} {name} t={t}: mean FDR_hat - FDP "
                        f"{m_t:+.5f} < -2 SE ({se_t:.5f})"
                    )
                worst[name] = min(worst[name], float(z.min()))
                lines.append(
                    f"{kind}/{pi0}/{name} mean {mean.min():+.4f}..{mean.max():+.4f}"
                )

    negative = []
    below = []
    for m in (1000, 4000, 16000):
        spec = ScenarioSpec(kind="poisson_bin", m=m, pi0=0.5, reps=50, seed=0)
        infima = np.empty(spec.reps)
        for rep in range(spec.reps):
            study = generate_scenario(spec, rep)
            adjusted = estimators(study)["generalized"]
            infima[rep] = _fdr_less_fdp(study, adjusted, grid).min()
        negative.append(float(np.maximum(-infima, 0.0).mean()))
        below.append(float(np.mean(infima < 0.0)))
    elapsed = time.perf_counter() - start
    figures = ", ".join(
        f"m={m}: {n:.5f} (share below 0 {b:.2f})"
        for m, n, b in zip((1000, 4000, 16000), negative, below)
    )
    assert negative[2] <= negative[1] <= negative[0] and negative[2] < negative[0], (
        f"the mean negative part of the infimum does not fall with m: {figures}"
    )
    assert elapsed < budget, f"conservativeness check took {elapsed:.1f}s"
    print(
        "ACCEPTANCE 10 PASS: mean FDR_hat(t) - FDP(t) >= -2 SE at every t; "
        + "; ".join(lines)
        + f"; smallest z generalized {worst['generalized']:+.1f}, storey "
        f"{worst['storey']:+.1f}; mean negative part of the infimum over "
        f"t in [0.005, 0.5], poisson_bin pi0=0.5: {figures}; "
        f"elapsed {elapsed:.1f}s < {budget:.0f}s"
    )


def test_readme_states_the_number_of_acceptance_checks():
    """The README's *Testing* section and this module's docstring name as
    many end-to-end checks as there are ``test_acceptance_*`` functions."""
    numbers = "one two three four five six seven eight nine ten eleven twelve".split()
    checks = [name for name in globals() if name.startswith("test_acceptance_")]
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    (stated,) = re.findall(r"acceptance gate: (\w+) end-to-end\s+checks", readme)
    assert numbers.index(stated) + 1 == len(checks)
    assert __doc__.startswith(f"Acceptance gate: {numbers[len(checks) - 1]} end-to-end")
