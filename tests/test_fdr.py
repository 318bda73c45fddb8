"""Rejection process, FDR estimators, exact thresholding, BH."""

import math

import numpy as np
import pytest

from discretefdr import (
    FDR_KINDS,
    FdrEstimator,
    Pi0Estimate,
    Study,
    adaptive_bh,
    bh_procedure,
    build_rejection_process,
    evaluate_fdr,
    inverse_rejection_L,
    storey_pi0,
    threshold,
)

from conftest import random_pvalue_instance
from oracles import bh_sorted, counterexample_instance, threshold_loop


def _pi0(value, method="generalized", lam=0.5):
    return Pi0Estimate(
        method=method, raw=value, value=min(1.0, max(0.0, value)), lam=lam
    )


# ---------------------------------------------------------------------------
# rejection process
# ---------------------------------------------------------------------------


def test_process_counting_example():
    proc = build_rejection_process(np.array([0.2, 0.2, 0.5, 1.0]))
    assert proc.distinct.tolist() == [0.2, 0.5, 1.0]
    assert proc.mult.tolist() == [2, 1, 1]
    assert proc.cum.tolist() == [2, 3, 4]
    assert proc.rejections(0.3) == 2
    assert proc.rejections(1.0) == 4
    assert proc.rejections(0.1) == 0


def test_process_rejects_out_of_range_values():
    with pytest.raises(ValueError):
        build_rejection_process(np.array([0.0, 0.5]))
    with pytest.raises(ValueError):
        build_rejection_process(np.array([0.5, 1.5]))
    with pytest.raises(ValueError, match="p-values must lie in"):
        build_rejection_process(np.array([np.nan, 0.001, 0.5, 0.9]))


# ---------------------------------------------------------------------------
# scaled inverse rejection process
# ---------------------------------------------------------------------------


def test_inverse_rejection_piecewise_example():
    proc = build_rejection_process(np.array([0.1, 0.4, 1.0]))
    # below the smallest p-value: identity (R v 1 = 1)
    assert inverse_rejection_L(proc, 0.05) == 0.05
    # left limit at 0.4 vs value at 0.4: downward jump of 0.2
    left = 0.4 / 1.0
    at = inverse_rejection_L(proc, 0.4)
    assert at == 0.4 / 2.0
    jump = left - at
    assert jump == pytest.approx(0.4 * 1 / (2 * 1), abs=1e-15)
    # top piece: t / m
    assert inverse_rejection_L(proc, 1.0) == 1.0 / 3.0


def test_inverse_rejection_matches_naive_exactly():
    rng = np.random.default_rng(10)
    for _ in range(200):
        pv = random_pvalue_instance(rng, int(rng.integers(2, 80)))
        proc = build_rejection_process(pv)
        for t in rng.uniform(0.0, 1.0, size=5):
            naive = t / max(np.count_nonzero(pv <= t), 1)
            assert inverse_rejection_L(proc, float(t)) == naive


# ---------------------------------------------------------------------------
# FDR estimators
# ---------------------------------------------------------------------------


def test_evaluate_fdr_hand_example():
    pv = np.array([0.01, 0.02, 0.5, 1.0])
    proc = build_rejection_process(pv)
    est = FdrEstimator("generalized", _pi0(0.5), lam=0.5)
    assert evaluate_fdr(est, proc, 0.05) == pytest.approx(0.05, abs=1e-15)


def test_evaluate_fdr_zero_threshold_is_zero():
    proc = build_rejection_process(np.array([0.3, 0.9]))
    for kind in ("storey", "generalized"):
        est = FdrEstimator(kind, _pi0(0.8, method=kind), lam=0.5)
        assert evaluate_fdr(est, proc, 0.0) == 0.0


def test_storey_variant_is_one_beyond_lambda():
    proc = build_rejection_process(np.array([0.3, 0.9]))
    est = FdrEstimator("storey_variant", _pi0(0.8, "storey"), lam=0.5)
    assert evaluate_fdr(est, proc, 0.6) == 1.0
    # at lambda itself the plain (uncapped) formula still applies
    assert evaluate_fdr(est, proc, 0.5) == pytest.approx(
        (0.8 + 1.0 / ((1 - 0.5) * 2)) * 0.5 * 2 / 1, abs=1e-15
    )


def test_storey_variant_multiplier_adds_offset():
    pv = np.array([0.2, 0.6, 0.8, 1.0])
    s = Study(pv, [np.array([])] * 4)
    base = storey_pi0(s, 0.5)
    var = FdrEstimator("storey_variant", base, lam=0.5)
    plain = FdrEstimator("storey", base, lam=0.5)
    m = 4
    assert var.multiplier(m) == base.raw + 1.0 / ((1 - 0.5) * m)
    assert plain.multiplier(m) == base.raw


def test_storey_type_sigma_range_validated():
    est = _pi0(0.9, "storey")
    FdrEstimator("storey_type_sigma", est, lam=0.5, sigma=0.0).multiplier(10)
    limit = (1 - 0.5) * 10 * 0.9
    FdrEstimator("storey_type_sigma", est, lam=0.5, sigma=limit).multiplier(10)
    with pytest.raises(ValueError):
        FdrEstimator(
            "storey_type_sigma", est, lam=0.5, sigma=limit + 1e-9
        ).multiplier(10)


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        FdrEstimator("qvalue", _pi0(0.5), lam=0.5)


@pytest.mark.parametrize("pvalues", [[], 0.5])
def test_process_refuses_no_pvalues(pvalues):
    """An empty list and a bare number are both refused by name: the
    process refuses what is not one row, the block an empty row."""
    with pytest.raises(ValueError, match="^at least one p-value is required$"):
        build_rejection_process(pvalues)


@pytest.mark.parametrize("t", [1.5, -0.1])
def test_process_and_estimator_refuse_t_outside_unit_interval(t):
    proc = build_rejection_process(np.array([0.2, 0.7]))
    est = FdrEstimator("storey", _pi0(0.8, "storey"))
    with pytest.raises(ValueError, match=r"^t must lie in \[0, 1\]$"):
        inverse_rejection_L(proc, t)
    with pytest.raises(ValueError, match=r"^t must lie in \[0, 1\]$"):
        evaluate_fdr(est, proc, t)


@pytest.mark.parametrize(
    "kind, settings, missing",
    [
        ("storey_variant", {}, "lam"),
        ("storey_type_sigma", {"sigma": 0.0}, "lam"),
        ("storey_type_sigma", {"lam": 0.5}, "sigma"),
    ],
)
def test_estimator_refuses_a_missing_setting(kind, settings, missing):
    with pytest.raises(ValueError, match=f"^{kind} requires {missing}$"):
        FdrEstimator(kind, _pi0(0.8, "storey"), **settings)


def test_estimator_refuses_a_step_up_procedure():
    """``bh`` is a procedure but no FDR estimator."""
    with pytest.raises(ValueError) as caught:
        FdrEstimator("bh", _pi0(1.0), lam=0.5)
    assert str(caught.value) == (
        f"unknown FDR estimator kind 'bh'; choose from {FDR_KINDS}"
    )


def test_threshold_refuses_a_negative_sigma():
    proc = build_rejection_process(np.array([0.01, 0.2, 0.7]))
    est = FdrEstimator("storey_type_sigma", _pi0(0.8, "storey"), lam=0.5, sigma=-1.0)
    with pytest.raises(
        ValueError, match=r"^sigma must lie in \[0, \(1 - lambda\) \* m \* pi0_raw\]$"
    ):
        threshold(est, proc, 0.05)


def test_procedure_table_is_consistent():
    """Every procedure runs on a known estimate or on pi0 = 1, the FDR
    estimator kinds are exactly the rows that are not step-up
    procedures, and the simulation roster is the rows that need no
    sigma, in its documented order."""
    from discretefdr import sim
    from discretefdr.estimators import ESTIMATORS
    from discretefdr.fdr import PROCEDURES

    assert set(PROCEDURES) == {
        "generalized", "storey", "storey_variant", "storey_type_sigma",
        "bh", "adaptive_bh",
    }
    for on, _, settings, rule in PROCEDURES.values():
        assert on is None or on in ESTIMATORS
        assert set(settings) <= {"lam", "sigma"}
        assert rule in (None, "cap", "pin", "step")
    assert FDR_KINDS == tuple(
        name for name, row in PROCEDURES.items() if row[3] != "step"
    )
    accepted = []
    for name in PROCEDURES:
        try:
            FdrEstimator(name, _pi0(0.8, "storey"), lam=0.5, sigma=0.0)
        except ValueError:
            continue
        accepted.append(name)
    assert tuple(accepted) == FDR_KINDS
    assert sim.PROCEDURES == (
        "generalized", "storey", "storey_variant", "bh", "adaptive_bh",
    )


# ---------------------------------------------------------------------------
# threshold solver
# ---------------------------------------------------------------------------


def test_threshold_hand_example():
    pv = np.array([0.01, 0.02, 0.5, 1.0])
    proc = build_rejection_process(pv)
    est = FdrEstimator("generalized", _pi0(0.5), lam=0.5)
    res = threshold(est, proc, 0.05)
    assert res.t_alpha == pytest.approx(0.05, abs=1e-15)
    assert res.fdr_at_t == pytest.approx(0.05, abs=1e-15)
    assert res.rejections == 2
    assert res.rejected.tolist() == [0, 1]


def test_threshold_alpha_one_rejects_everything():
    pv = np.array([0.2, 0.7, 1.0])
    proc = build_rejection_process(pv)
    est = FdrEstimator("generalized", _pi0(0.9), lam=0.5)
    res = threshold(est, proc, 1.0)
    assert res.t_alpha == 1.0
    assert res.rejections == 3


def test_threshold_zero_pi0_rejects_everything():
    pv = np.array([0.2, 0.7, 1.0])
    proc = build_rejection_process(pv)
    est = FdrEstimator("generalized", _pi0(0.0), lam=0.5)
    res = threshold(est, proc, 0.05)
    assert res.t_alpha == 1.0
    assert res.fdr_at_t == 0.0
    assert res.rejections == 3


def test_threshold_never_exceeds_alpha():
    rng = np.random.default_rng(11)
    for _ in range(300):
        pv = random_pvalue_instance(rng, int(rng.integers(3, 60)))
        proc = build_rejection_process(pv)
        alpha = float(rng.uniform(0.01, 0.3))
        pi0 = float(rng.uniform(0.05, 1.2))
        for kind in ("generalized", "storey"):
            est = FdrEstimator(kind, _pi0(pi0, kind), lam=0.5)
            res = threshold(est, proc, alpha)
            assert res.fdr_at_t <= alpha + 1e-15


def test_threshold_matches_fine_grid_scan():
    rng = np.random.default_rng(12)
    grid = np.arange(0.0, 1.0 + 1e-6, 1e-6)
    for _ in range(5):
        pv = random_pvalue_instance(rng, 40)
        proc = build_rejection_process(pv)
        alpha = float(rng.uniform(0.02, 0.2))
        est = FdrEstimator("generalized", _pi0(float(rng.uniform(0.3, 0.9))), lam=0.5)
        res = threshold(est, proc, alpha)
        r = np.searchsorted(np.sort(pv), grid, side="right")
        f = est.multiplier(proc.m) * grid * proc.m / np.maximum(r, 1)
        ok = grid[np.minimum(f, 1.0) <= alpha]
        # the solver is exact, the grid is the approximation: no feasible
        # grid point may exceed the solver's threshold, and the largest
        # one must sit within a single grid step of it
        assert ok[-1] <= res.t_alpha + 1e-12
        assert res.t_alpha - ok[-1] <= 1e-6 + 1e-9
        assert res.fdr_at_t <= alpha + 1e-15


def test_threshold_variant_capped_at_lambda():
    pv = np.concatenate([np.full(30, 0.001), np.full(10, 0.9)])
    proc = build_rejection_process(pv)
    s = Study(pv, [np.array([])] * 40)
    est = FdrEstimator("storey_variant", storey_pi0(s, 0.5), lam=0.5)
    res = threshold(est, proc, 0.9)
    assert res.t_alpha <= 0.5


def _assert_same_result(got, want):
    """Bitwise equality of two threshold results (NaN equals NaN)."""
    for field in ("t_alpha", "fdr_at_t"):
        a, b = getattr(got, field), getattr(want, field)
        assert np.float64(a).tobytes() == np.float64(b).tobytes(), (field, a, b)
    assert got.rejections == want.rejections
    assert got.rejected.dtype == want.rejected.dtype
    assert np.array_equal(got.rejected, want.rejected)


def _threshold_instances(rng):
    """P-value sets covering ties, continuous values, p = 1 and m = 1."""
    for _ in range(60):
        m = int(rng.integers(2, 80))
        yield random_pvalue_instance(rng, m)
        yield rng.uniform(1e-9, 1.0, size=m)
        # heavy ties: a handful of distinct values, one of them 1
        levels = np.append(rng.uniform(1e-4, 0.2, size=3), [0.5, 1.0])
        yield rng.choice(levels, size=m)
    yield np.array([0.03])
    yield np.array([1.0])
    yield np.ones(7)
    yield np.full(9, 0.004)


def test_threshold_matches_interval_loop_bitwise():
    """The vectorised feasibility test returns exactly what scanning the
    rejection-count intervals one at a time returns."""
    rng = np.random.default_rng(15)
    alphas = (0.0, 1e-4, 0.01, 0.05, 0.2, 1.0)
    cases = 0
    for pv in _threshold_instances(rng):
        proc = build_rejection_process(pv)
        lo, hi = float(pv.min()), float(pv.max())
        # variant cutoffs below the smallest, inside, and above the
        # largest p-value (the last only when the largest is below 1)
        lams = [lo / 2, 0.5] + ([(hi + 1.0) / 2] if hi < 1.0 else [])
        raws = (0.0, -0.1, float(rng.uniform(0.05, 1.2)))
        for alpha in alphas + (float(rng.uniform()),):
            for raw in raws:
                for lam in lams:
                    pi0 = _pi0(raw, lam=lam)
                    span = (1.0 - lam) * proc.m
                    sigma = max(0.0, float(rng.uniform()) * span * raw)
                    for est in (
                        FdrEstimator("storey", pi0, lam=lam),
                        FdrEstimator("storey_variant", pi0, lam=lam),
                        FdrEstimator("generalized", pi0, lam=lam),
                        FdrEstimator(
                            "storey_type_sigma", pi0, lam=lam, sigma=sigma
                        ),
                    ):
                        if est.kind == "storey_type_sigma" and raw < 0.0:
                            continue  # no valid sigma
                        _assert_same_result(
                            threshold(est, proc, alpha),
                            threshold_loop(est, proc, alpha),
                        )
                        cases += 1
    assert cases > 30000


def test_threshold_falls_back_when_a_nudge_fails():
    """A candidate that rounds onto its interval's left end, where the
    estimator rounds a hair above alpha, cannot be nudged down inside the
    interval; the solver then takes the next feasible interval."""
    mult, alpha = 0.5381497769581267, 0.1
    pv = np.array([0.001, 0.001, 0.024237635727728784] + [1.0] * 20)
    proc = build_rejection_process(pv)
    est = FdrEstimator("storey", _pi0(mult, "storey"), lam=0.5)
    # the count-3 interval's candidate is its left end and is infeasible
    assert alpha * 3 / (proc.m * mult) == pv[2]
    assert evaluate_fdr(est, proc, float(pv[2])) > alpha
    res = threshold(est, proc, alpha)
    _assert_same_result(res, threshold_loop(est, proc, alpha))
    assert res.rejections == 2
    assert res.fdr_at_t <= alpha


# ---------------------------------------------------------------------------
# BH and adaptive BH
# ---------------------------------------------------------------------------


def test_bh_hand_example():
    pv = np.array([0.01, 0.02, 0.5, 1.0])
    res = bh_procedure(pv, 0.05)
    assert res.rejections == 2
    assert res.t_alpha == 0.02
    assert math.isnan(res.fdr_at_t)


def test_bh_no_rejections():
    res = bh_procedure(np.array([0.9, 0.95, 1.0]), 0.05)
    assert res.rejections == 0
    assert res.t_alpha == 0.0


def test_bh_alpha_one_rejects_everything():
    pv = np.array([0.3, 0.8, 1.0])
    assert bh_procedure(pv, 1.0).rejections == 3


def test_bh_monotone_in_alpha():
    rng = np.random.default_rng(13)
    pv = random_pvalue_instance(rng, 50)
    prev: set[int] = set()
    for alpha in (0.01, 0.05, 0.1, 0.2, 0.5):
        cur = set(bh_procedure(pv, alpha).rejected.tolist())
        assert prev <= cur
        prev = cur


def test_adaptive_bh_reductions():
    pv = np.array([0.01, 0.02, 0.5, 1.0])
    plain = bh_procedure(pv, 0.05)
    unit = adaptive_bh(pv, 0.05, _pi0(1.0, "benjamini", lam=None))
    assert unit.t_alpha == plain.t_alpha
    assert unit.rejections == plain.rejections

    half = adaptive_bh(pv, 0.05, _pi0(0.5, "benjamini", lam=None))
    at_double = bh_procedure(pv, 0.1)
    assert half.rejections == at_double.rejections

    tiny = adaptive_bh(pv, 0.05, _pi0(0.01, "benjamini", lam=None))
    assert tiny.rejections == bh_procedure(pv, 1.0).rejections


def test_bh_rejects_nan_pvalues():
    with pytest.raises(ValueError, match="p-values must lie in"):
        bh_procedure(np.array([np.nan, 0.001, 0.5, 0.9]), 0.05)


def test_step_up_on_process_matches_sorted_form_bitwise():
    """Reading the cutoff off the distinct p-values and their running
    totals gives exactly the rank-by-rank step-up result, whether the
    procedures get p-values or a prebuilt process."""
    rng = np.random.default_rng(16)
    alphas = (0.0, 1e-4, 0.01, 0.05, 0.2, 1.0)
    for pv in _threshold_instances(rng):
        proc = build_rejection_process(pv)
        for alpha in alphas + (float(rng.uniform()),):
            want = bh_sorted(pv, alpha)
            _assert_same_result(bh_procedure(pv, alpha), want)
            _assert_same_result(bh_procedure(proc, alpha), want)
            pi0 = _pi0(float(rng.uniform(0.05, 1.0)), "benjamini", lam=None)
            want = bh_sorted(pv, min(1.0, alpha / pi0.value))
            _assert_same_result(adaptive_bh(pv, alpha, pi0), want)
            _assert_same_result(adaptive_bh(proc, alpha, pi0), want)


@pytest.mark.parametrize("alpha", [1.5, -0.1, math.nan])
def test_adaptive_bh_refuses_alpha_outside_unit_interval(alpha):
    """Like every other procedure, the adaptive one refuses a level
    outside [0, 1], and says so before it looks at the estimate."""
    pv = np.array([0.01, 0.5, 0.9])
    for pi0 in (Pi0Estimate("benjamini", 0.8, 0.8), _pi0(0.0, "benjamini", None)):
        with pytest.raises(ValueError, match=r"alpha must lie in \[0, 1\]"):
            adaptive_bh(pv, alpha, pi0)


def test_adaptive_bh_rejects_zero_pi0():
    with pytest.raises(ValueError):
        adaptive_bh(np.array([0.5]), 0.05, _pi0(0.0, "benjamini", lam=None))


# ---------------------------------------------------------------------------
# the step-function counterexample
# ---------------------------------------------------------------------------


def test_counterexample_structure_and_jump():
    pv = counterexample_instance()
    proc = build_rejection_process(pv)
    assert proc.distinct.tolist() == [0.1, 0.4, 0.7, 1.0]
    assert proc.mult.tolist() == [1, 3, 1, 1]
    assert proc.cum[0] < proc.mult[1], "heavy tie must outweigh earlier mass"

    # analytic left limit vs value at the heavy p-value
    left = 0.4 / proc.cum[0]
    at = inverse_rejection_L(proc, 0.4)
    r = proc.rejections(0.4)
    formula = 0.4 * proc.mult[1] / (r * (r - proc.mult[1]))
    assert left - at == formula
    assert left - at == pytest.approx(0.3, abs=1e-15)

    # every discontinuity is a downward jump
    for j in range(len(proc.distinct)):
        p = float(proc.distinct[j])
        before = p / (1 if j == 0 else proc.cum[j - 1])
        after = inverse_rejection_L(proc, p)
        assert before >= after


def test_no_upward_jumps_on_random_instances():
    rng = np.random.default_rng(14)
    for _ in range(100):
        pv = random_pvalue_instance(rng, int(rng.integers(4, 50)))
        proc = build_rejection_process(pv)
        for j in range(len(proc.distinct)):
            p = float(proc.distinct[j])
            before = p / (1 if j == 0 else proc.cum[j - 1])
            after = inverse_rejection_L(proc, p)
            assert before >= after
