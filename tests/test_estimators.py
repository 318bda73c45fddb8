"""True-null-proportion estimators: frozen examples and invariants."""

import numpy as np
import pytest

from discretefdr import (
    Study,
    benjamini_pi0,
    generalized_pi0,
    pounds_hat_pi0,
    pounds_tilde_pi0,
    storey_pi0,
)
from discretefdr.estimators import _support_means

from conftest import random_study
from oracles import PValueProfile, null_expected_pvalue, profile, support_cdf


def _study(pvalues, support):
    pv = np.asarray(pvalues, dtype=np.float64)
    return Study(pv, [np.asarray(support, dtype=np.float64)] * len(pv))


# ---------------------------------------------------------------------------
# support_cdf
# ---------------------------------------------------------------------------


def test_support_cdf_examples():
    """The scalar reference and the study's support floor agree."""
    for p, support, expected in ((0.3, [0.3, 1.0], 0.3), (0.6, [0.6, 1.0], 0.0),
                                 (0.5, [], 0.5)):
        assert support_cdf(PValueProfile(p, np.array(support)), 0.5) == expected
        assert _study([p], support).support_floor(0.5).tolist() == [expected]


def test_support_cdf_at_support_point_is_inclusive():
    prof = PValueProfile(0.3, np.array([0.3, 0.7, 1.0]))
    study = _study([0.3], prof.support)
    for lam in (0.3, 0.7):
        assert support_cdf(prof, lam) == lam
        assert study.support_floor(lam).tolist() == [lam]


# ---------------------------------------------------------------------------
# storey
# ---------------------------------------------------------------------------


def test_storey_examples():
    s = _study([0.2, 0.6, 0.8, 1.0], [0.2, 0.6, 0.8, 1.0])
    est = storey_pi0(s, 0.5)
    assert est.raw == 1.5
    assert est.value == 1.0

    s2 = _study([0.6, 1.0], [0.6, 1.0])
    est2 = storey_pi0(s2, 0.5)
    assert est2.raw == 2.0
    assert est2.value == 1.0


def test_storey_lambda_zero_counts_everything_positive():
    s = _study([0.3, 0.9, 1.0], [0.3, 0.9, 1.0])
    assert storey_pi0(s, 0.0).raw == 1.0


def test_storey_validates_lambda():
    s = _study([0.5], [0.5, 1.0])
    with pytest.raises(ValueError):
        storey_pi0(s, 1.0)
    with pytest.raises(ValueError):
        storey_pi0(s, -0.1)


# ---------------------------------------------------------------------------
# generalized
# ---------------------------------------------------------------------------


def test_generalized_frozen_example():
    s = _study([0.2, 0.6, 1.0, 1.0], [0.2, 0.6, 1.0])
    est = generalized_pi0(s, 0.5, 1.0)
    assert est.raw == pytest.approx(0.9, abs=1e-15)


def test_generalized_eps_zero_is_storey_bitwise():
    rng = np.random.default_rng(5)
    for _ in range(50):
        s = random_study(rng, int(rng.integers(2, 60)))
        lam = float(rng.uniform(0.0, 0.95))
        gen = generalized_pi0(s, lam, 0.0)
        sto = storey_pi0(s, lam)
        assert gen.raw == sto.raw
        assert gen.value == sto.value


def test_generalized_empty_supports_equal_storey_for_any_eps():
    rng = np.random.default_rng(6)
    s = random_study(rng, 40, empty_supports=True)
    sto = storey_pi0(s, 0.4)
    for eps in (0.0, 0.3, 1.0):
        gen = generalized_pi0(s, 0.4, eps)
        assert gen.raw == sto.raw


def test_generalized_eps_vector_and_monotonicity():
    rng = np.random.default_rng(7)
    s = random_study(rng, 30)
    lam = 0.5
    eps_lo = np.full(s.m, 0.2)
    eps_hi = np.full(s.m, 0.9)
    assert (
        generalized_pi0(s, lam, eps_hi).raw
        <= generalized_pi0(s, lam, eps_lo).raw
    )


def test_generalized_dominated_by_storey_clipped():
    rng = np.random.default_rng(8)
    for _ in range(40):
        s = random_study(rng, int(rng.integers(2, 50)))
        lam = float(rng.uniform(0.0, 0.9))
        eps = rng.uniform(0.0, 1.0, size=s.m)
        assert (
            generalized_pi0(s, lam, eps).value <= storey_pi0(s, lam).value
        )


def test_generalized_validates_epsilon():
    s = _study([0.5], [0.5, 1.0])
    with pytest.raises(ValueError):
        generalized_pi0(s, 0.5, 1.5)
    with pytest.raises(ValueError):
        generalized_pi0(s, 0.5, np.array([0.5, 0.5]))  # wrong length


# ---------------------------------------------------------------------------
# pounds (doubled mean and support-calibrated)
# ---------------------------------------------------------------------------


def test_pounds_tilde_examples():
    assert pounds_tilde_pi0(_study([0.5, 0.5], [0.5, 1.0])).value == 1.0
    assert pounds_tilde_pi0(_study([0.1, 0.3], [0.1, 0.3, 1.0])).value == (
        pytest.approx(0.4, abs=1e-15)
    )
    est = pounds_tilde_pi0(_study([1.0], [1.0]))
    assert est.raw == 2.0
    assert est.value == 1.0


def test_pounds_hat_frozen_example():
    s = _study([0.5], [0.5, 1.0])
    assert null_expected_pvalue(profile(s, 0)) == pytest.approx(0.75)
    est = pounds_hat_pi0(s)
    assert est.value == pytest.approx(2 / 3, abs=1e-12)


def test_pounds_hat_uniform_nulls():
    pv = np.full(5, 0.5)
    s = Study(pv, [np.array([])] * 5)
    assert pounds_hat_pi0(s).value == 1.0


def test_pounds_hat_at_expected_value_is_one():
    sup = np.array([0.5, 1.0])
    expected = 0.75
    s = Study(np.array([expected]), [sup])
    # p equals its null expectation -> ratio 1, clipped to 1
    assert pounds_hat_pi0(s).value == 1.0


# ---------------------------------------------------------------------------
# benjamini
# ---------------------------------------------------------------------------


def test_benjamini_frozen_examples():
    pv = np.array([0.01, 0.05, 0.1, 0.15, 0.2, 0.4, 0.6, 0.8, 0.9, 1.0])
    s = Study(pv, [np.array([])] * 10)
    est = benjamini_pi0(s)
    assert est.raw == pytest.approx((10 - 5 + 1) / (10 * 0.8), abs=1e-12)

    s2 = _study([0.1, 0.4, 0.5, 1.0], [0.1, 0.4, 0.5, 1.0])
    est2 = benjamini_pi0(s2)
    assert est2.raw == pytest.approx(1.25, abs=1e-12)
    assert est2.value == 1.0


def test_benjamini_median_at_one_is_guarded():
    s = _study([1.0, 1.0], [1.0])
    est = benjamini_pi0(s)
    assert est.value == 1.0
    assert np.isinf(est.raw)


def test_benjamini_needs_two():
    with pytest.raises(ValueError):
        benjamini_pi0(_study([0.5], [0.5, 1.0]))


# ---------------------------------------------------------------------------
# structural invariants
# ---------------------------------------------------------------------------


def test_all_values_clipped_to_unit_interval():
    rng = np.random.default_rng(9)
    for _ in range(25):
        s = random_study(rng, int(rng.integers(2, 40)))
        lam = float(rng.uniform(0.0, 0.9))
        for est in (
            storey_pi0(s, lam),
            generalized_pi0(s, lam, 1.0),
            pounds_tilde_pi0(s),
            pounds_hat_pi0(s),
            benjamini_pi0(s),
        ):
            assert 0.0 <= est.value <= 1.0
            assert est.value == max(0.0, min(1.0, est.raw))


def test_pi0_estimate_json_shape():
    s = _study([0.2, 0.6, 1.0, 1.0], [0.2, 0.6, 1.0])
    d = generalized_pi0(s, 0.5, 1.0).to_json_dict()
    assert d["method"] == "generalized"
    assert set(d) >= {"method", "raw", "value", "lambda", "epsilon"}


def test_study_validation():
    with pytest.raises(ValueError):
        Study(np.array([]), [])
    with pytest.raises(ValueError):
        Study(np.array([0.5]), [])


# ---------------------------------------------------------------------------
# per-distinct-support statistics
# ---------------------------------------------------------------------------


def _mixed_study(rng):
    """Empty and nonempty supports, each shared by many hypotheses."""
    pool_discrete = random_study(rng, 12)
    pool_uniform = random_study(rng, 4, empty_supports=True)
    pvalues = np.concatenate([pool_discrete.pvalues, pool_uniform.pvalues])
    supports = pool_discrete.supports + pool_uniform.supports
    pick = rng.integers(0, len(supports), 300)
    return Study(pvalues[pick], [supports[k] for k in pick])


@pytest.mark.parametrize("kind", ["empty", "nonempty", "mixed"])
def test_support_statistics_match_per_hypothesis_loop(kind):
    import oracles

    rng = np.random.default_rng(41)
    if kind == "mixed":
        study = _mixed_study(rng)
    else:
        study = random_study(rng, 200, empty_supports=kind == "empty")
    supports = study.supports
    lams = [0.0, 0.05, 0.3, 0.5, 0.9]
    if kind != "empty":
        lams.append(float(np.concatenate(supports)[0]))  # a support point
    for lam in lams:
        expected = oracles.support_floor_loop(supports, lam)
        assert np.array_equal(study.support_floor(lam), expected)
        for eps in (0.0, 0.5, 1.0):
            assert generalized_pi0(study, lam, eps).raw == (
                oracles.generalized_raw_loop(study.pvalues, supports, lam, eps)
            )
    assert pounds_hat_pi0(study).raw == oracles.pounds_hat_raw_loop(
        study.pvalues, supports
    )


def test_study_stores_each_distinct_support_once():
    study = _mixed_study(np.random.default_rng(42))
    assert len(study.distinct_supports()) <= 16 < study.m
    assert study.support_flat.shape[0] == int(study.support_len.sum())
    with pytest.raises(ValueError):
        study.support_flat[0] = 0.5


def test_support_statistics_memory_scales_with_distinct_supports():
    """One long support among many short ones must not cost m times its
    length: the estimators work per distinct support."""
    import tracemalloc

    from discretefdr import _kernels

    rng = np.random.default_rng(43)
    s1 = rng.integers(0, 30, 5000)
    s2 = rng.integers(0, 30, 5000)
    s1[0] = s2[0] = 20000
    study = Study.from_distinct(*_kernels.batch_negbinom(s1, s2, 3 * 0.689))
    assert int(study.support_len.max()) > 10000
    tracemalloc.start()
    try:
        study.support_floor(0.5)
        pounds_hat_pi0(study)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def _long_support_study(rng):
    """Supports of many lengths, from 1 to 5000 points, each length shared
    by several distinct supports and each support by a few hypotheses."""
    supports = []
    for n in (1, 2, 7, 8, 9, 127, 128, 129, 1100, 5000):
        for _ in range(4):
            cuts = np.unique(rng.uniform(0.0, 1.0, size=n - 1))
            supports.append(np.append(cuts, 1.0))
    supports.append(np.array([]))
    pick = rng.integers(0, len(supports), 200)
    chosen = [supports[k] for k in pick]
    pvalues = np.array([rng.choice(s) if s.shape[0] else 0.5 for s in chosen])
    return pvalues, chosen


def test_support_means_blockwise_match_per_support_sum():
    """Row sums over blocks of equal-length supports equal each support's
    own pairwise sum, for supports far longer than a pairwise-sum block."""
    import oracles

    pvalues, supports = _long_support_study(np.random.default_rng(44))
    study = Study(pvalues, supports)
    assert pounds_hat_pi0(study).raw == oracles.pounds_hat_raw_loop(pvalues, supports)
    for s in supports:
        one = _support_means(s, np.array([0]), np.array([s.shape[0]]))
        assert one[0] == null_expected_pvalue(PValueProfile(0.5, s))


def test_from_distinct_matches_per_hypothesis_supports():
    """The kernels' distinct layout builds the same study as the
    per-hypothesis supports, with each distinct support stored once."""
    from discretefdr import _kernels

    rng = np.random.default_rng(45)
    r = rng.integers(1, 12, 600)
    x1 = rng.binomial(r, 0.4)
    x2 = rng.binomial(r, 0.3)
    out = _kernels.batch_fisher(x1, r, x2, r)
    study = Study.from_distinct(*out)
    pvalues, flat, start, length = out
    per_feature = [flat[a : a + n] for a, n in zip(start, length)]
    reference = Study(pvalues, per_feature)
    assert np.array_equal(study.pvalues, reference.pvalues)
    for a, b in zip(study.supports, per_feature):
        assert np.array_equal(a, b)
    # the same distinct supports, stored once each
    assert study.support_len.shape == reference.support_len.shape
    assert np.array_equal(np.sort(study.support_flat), np.sort(reference.support_flat))
    # margins (r, r, s) and (r, r, 2r - s) share a support
    assert study.support_len.shape[0] < np.unique(start).shape[0]
    assert np.all(np.diff(study.support_len) >= 0)
    assert pounds_hat_pi0(study).raw == pounds_hat_pi0(reference).raw


def test_from_distinct_reads_any_float_layout_as_float64():
    """A list or a float32 flat array is read as float64, as ``Study``
    reads its supports; slices with equal contents are still merged."""
    flat = [0.25, 1.0, 0.5, 1.0, 0.25, 1.0]
    args = ([0.25, 0.5, 1.0], [0, 2, 4], [2, 2, 2])
    for given in (flat, np.array(flat, dtype=np.float32)):
        study = Study.from_distinct(args[0], given, *args[1:])
        assert study.support_flat.dtype == np.float64
        assert study.support_index.tolist() == [0, 1, 0]
        assert np.array_equal(study.supports[1], [0.5, 1.0])
        assert pounds_hat_pi0(study).raw == pounds_hat_pi0(
            Study(args[0], [[0.25, 1.0], [0.5, 1.0], [0.25, 1.0]])
        ).raw
