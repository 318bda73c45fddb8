"""True-null-proportion estimators: frozen examples and invariants."""

import numpy as np
import pytest

from discretefdr import (
    Study,
    benjamini_pi0,
    compute_pi0,
    generalized_pi0,
    pounds_hat_pi0,
    pounds_tilde_pi0,
    storey_pi0,
)
from discretefdr import _kernels as K
from discretefdr.estimators import _support_means

import oracles
from conftest import assert_same_study, random_study
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
    # the named dispatch applies the same checks
    three = _study([0.5, 0.5, 0.5], [0.5, 1.0])
    for eps in (np.array([0.5, 0.5]), np.array([0.5] * 4)):
        with pytest.raises(ValueError, match="per-hypothesis epsilon"):
            compute_pi0(three, "generalized", 0.5, eps)


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


def test_clip_matches_nested_where_bitwise():
    """``_clip01`` gives the bits of the nested ``np.where`` form, sign of
    zero, NaN and infinities included, on arrays and on a float."""
    from discretefdr.estimators import _clip01

    edges = np.array([
        -0.0, 0.0, -5e-324, 5e-324, 0.5, 1.0, np.nextafter(1.0, 2.0),
        np.nan, np.inf, -np.inf, -3.0, 7.0,
    ])
    rng = np.random.default_rng(10)
    for x in (edges, rng.uniform(-0.5, 1.5, (100, 100))):
        got, want = _clip01(x), oracles.clip01_where(x)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    for x in edges.tolist():
        assert np.float64(_clip01(x)).tobytes() == np.float64(
            oracles.clip01_where(x)
        ).tobytes(), x


def test_pi0_estimate_json_shape():
    s = _study([0.2, 0.6, 1.0, 1.0], [0.2, 0.6, 1.0])
    d = generalized_pi0(s, 0.5, 1.0).to_json_dict()
    assert d["method"] == "generalized"
    assert set(d) >= {"method", "raw", "value", "lambda", "epsilon"}
    # a per-hypothesis epsilon is summarised by its min, max and mean
    eps = np.array([0.25, 1.0, 0.5, 0.75])
    d = generalized_pi0(s, 0.5, eps).to_json_dict()
    assert d["epsilon"] == {"min": 0.25, "max": 1.0, "mean": 0.625}


def test_study_validation():
    with pytest.raises(ValueError):
        Study(np.array([]), [])
    with pytest.raises(ValueError):
        Study(np.array([0.5]), [])
    for truth in ([True], [True, False, True]):
        with pytest.raises(ValueError, match="truth labels and p-values must align"):
            Study([0.5, 1.0], [[0.5, 1.0]] * 2, truth)
        with pytest.raises(ValueError, match="truth labels and p-values must align"):
            Study.from_distinct([0.5, 1.0], [0.5, 1.0], [0, 0], [2, 2], truth)


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


@pytest.mark.parametrize("kind", ["empty", "nonempty", "mixed", "kernel"])
def test_grid_floors_match_per_lambda_floors_bitwise(kind):
    """An ascending array of lambdas gives one row of floors per lambda,
    each bitwise the floors of that lambda alone and the per-hypothesis
    loop's: with every support empty (no support point at all), some or
    none empty, and lambdas at 0, on support points, just below them and
    repeated."""
    rng = np.random.default_rng(44)
    if kind == "mixed":
        study = _mixed_study(rng)
    elif kind == "kernel":
        s1, s2 = rng.negative_binomial(2, 0.2, 300), rng.negative_binomial(2, 0.1, 300)
        study = Study.from_distinct(*K.batch_negbinom(s1, s2, 2.0, "doubling"))
    else:
        study = random_study(rng, 200, empty_supports=kind == "empty")
    flat = study.support_flat
    assert (flat.shape[0] == 0) == (kind == "empty")
    points = rng.choice(flat, 8) if flat.shape[0] else np.empty(0)
    points = points[points < 1.0]
    fixed = [0.0, 0.0, 0.05, 0.5, 0.5, np.nextafter(1.0, 0.0)]
    lams = np.sort(np.concatenate([fixed, points, np.nextafter(points, 0.0)]))
    grid = study.support_floor(lams)
    assert grid.shape == (lams.shape[0], study.m) and grid.dtype == np.float64
    for row, lam in zip(grid, lams.tolist()):
        assert row.tobytes() == study.support_floor(lam).tobytes()
        assert np.array_equal(row, oracles.support_floor_loop(study.supports, lam))
    one = study.support_floor(lams[3:4])
    assert one.shape == (1, study.m) and one[0].tobytes() == grid[3].tobytes()
    assert study.support_floor(lams[:0]).shape == (0, study.m)


@pytest.mark.parametrize("lams", [[0.5, 0.2], [[0.2, 0.5]]])
def test_grid_floors_refuse_lambdas_out_of_order(lams):
    study = random_study(np.random.default_rng(45), 10)
    with pytest.raises(ValueError, match="ascending"):
        study.support_floor(np.array(lams))


def test_study_stores_each_distinct_support_once():
    """300 hypotheses over 16 kernel-style slices (12 nonempty, 4 empty)
    store 16 supports, one per slice."""
    rng = np.random.default_rng(42)
    pool = random_study(rng, 12).supports + random_study(
        rng, 4, empty_supports=True
    ).supports
    length = np.array([s.shape[0] for s in pool])
    start = np.cumsum(length) - length
    start[12:] = np.arange(4)  # the empty slices at four distinct offsets
    pick = rng.integers(0, 16, 300)
    layout = (
        rng.uniform(0.0, 1.0, 300), np.concatenate(pool), start[pick], length[pick]
    )
    study = Study.from_distinct(*layout)
    # the empty slices share their starts with nonempty ones
    assert set(start[12:]) & set(start[:12])
    assert_same_study(study, oracles.study_layout(*layout))
    assert len(study.distinct_supports()) == 16 < study.m
    for got, k in zip(study.supports, pick.tolist()):
        assert np.array_equal(got, pool[k])
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
    """The kernels' layout gives every hypothesis the same support as
    its own slice, with each kernel slice stored once."""
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
    # one stored support per kernel slice
    assert study.support_len.shape[0] == np.unique(start).shape[0]
    assert np.all(np.diff(study.support_len) >= 0)
    assert pounds_hat_pi0(study).raw == pounds_hat_pi0(reference).raw


def test_from_distinct_reads_any_float_layout_as_float64():
    """A list or a float32 flat array is read as float64, as ``Study``
    reads its supports; each slice is stored as given, even where two
    slices hold equal contents."""
    flat = [0.25, 1.0, 0.5, 1.0, 0.25, 1.0]
    args = ([0.25, 0.5, 1.0], [0, 2, 4], [2, 2, 2])
    for given in (flat, np.array(flat, dtype=np.float32)):
        study = Study.from_distinct(args[0], given, *args[1:])
        assert study.support_flat.dtype == np.float64
        assert study.support_index.tolist() == [0, 1, 2]
        assert np.array_equal(study.supports[1], [0.5, 1.0])
        assert pounds_hat_pi0(study).raw == pounds_hat_pi0(
            Study(args[0], [[0.25, 1.0], [0.5, 1.0], [0.25, 1.0]])
        ).raw


def _kernel_layout(kind, convention, rng, m=500):
    """A batch kernel's layout of ``m`` features, many sharing a key."""
    from discretefdr import _kernels

    if kind == "bin":
        return _kernels.batch_binomial(
            rng.integers(0, 30, m), rng.integers(0, 30, m), convention
        )
    if kind == "fet":
        r = rng.integers(1, 15, (2, m))
        x1, x2 = rng.binomial(r, 0.4)
        return _kernels.batch_fisher(x1, r[0], x2, r[1], convention)
    s1, s2 = rng.integers(0, 40, (2, m))
    return _kernels.batch_negbinom(s1, s2, 3 * 0.689, convention)


@pytest.mark.parametrize("convention", ["minlik", "doubling"])
@pytest.mark.parametrize("kind", ["bin", "fet", "ent"])
def test_study_stores_the_layout_oracle_arrays(kind, convention):
    """``Study.from_distinct`` stores every array bit for bit as
    ``np.unique`` grouping does, on the kernels' layout (features share
    slices), on a layout of one slice per feature and on either with
    truth labels."""
    rng = np.random.default_rng(len(kind) * len(convention) + ord(kind[0]))
    out = _kernel_layout(kind, convention, rng)
    truth = rng.random(out[0].shape[0]) < 0.5
    for layout in (out, oracles.per_feature_layout(*out)):
        for labels in (None, truth):
            study = Study.from_distinct(*layout, truth=labels)
            assert_same_study(study, oracles.study_layout(*layout, labels))


def test_study_of_supports_stores_the_layout_oracle_arrays():
    """``Study(pvalues, supports)`` with empty supports, alone or among
    nonempty ones, at every place in the list, stores the oracle's
    arrays."""
    rng = np.random.default_rng(46)
    for share in (0.0, 0.3, 1.0):
        supports = [
            np.array([]) if rng.random() < share else s
            for s in random_study(rng, 80).supports
        ]
        pvalues = rng.uniform(0.0, 1.0, 80)
        length = np.array([s.shape[0] for s in supports])
        flat = np.concatenate(supports)
        start = np.cumsum(length) - length
        expected = oracles.study_layout(pvalues, flat, start, length)
        assert_same_study(Study(pvalues, supports), expected)


def test_slices_at_one_start_of_two_lengths_are_refused():
    """Two nonempty slices that start at one point must have one length,
    as valid supports (increasing, ending at 1) do; an empty slice may
    share a start with either."""
    flat = [0.25, 0.5, 1.0]
    Study.from_distinct([0.5, 1.0, 0.3], flat, [0, 0, 0], [3, 3, 0])
    with pytest.raises(ValueError, match="differ in length"):
        Study.from_distinct([0.5, 0.25], flat, [0, 0], [3, 2])
    with pytest.raises(ValueError, match="differ in length"):
        Study.from_distinct([0.5, 1.0, 0.25], flat, [1, 0, 0], [2, 3, 1])


@pytest.mark.parametrize(
    "start, length",
    [([-1], [2]), ([2], [2]), ([4], [0]), ([0], [-1])],
    ids=["before", "past-the-end", "empty-past-the-end", "negative-length"],
)
def test_slices_outside_the_flat_array_are_refused(start, length):
    with pytest.raises(ValueError, match="outside support_flat"):
        Study.from_distinct([0.5], [0.5, 1.0, 0.25], start, length)
