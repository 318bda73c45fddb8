"""Kernel-level checks: oracle agreement, determinism, structure."""

import numpy as np
import pytest

from discretefdr import _kernels as K

import oracles


def _random_batches(seed=0, n=400, hi=25):
    rng = np.random.default_rng(seed)
    x1 = rng.integers(0, hi, n)
    x2 = rng.integers(0, hi, n)
    r1 = rng.integers(1, hi, n)
    r2 = rng.integers(1, hi, n)
    a1 = np.array([rng.integers(0, r + 1) for r in r1])
    a2 = np.array([rng.integers(0, r + 1) for r in r2])
    return x1, x2, a1, r1, a2, r2


def test_outcome_pvalues_reference_matches_oracle():
    from scipy.special import gammaln

    for n in (0, 1, 2, 5, 11, 24):
        expected = oracles.binomial_outcome_pvalues(n)
        a = np.arange(n + 1)
        logw = gammaln(n + 1) - gammaln(a + 1) - gammaln(n - a + 1)
        got = K.outcome_pvalues(logw)
        assert np.allclose(got, expected, rtol=1e-12, atol=0)


def test_batch_layout_roundtrip():
    x1, x2, *_ = _random_batches()
    pv, flat, start, length = K.batch_binomial(x1, x2)
    assert pv.shape == (len(x1),)
    assert start.shape == length.shape == (len(x1),)
    assert flat.shape[0] == int(length.sum())
    for i in range(len(x1)):
        sup = flat[start[i] : start[i] + length[i]]
        assert np.all(np.diff(sup) > 0), "support must be strictly increasing"
        assert sup[-1] == 1.0
        assert np.any(sup == pv[i]), "pvalue must be a support element"


def test_modal_pvalue_is_exactly_one():
    x1, x2, a1, r1, a2, r2 = _random_batches(seed=1)
    for pv, flat, start, length in (
        K.batch_binomial(x1, x2),
        K.batch_fisher(a1, r1, a2, r2),
        K.batch_negbinom(x1, x2, 2.5),
    ):
        for i in range(len(pv)):
            sup = flat[start[i] : start[i] + length[i]]
            assert sup[-1] == 1.0


def test_within_path_determinism_is_bitwise():
    x1, x2, *_ = _random_batches(seed=2)
    first = K.batch_binomial(x1, x2)
    second = K.batch_binomial(x1, x2)
    for a, b in zip(first, second):
        assert np.array_equal(a, b)


def test_env_flag_reports_path(monkeypatch):
    assert isinstance(K.using_numba(), bool)


def _heavy_reuse(rng):
    # 2000 features on 21 totals
    x1 = rng.integers(0, 11, 2000)
    x2 = rng.integers(0, 11, 2000)
    r1 = np.full(2000, 10)
    r2 = np.full(2000, 10)
    return x1, x2, x1, r1, x2, r2


def _all_unique_keys(rng):
    # margins (r1, r2, s) differ on every feature; totals too
    n = 300
    r1 = np.arange(1, n + 1)
    r2 = rng.integers(1, 40, n)
    a1 = np.array([rng.integers(0, r + 1) for r in r1])
    a2 = np.array([rng.integers(0, r + 1) for r in r2])
    x1 = np.array([rng.integers(0, 3 * i + 1) for i in range(n)])
    return x1, 3 * np.arange(n) - x1, a1, r1, a2, r2


def _single_feature(rng):
    one = lambda v: np.array([v])  # noqa: E731
    return one(7), one(3), one(2), one(9), one(5), one(6)


def _degenerate(rng):
    # zero totals; fet margins with s = 0, s = r1 + r2, r1 = 0 and r2 = 0
    x1 = np.array([0, 0, 3, 0, 5])
    x2 = np.array([0, 4, 0, 0, 0])
    a1 = np.array([0, 3, 0, 0, 2])
    r1 = np.array([4, 3, 0, 0, 2])
    a2 = np.array([0, 5, 4, 0, 0])
    r2 = np.array([5, 5, 4, 0, 0])
    return x1, x2, a1, r1, a2, r2


@pytest.mark.parametrize("convention", ["minlik", "doubling"])
@pytest.mark.parametrize(
    "make", [_heavy_reuse, _all_unique_keys, _single_feature, _degenerate]
)
def test_batch_matches_per_feature_loop(make, convention):
    """Grouping features by conditioning key changes no bit of the
    p-values, the supports or the per-feature layout."""
    x1, x2, a1, r1, a2, r2 = make(np.random.default_rng(5))
    cases = [
        ("bin", (x1, x2), K.batch_binomial),
        ("fet", (a1, r1, a2, r2), K.batch_fisher),
        ("ent", (x1, x2, 3 * 0.689), K.batch_negbinom),
    ]
    for kind, args, kernel in cases:
        got = kernel(*args, convention=convention)
        expected = oracles.batch_loop(kind, args, convention)
        for g, e in zip(got, expected):
            assert g.dtype == e.dtype, kind
            assert np.array_equal(g, e), kind

