"""The kernels' log-gamma values are ``math.lgamma``'s, and as accurate
as scipy's ``gammaln``.

The log-factorial table and, below shape 13, the negative-binomial
log-gamma table take one ``math.lgamma`` call per entry. These checks
pin those bits (the int64 views, not ``allclose``) against
``oracles.gammaln``, which calls ``math.lgamma`` on float arguments,
and bound their distance from scipy's cephes ``gammaln`` in units of
``spacing(max(|v|, 1))``. From shape 13 the coefficient is Stirling's
form, checked against ``log Gamma(j + k) - log Gamma(k) - j log k =
sum(log1p(i / k) for i < j)``, summed exactly by ``math.fsum``.
"""

import math

import numpy as np
import pytest
from scipy.special import gammaln as scipy_gammaln

import oracles
from discretefdr import _kernels as K
from discretefdr._kernels import MAX_TOTAL


def assert_same_bits(got, want):
    differ = got.view(np.int64) != want.view(np.int64)
    assert not differ.any(), (np.flatnonzero(differ)[:5], got[differ][:5], want[differ][:5])


def assert_near_scipy(got, x, units):
    """``got`` within ``units`` times ``spacing(max(|v|, 1))`` of scipy's
    ``gammaln(x)``."""
    want = scipy_gammaln(x)
    far = np.abs(got - want) > units * np.spacing(np.maximum(np.abs(want), 1.0))
    assert not far.any(), (x[far][:5], got[far][:5], want[far][:5])


@pytest.fixture(scope="module")
def full_table():
    return K.log_factorials(MAX_TOTAL)


def test_every_integer_up_to_the_largest_total(full_table):
    """``log k!`` is within 4 units of scipy at every ``k`` the kernels reach."""
    assert_near_scipy(full_table, np.arange(MAX_TOTAL + 1) + 1.0, 4)


def test_log_factorials_up_to_the_largest_total(full_table):
    """``log_factorials`` calls ``math.lgamma(k + 1)`` on the ints, which
    has the bits of the call on the float ``k + 1.0``."""
    assert full_table.shape == (MAX_TOTAL + 1,)
    assert_same_bits(full_table, oracles.gammaln(np.arange(MAX_TOTAL + 1) + 1.0))


@pytest.mark.parametrize("n_max", [0, 1, 10, 11, 12, 13, 999, 1000])
def test_short_log_factorial_tables(n_max, full_table):
    """A short table is the head of the full one, so the kernels' laws
    do not depend on the largest total of their call."""
    lf = K.log_factorials(n_max)
    assert_same_bits(lf, full_table[: n_max + 1])
    assert_near_scipy(lf, np.arange(n_max + 1) + 1.0, 4)


def _log1p_sums(k: float, splits) -> np.ndarray:
    """``log Gamma(j + k) - log Gamma(k) - j log k`` at each split ``j``,
    as an exactly rounded sum of ``log1p(i / k)`` over ``i < j``."""
    return np.array([math.fsum(map(math.log1p, (i / k for i in range(j)))) for j in splits])


#: Splits at which the coefficient is checked against the exact sums.
SPLITS = np.unique(np.geomspace(1, 199_999, 24).astype(np.int64).tolist() + [0, 2, 3, 12, 13])


@pytest.mark.parametrize(
    "shape", [1e-300, 0.01, 0.37, 0.689, 1.0, 2.067, 3.0, 4.278, 7.5, 12.9, 42.0,
              999.5, 1000.0, 1e8 - 7.0, 1e12, 1e300]
)
def test_negbinom_shapes_plus_every_split(shape):
    """Below shape 13 the coefficient of 200 000 splits is ``lgamma(j +
    k) - log j! - lgamma(k)`` on the arguments ``np.arange(n) + k``, bit
    for bit, and those log-gamma values are within 4 units of scipy's.
    From 13 Stirling's form is within 8 units of the exact sums."""
    n = 200_000
    coef, drop = K.log_negbinom_coefficients(n - 1, shape)
    lf = K.log_factorials(n - 1)
    if shape < 13.0:
        x = np.arange(n) + shape
        assert drop == 0.0
        assert_same_bits(coef, oracles.gammaln(x) - lf - math.lgamma(shape))
        assert_near_scipy(oracles.gammaln(x), x, 4)
    else:
        assert drop == math.log(shape)
        want = _log1p_sums(shape, SPLITS) - lf[SPLITS]
        scale = np.maximum(np.maximum(np.abs(want), lf[SPLITS]), 1.0)
        assert np.all(np.abs(coef[SPLITS] - want) <= 8 * np.spacing(scale))


@pytest.mark.parametrize("edge", [13.0, 1000.0])
def test_neighbours_of_each_branch_edge(edge):
    """The coefficient switches to Stirling's form at shape 13, and
    Stirling's correction from its polynomial to its series at 1000; on
    the ten floats either side of each edge, and at it, the coefficient
    is within 4 units of ``log Gamma(j + k)`` of the exact sums."""
    shapes = [edge]
    for _ in range(10):
        shapes = [np.nextafter(shapes[0], 0.0), *shapes, np.nextafter(shapes[-1], np.inf)]
    splits = [0, 1, 2, 3, 5, 10, 50, 100, 500, 1000, 2000, 5000]
    lf = K.log_factorials(splits[-1])[splits]
    for k in map(float, shapes):
        coef, drop = K.log_negbinom_coefficients(splits[-1], k)
        j = np.array(splits)
        want = _log1p_sums(k, splits) + j * math.log(k) - j * drop - lf
        scale = np.array([max(abs(math.lgamma(i + k)), v, 1.0) for i, v in zip(splits, lf)])
        assert np.all(np.abs(coef[splits] - want) <= 4 * np.spacing(scale)), k


def test_random_arguments_below_the_stirling_range():
    """``math.lgamma`` is within 9 units of scipy on seeded arguments below 13."""
    x = np.random.default_rng(20140).uniform(0.0, 13.0, 200_000)
    assert_near_scipy(oracles.gammaln(x), x, 9)


def test_log_factorials_hold_no_list_of_their_arguments():
    """``log_factorials`` fills its output from an iterator over the ints:
    on 2^20 entries its tracemalloc peak stays within 1.25 times the
    output's bytes."""
    import tracemalloc

    K.log_factorials(100)
    tracemalloc.start()
    try:
        got = K.log_factorials(2**20)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * got.nbytes
    assert_same_bits(got, oracles.gammaln(np.arange(2**20 + 1) + 1.0))
