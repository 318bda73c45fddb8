"""The log-gamma port equals scipy's ``gammaln`` bit for bit.

The kernels' log-weights come from ``_lgamma``; these checks compare
its bits (the int64 views, not ``allclose``) with scipy's cephes
``lgam`` on every argument the kernels can reach and around every
branch edge of the port.
"""

import numpy as np
import pytest
from scipy.special import gammaln as scipy_gammaln

from discretefdr import _lgamma
from discretefdr._kernels import MAX_TOTAL


def assert_same_bits(got, x):
    want = scipy_gammaln(x)
    differ = got.view(np.int64) != want.view(np.int64)
    assert not differ.any(), (x[differ][:5], got[differ][:5], want[differ][:5])


def test_every_integer_up_to_the_largest_total():
    x = np.arange(1, MAX_TOTAL + 2, dtype=np.float64)
    assert_same_bits(_lgamma.gammaln(x), x)


def test_log_factorials_up_to_the_largest_total():
    lf = _lgamma.log_factorials(MAX_TOTAL)
    assert lf.shape == (MAX_TOTAL + 1,)
    assert_same_bits(lf, np.arange(MAX_TOTAL + 1) + 1.0)


@pytest.mark.parametrize("n_max", [0, 1, 10, 11, 12, 13, 999, 1000])
def test_short_log_factorial_tables(n_max):
    assert_same_bits(_lgamma.log_factorials(n_max), np.arange(n_max + 1) + 1.0)


@pytest.mark.parametrize("edge", [2.0, 3.0, 13.0, 1000.0, 1e8, _lgamma._MAXLGM])
def test_neighbours_of_each_branch_edge(edge):
    x = np.empty(21)
    x[10] = edge
    for i in range(10):
        x[9 - i] = np.nextafter(x[10 - i], 0.0)
        x[11 + i] = np.nextafter(x[10 + i], np.inf)
    assert_same_bits(_lgamma.gammaln(x), x)


@pytest.mark.parametrize(
    "shape", [1e-300, 0.01, 0.37, 0.689, 1.0, 2.067, 3.0, 4.278, 7.5, 12.9, 42.0,
              999.5, 1000.0, 1e8 - 7.0, 1e12, 1e300]
)
def test_negbinom_shapes_plus_every_split(shape):
    # the arguments of negbinom_laws: a + k for a = 0, 1, ...
    x = np.arange(200_000) + shape
    assert_same_bits(_lgamma.gammaln(x), x)


def test_random_arguments_below_the_stirling_range():
    x = np.random.default_rng(20140).uniform(0.0, 13.0, 200_000)
    assert_same_bits(_lgamma.gammaln(x), x)


def test_overflow_is_infinite_without_a_warning():
    x = np.array([1e-320, 5e-324, 2.6e305, 1e308, np.finfo(np.float64).max])
    with np.errstate(all="raise"):
        got = _lgamma.gammaln(x)
    assert np.all(got == np.inf)
    assert_same_bits(got, x)


def test_peak_memory_is_a_few_copies_of_the_arguments():
    """``gammaln`` hands ``math.log`` its arguments a bounded list at a
    time: on 2^20 arguments its tracemalloc peak stays within 6 times
    their bytes (a list of them all took 9.4 times)."""
    import tracemalloc

    x = np.arange(2**20) + 2.067
    _lgamma.gammaln(x[:100])
    tracemalloc.start()
    try:
        got = _lgamma.gammaln(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6 * x.nbytes
    assert_same_bits(got, x)
