"""``log(Gamma(x))`` for positive ``x``, bit for bit as cephes ``lgam``.

A port of ``lgam`` (S. L. Moshier, *Methods and Programs for
Mathematical Functions*, 1989), the routine behind scipy's ``gammaln``,
for positive arguments only: the kernels need no other, and importing
scipy would cost more than the whole of a typical command. Every
floating-point operation is the one ``lgam`` performs, in the same
order, and ``log`` is ``math.log``, which calls the same libm as
``lgam`` (``np.log`` differs from it by an ulp on some arguments).
``tests/test_lgamma.py`` checks the bits against scipy.
``stirling_correction`` is Stirling's correction on its own, for the
kernels' differences of log-gamma values at large shapes.
"""

from __future__ import annotations

import math
from itertools import chain

import numpy as np

# Stirling's correction below 1000, and the rational approximation of
# log(Gamma(u)) on [2, 3) as u * B(u) / C(u), where C is monic
_A = (8.11614167470508450300e-4, -5.95061904284301438324e-4,
      7.93650340457716943945e-4, -2.77777777730099687205e-3,
      8.33333333333331927722e-2)
_B = (-1.37825152569120859100e3, -3.88016315134637840924e4,
      -3.31612992738871184744e5, -1.16237097492762307383e6,
      -1.72173700820839662146e6, -8.53555664245765465627e5)
_C = (-3.51815701436523470549e2, -1.70642106651881159223e4,
      -2.20528590553854454839e5, -1.13933444367982507207e6,
      -2.53252307177582951285e6, -2.01889141433532773231e6)
_LS2PI = 0.91893853320467274178  # log(sqrt(2 pi))
_MAXLGM = 2.556348e305  # beyond it log(Gamma(x)) overflows
#: Arguments converted to Python floats at a time for ``math.log``.
_LIST_ENTRIES = 1 << 16


def _small(x: float) -> float:
    """``lgam`` below 13: shift into [2, 3), then the rational form."""
    z, p, u = 1.0, 0.0, x
    while u >= 3.0:
        p -= 1.0
        u = x + p
        z *= u
    while u < 2.0:
        z /= u
        p += 1.0
        u = x + p
    if u == 2.0:
        return math.log(z)
    u = x + (p - 2.0)
    b = _B[0]
    for c in _B[1:]:
        b = b * u + c
    c = u + _C[0]
    for d in _C[1:]:
        c = c * u + d
    return math.log(z) + u * b / c


def stirling_correction(x: np.ndarray) -> np.ndarray:
    """``log(Gamma(x)) - ((x - 0.5) log x - x + log(sqrt(2 pi)))`` for
    ``x`` from 13, as ``lgam`` forms it: the polynomial in ``1 / x^2``
    below 1000, the three-term series from there. ``lgam`` drops it
    beyond 1e8; this keeps it, for differences of log-gamma values."""
    with np.errstate(over="ignore"):  # x * x beyond 1e154; 1 / inf is 0
        p = x * x
    np.divide(1.0, p, out=p)
    mid = x < 1000.0
    pm = p[mid]
    a = np.full(pm.size, _A[0])
    for c in _A[1:]:
        a *= pm
        a += c
    a /= x[mid]
    corr = 7.9365079365079365079365e-4 * p
    corr -= 2.7777777777777777777778e-3
    corr *= p
    corr += 0.0833333333333333333333
    corr /= x
    corr[mid] = a
    return corr


def _stirling(x: np.ndarray, values) -> np.ndarray:
    """``lgam`` from 13 up to ``_MAXLGM``; ``values`` iterates over the
    entries of ``x`` as Python numbers, for ``math.log``.

    Works in place where it can: at the largest totals the arrays hold
    millions of entries.
    """
    q = x - 0.5
    q *= np.fromiter(map(math.log, values), np.float64, x.size)
    q -= x
    q += _LS2PI
    corr = stirling_correction(x)
    corr[x > 1e8] = 0.0  # lgam adds no correction beyond 1e8
    q += corr
    return q


def gammaln(x) -> np.ndarray:
    """``log(Gamma(x))`` elementwise for positive ``x`` (a float array);
    ``inf`` where it overflows, as in ``lgam``."""
    x = np.asarray(x, dtype=np.float64)
    out = np.full(x.shape, np.inf)
    small = x < 13.0
    out[small] = [_small(v) for v in x[small].tolist()]
    big = ~small & (x <= _MAXLGM)
    xb = x[big]
    # math.log takes the Python floats a bounded list at a time
    step = _LIST_ENTRIES
    values = chain.from_iterable(
        xb[a : a + step].tolist() for a in range(0, xb.size, step)
    )
    out[big] = _stirling(xb, values)
    return out


def log_factorials(n_max: int) -> np.ndarray:
    """``log(k!) = gammaln(k + 1.0)`` for ``k = 0..n_max``.

    ``tests/test_lgamma.py`` checks that these bits equal scipy's
    ``gammaln`` on every ``k`` up to ``_kernels.MAX_TOTAL``, so the
    kernels' tables are the ones a ``gammaln`` call per law would give."""
    head = min(n_max + 1, 12)  # k + 1 below 13
    out = np.empty(n_max + 1)
    out[:head] = [_small(k + 1.0) for k in range(head)]
    x = np.arange(head + 1, n_max + 2, dtype=np.float64)
    # math.log takes the Python ints: no list of floats to build
    out[head:] = _stirling(x, range(head + 1, n_max + 2))
    return out
