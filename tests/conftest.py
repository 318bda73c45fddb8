import numpy as np
import pytest

import discretefdr


@pytest.fixture(scope="session", autouse=True)
def _warm_kernels():
    """Run each batch kernel once on tiny inputs, so that one-time
    first-call costs are paid before any test runs."""
    discretefdr.warm_up()


def random_study(
    rng: np.random.Generator,
    m: int,
    empty_supports: bool = False,
    max_support: int = 6,
) -> discretefdr.Study:
    """A study with random step supports and p-values drawn from them.

    With ``empty_supports`` the null is continuous uniform and the
    p-values are uniform draws.
    """
    pvalues = np.empty(m)
    supports = []
    for i in range(m):
        if empty_supports:
            supports.append(np.array([]))
            pvalues[i] = rng.uniform(0.0, 1.0)
            continue
        k = int(rng.integers(1, max_support + 1))
        cuts = np.sort(rng.uniform(0.0, 1.0, size=k - 1))
        support = np.append(cuts, 1.0)
        # weights equal to the support gaps make the null dominate the
        # uniform exactly, like a genuine discrete test
        gaps = np.diff(np.concatenate(([0.0], support)))
        pvalues[i] = rng.choice(support, p=gaps)
        supports.append(support)
    return discretefdr.Study(pvalues, supports)


def random_pvalue_instance(
    rng: np.random.Generator, m: int, with_small: bool = True
) -> np.ndarray:
    """Random p-values with ties and, optionally, a few tiny values so
    that thresholding instances usually reject something."""
    base = np.sort(rng.uniform(0.0, 1.0, size=max(m // 3, 1)))
    values = rng.choice(np.append(base, 1.0), size=m)
    if with_small:
        k = max(1, m // 20)
        values[:k] = rng.uniform(1e-6, 5e-3, size=k)
    return np.minimum(1.0, np.maximum(np.nextafter(0.0, 1.0), values))
