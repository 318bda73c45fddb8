"""Bootstrap tuning of the (lambda, epsilon) pair."""

import numpy as np
import pytest

from discretefdr import Study, TuningGrid, bootstrap_tune, generalized_pi0

from conftest import random_study


def test_single_point_grid_is_a_passthrough():
    rng = np.random.default_rng(20)
    study = random_study(rng, 60)
    grid = TuningGrid(points=[(0.5, 1.0)], B=25, seed=3)
    res = bootstrap_tune(study, grid)
    assert res.chosen == (0.5, 1.0)
    assert res.estimate == generalized_pi0(study, 0.5, 1.0).value
    assert res.full_sample.shape == (1,)
    assert res.mse.shape == (1,)
    assert res.mse[0] >= 0.0


def test_full_sample_column_reproduces_estimates():
    rng = np.random.default_rng(21)
    study = random_study(rng, 40)
    pts = [(0.0, 0.0), (0.25, 0.5), (0.5, 1.0), (0.75, 0.25)]
    res = bootstrap_tune(study, TuningGrid(points=pts, B=10, seed=0))
    for (lam, eps), fs in zip(pts, res.full_sample):
        assert fs == generalized_pi0(study, lam, eps).value
    assert np.all(res.mse >= 0.0)
    assert res.estimate in res.full_sample


def test_fixed_seed_is_deterministic():
    rng = np.random.default_rng(22)
    study = random_study(rng, 50)
    grid = TuningGrid(points=[(0.2, 0.0), (0.6, 1.0)], B=50, seed=7)
    a = bootstrap_tune(study, grid)
    b = bootstrap_tune(study, grid)
    assert a.chosen == b.chosen
    assert a.estimate == b.estimate
    assert np.array_equal(a.mse, b.mse)
    assert np.array_equal(a.full_sample, b.full_sample)


def test_workers_do_not_change_the_result():
    rng = np.random.default_rng(23)
    study = random_study(rng, 80)
    pts = [(lam, eps) for lam in (0.1, 0.3, 0.5, 0.7) for eps in (0.0, 1.0)]
    grid = TuningGrid(points=pts, B=40, seed=11)
    serial = bootstrap_tune(study, grid, workers=1)
    parallel = bootstrap_tune(study, grid, workers=4)
    assert serial.chosen == parallel.chosen
    assert serial.estimate == parallel.estimate
    assert np.array_equal(serial.mse, parallel.mse)
    assert np.array_equal(serial.full_sample, parallel.full_sample)


def test_exact_ties_break_toward_smallest_pair():
    # all p-values equal to 1 with empty supports: every resample yields
    # the same estimate at every grid point, so all MSEs are exactly 0
    study = Study(np.ones(6), [np.array([])] * 6)
    pts = [(0.5, 1.0), (0.5, 0.0), (0.0, 0.5)]
    res = bootstrap_tune(study, TuningGrid(points=pts, B=8, seed=0))
    assert np.array_equal(res.mse, np.zeros(3))
    assert res.chosen == (0.0, 0.5)


def test_grid_validation():
    with pytest.raises(ValueError):
        TuningGrid(points=[], B=10, seed=0)
    with pytest.raises(ValueError):
        TuningGrid(points=[(1.0, 0.5)], B=10, seed=0)
    with pytest.raises(ValueError):
        TuningGrid(points=[(-0.1, 0.5)], B=10, seed=0)
    with pytest.raises(ValueError):
        TuningGrid(points=[(0.5, 1.5)], B=10, seed=0)
    with pytest.raises(ValueError):
        TuningGrid(points=[(0.5, 0.5)], B=0, seed=0)


def test_tuning_needs_at_least_two_profiles():
    study = Study(np.array([0.5]), [np.array([0.5, 1.0])])
    with pytest.raises(ValueError):
        bootstrap_tune(study, TuningGrid(points=[(0.5, 1.0)], B=5, seed=0))


def test_json_dict_shape():
    rng = np.random.default_rng(24)
    study = random_study(rng, 30)
    res = bootstrap_tune(study, TuningGrid(points=[(0.2, 0.5)], B=5, seed=1))
    d = res.to_json_dict()
    assert d["chosen"] == {"lambda": 0.2, "epsilon": 0.5}
    assert d["estimate"] == res.estimate
    assert d["mse"][0]["full_sample"] == res.full_sample[0]


def test_bootstrap_mse_matches_two_gather_formula_bitwise():
    """Resampling the per-hypothesis terms gives the same bits as
    resampling p-values and support floors and forming the terms after."""
    import oracles

    from discretefdr import _kernels

    rng = np.random.default_rng(24)
    s1 = rng.negative_binomial(2, 0.2, 300)
    s2 = rng.negative_binomial(2, 0.1, 300)
    kernel_study = Study.from_distinct(*_kernels.batch_negbinom(s1, s2, 2.0))
    pts = [(lam, eps) for lam in (0.0, 0.2, 0.5, 0.8) for eps in (0.0, 0.4, 1.0)]
    for study in (random_study(rng, 90), kernel_study):
        grid = TuningGrid(points=pts, B=30, seed=5)
        res = bootstrap_tune(study, grid)
        target = float(res.full_sample.min())
        expected = [
            oracles.point_mse_two_gathers(study, lam, eps, grid.B, grid.seed, j, target)
            for j, (lam, eps) in enumerate(pts)
        ]
        assert np.array_equal(res.mse, np.array(expected))
