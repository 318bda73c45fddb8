"""Bootstrap tuning of the (lambda, epsilon) pair."""

import tracemalloc

import numpy as np
import pytest

import oracles
from discretefdr import (
    Study,
    TuningGrid,
    _kernels,
    bootstrap_tune,
    generalized_pi0,
    tuning,
)

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


def test_grid_refuses_a_negative_seed():
    """A negative seed is named by the grid, before any study is tested."""
    with pytest.raises(ValueError, match="^seed must be at least 0$"):
        TuningGrid(points=[(0.5, 0.5)], B=10, seed=-1)
    assert TuningGrid(points=[(0.5, 0.5)], B=10, seed=0).seed == 0


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


def _kernel_study(rng, m):
    s1 = rng.negative_binomial(2, 0.2, m)
    s2 = rng.negative_binomial(2, 0.1, m)
    return Study.from_distinct(*_kernels.batch_negbinom(s1, s2, 2.0))


def _assert_matches_oracle(study, grid):
    chosen, mse, full = oracles.bootstrap_shared_gather(study, grid)
    res = bootstrap_tune(study, grid)
    assert res.chosen == chosen
    assert np.array_equal(res.full_sample, full)
    assert np.allclose(res.mse, mse, rtol=1e-12, atol=0.0)
    return res, mse


def test_bootstrap_matches_shared_gather_oracle():
    """Reducing multiplicity counts per lambda gives the MSE of gathering
    and summing each point's terms over the shared resample index."""
    rng = np.random.default_rng(24)
    pts = [(lam, eps) for lam in (0.0, 0.2, 0.5, 0.8) for eps in (0.0, 0.4, 1.0)]
    studies = (random_study(rng, 90), _kernel_study(rng, 300), random_study(rng, 2))
    for study in studies:
        for B, seed in ((30, 5), (1, 6), (100, 7)):
            _assert_matches_oracle(study, TuningGrid(points=pts, B=B, seed=seed))
    # duplicate points score alike and the first of them is chosen
    dup = [(0.5, 1.0), (0.2, 0.4), (0.5, 1.0), (0.2, 0.4)]
    res, _ = _assert_matches_oracle(studies[1], TuningGrid(points=dup, B=40, seed=8))
    assert res.mse[0] == res.mse[2] and res.mse[1] == res.mse[3]


def test_blocks_of_resamples_match_oracle(monkeypatch):
    """Counting a few resamples at a time, or one resample over several
    blocks' worth of hypotheses, changes nothing beyond round-off."""
    rng = np.random.default_rng(25)
    study = _kernel_study(rng, 120)
    pts = [(lam, eps) for lam in (0.1, 0.4, 0.7) for eps in (0.0, 0.5, 1.0)]
    grid = TuningGrid(points=pts, B=23, seed=9)
    for entries in (1, 250, 1000):
        monkeypatch.setattr(tuning, "_BLOCK_ENTRIES", entries)
        _assert_matches_oracle(study, grid)


def test_epsilon_zero_grids_match_oracle_bitwise():
    """Without the adjustment each resample's sum counts exceedances, so
    the MSE table is the oracle's bit for bit."""
    rng = np.random.default_rng(26)
    lams = [k * 0.05 for k in range(20)]
    grid = TuningGrid(points=[(lam, 0.0) for lam in lams], B=50, seed=10)
    for study in (
        random_study(rng, 150, empty_supports=True),
        random_study(rng, 150),
        _kernel_study(rng, 200),
    ):
        chosen, mse, full = oracles.bootstrap_shared_gather(study, grid)
        res = bootstrap_tune(study, grid)
        assert res.chosen == chosen
        assert np.array_equal(res.mse, mse)
        assert np.array_equal(res.full_sample, full)


def test_point_mse_does_not_depend_on_other_points():
    """Given the target, a point's MSE is the same bits whatever else is
    on the grid and in whatever order."""
    rng = np.random.default_rng(27)
    study = _kernel_study(rng, 250)
    pts = [(lam, eps) for lam in (0.05, 0.3, 0.55, 0.8) for eps in (0.0, 0.5, 1.0)]
    res = bootstrap_tune(study, TuningGrid(points=pts, B=60, seed=11))
    mse = dict(zip(pts, res.mse))
    # keep the point that sets the target on every grid
    anchor = pts[int(np.argmin(res.full_sample))]
    for trial in range(5):
        keep = [p for p in pts if p != anchor and rng.uniform() < 0.5]
        sub = [anchor] + keep + keep[:2]
        order = rng.permutation(len(sub))
        sub = [sub[i] for i in order]
        other = bootstrap_tune(study, TuningGrid(points=sub, B=60, seed=11))
        for p, value in zip(sub, other.mse):
            assert value == mse[p]


def test_support_floor_runs_once_per_distinct_lambda(monkeypatch):
    """The floors of every distinct lambda come from one grid call, in
    ascending lambda, once per stored support."""
    calls = []
    original = Study._stored_floor

    def counting(self, lam):
        calls.append(np.array(lam).tolist())
        return original(self, lam)

    monkeypatch.setattr(Study, "_stored_floor", counting)
    rng = np.random.default_rng(28)
    study = random_study(rng, 40)
    pts = [(lam, eps) for lam in (0.2, 0.4, 0.6, 0.8) for eps in (0.0, 0.5, 1.0)]
    bootstrap_tune(study, TuningGrid(points=pts[::-1], B=5, seed=0))
    assert calls == [[0.2, 0.4, 0.6, 0.8]]


def _bootstrap_peak_per_feature() -> float:
    """The tracemalloc peak of ``bootstrap_tune`` on the default
    100-point grid with B = 100, per feature, on a study drawn like
    ``benchmarks/bench_tuning.py``'s: 60 000 tail-doubled group-sum
    tests."""
    m, size, samples = 60_000, 0.689, 3
    rng = np.random.default_rng(0)
    mean1 = rng.uniform(0.5, 8.0, m)
    mean2 = mean1.copy()
    effect = rng.uniform(size=m) < 0.2
    mean2[effect] *= rng.uniform(1.5, 6.0, int(effect.sum()))
    sums = [
        rng.negative_binomial(size, size / (size + mean), (samples, m)).sum(axis=0)
        for mean in (mean1, mean2)
    ]
    out = _kernels.batch_negbinom(*sums, samples * size, convention="doubling")
    study = Study.from_distinct(*out)
    pts = [(k * 0.05, eps) for k in range(20) for eps in (0.0, 0.25, 0.5, 0.75, 1.0)]
    grid = TuningGrid(points=pts, B=100, seed=0)
    tracemalloc.start()
    try:
        bootstrap_tune(study, grid)
        return tracemalloc.get_traced_memory()[1] / m
    finally:
        tracemalloc.stop()


def test_bootstrap_peak_memory_per_feature():
    """``bootstrap_tune`` holds at most 600 bytes a feature: each
    distinct lambda's parts once, no B x m resample index and no copy of
    the parts."""
    peak = _bootstrap_peak_per_feature()
    assert peak <= 600, f"{peak:.0f} bytes per feature"


def test_bootstrap_holds_no_floors_beside_the_parts():
    """The peak is 401 bytes a feature: the parts of 20 lambdas (320)
    and either one block of resample counts or the full-sample terms of
    one lambda's five epsilons (80 each at m = 60 000). The floors are
    written straight into the parts' gap rows, from one row per stored
    support, so no lambda x m array of floors is held beside the parts,
    as it was at 480 bytes."""
    peak = _bootstrap_peak_per_feature()
    assert peak <= 420, f"{peak:.0f} bytes per feature"
