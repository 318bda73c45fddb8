"""Simulation scenarios, replication harness, exact bias decomposition."""

import math

import numpy as np
import pytest

from discretefdr import (
    ScenarioSpec,
    ThresholdResult,
    bias_decomposition,
    build_rejection_process,
    compute_pi0,
    evaluate_study,
    false_discovery_proportion,
    generalized_bias_from_expectations,
    generate_scenario,
    pounds_bias_from_expectations,
    run_replications,
)
from discretefdr.sim import _draw_parameters, _replication_rng

import oracles


def _spec(**kw):
    base = dict(kind="poisson_bin", m=40, pi0=0.5, reps=3, seed=0)
    base.update(kw)
    return ScenarioSpec(**base)


# ---------------------------------------------------------------------------
# scenario generation
# ---------------------------------------------------------------------------


def test_true_null_count_is_rounded_share():
    spec = _spec(m=10, pi0=0.5)
    assert spec.m0 == 5
    study = generate_scenario(spec, 0)
    assert study.truth.tolist() == [True] * 5 + [False] * 5


def test_generation_is_reproducible_and_rep_indexed():
    spec = _spec(m=30, seed=42)
    a = generate_scenario(spec, 2)
    b = generate_scenario(spec, 2)
    assert np.array_equal(a.pvalues, b.pvalues)
    assert all(np.array_equal(x, y) for x, y in zip(a.supports, b.supports))
    assert np.array_equal(a.truth, b.truth)
    c = generate_scenario(spec, 3)
    assert not np.array_equal(a.pvalues, c.pvalues)


@pytest.mark.parametrize("kind", ["poisson_bin", "binomial_fet", "negbinom_ent"])
def test_each_family_generates_valid_studies(kind):
    spec = _spec(kind=kind, m=25, pi0=0.6)
    study = generate_scenario(spec, 0)
    assert study.m == 25
    assert np.all(study.pvalues > 0.0) and np.all(study.pvalues <= 1.0)
    for pv, support in zip(study.pvalues, study.supports):
        assert support.shape[0] >= 1
        assert support[-1] == 1.0
        assert pv in support


def test_cap_transform_is_accepted():
    spec = _spec(kind="binomial_fet", theta2_transform="cap", m=10)
    params = _draw_parameters(spec, _replication_rng(spec, 0))
    assert np.all(params["theta2"] <= 1.0)


def test_spec_validation():
    with pytest.raises(ValueError, match="kind"):
        _spec(kind="uniform")
    with pytest.raises(ValueError, match="pi0"):
        _spec(pi0=0.0)
    with pytest.raises(ValueError, match="pi0"):
        _spec(pi0=1.0)
    with pytest.raises(ValueError, match="m "):
        _spec(m=0)
    with pytest.raises(ValueError, match="reps"):
        _spec(reps=0)
    with pytest.raises(ValueError, match="theta2_transform"):
        _spec(kind="binomial_fet", theta2_transform="logit")


def test_mean_file_supplies_group_means(tmp_path):
    means = np.array([1.5, 2.0, 4.0, 8.0, 2.5])
    path = tmp_path / "means.txt"
    np.savetxt(path, means)
    spec = _spec(kind="negbinom_ent", m=4, mean_file=str(path))
    params = _draw_parameters(spec, _replication_rng(spec, 0))
    assert np.array_equal(params["theta1"], means[:4])

    short = _spec(kind="negbinom_ent", m=6, mean_file=str(path))
    with pytest.raises(ValueError, match="mean file"):
        _draw_parameters(short, _replication_rng(short, 0))
    with pytest.raises(ValueError, match="mean file provides 5 values, need 6"):
        run_replications(short)


def test_mean_file_is_read_once_per_run(tmp_path, monkeypatch):
    rng = np.random.default_rng(31)
    path, other = tmp_path / "means.txt", tmp_path / "other.txt"
    np.savetxt(path, rng.uniform(0.5, 8.0, 250))
    np.savetxt(other, rng.uniform(0.5, 8.0, 250))
    spec = _spec(kind="negbinom_ent", m=250, reps=50, mean_file=str(path))
    roster = dict(pi0_methods=("generalized",), procedures=("generalized",))
    # per-replication oracle studies read the file in each replication
    expected = [
        compute_pi0(
            oracles.generate_scenario_alone(spec, r), "generalized", 0.5, 1.0
        ).value
        for r in range(spec.reps)
    ]

    loads = []
    loadtxt = np.loadtxt

    def counting(*args, **kwargs):
        loads.append(args[0])
        return loadtxt(*args, **kwargs)

    monkeypatch.setattr(np, "loadtxt", counting)
    summary = run_replications(spec, **roster)
    assert loads == [str(path)]
    assert summary.pi0_estimates[:, 0].tolist() == expected

    # given the bytes the caller read, those are used, not the file
    from_bytes = run_replications(spec, **roster, mean_data=other.read_bytes())
    from_other = run_replications(
        _spec(kind="negbinom_ent", m=250, reps=50, mean_file=str(other)), **roster
    )
    assert len(loads) == 3
    for name in ("pi0_estimates", "thresholds", "rejections", "fdp"):
        assert np.array_equal(getattr(from_bytes, name), getattr(from_other, name))


# ---------------------------------------------------------------------------
# replication harness
# ---------------------------------------------------------------------------


def test_false_discovery_proportion_counting():
    spec = _spec(m=20, pi0=0.5)
    study = generate_scenario(spec, 0)
    rejected = np.array([0, 1, 10, 11])  # two true nulls, two signals
    res = ThresholdResult(0.5, 0.05, 4, rejected)
    assert false_discovery_proportion(study, res) == 0.5
    empty = ThresholdResult(0.0, math.nan, 0, np.empty(0, dtype=np.int64))
    assert false_discovery_proportion(study, empty) == 1.0


_STUDY_ARRAYS = (
    "pvalues", "support_flat", "support_start", "support_len",
    "support_index", "truth",
)


def _assert_same_study(got, expected):
    for name in _STUDY_ARRAYS:
        a, b = getattr(got, name), getattr(expected, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name


@pytest.mark.parametrize(
    "chunk_features, m, reps",
    [
        (None, 40, 5),  # one chunk
        (100, 40, 5),  # chunks of 2, 2 and 1 replications
        (100, 1, 7),  # one hypothesis per study
        (16, 40, 3),  # each replication wider than a chunk
    ],
)
@pytest.mark.parametrize("kind", ["poisson_bin", "binomial_fet", "negbinom_ent"])
def test_pooled_replications_match_per_replication_oracle(
    kind, chunk_features, m, reps, monkeypatch
):
    """Studies tested in pooled chunks are bitwise the studies each
    replication gives when tested alone, and so are every estimate,
    threshold, rejection count and false discovery proportion."""
    from discretefdr import sim

    if chunk_features is not None:
        monkeypatch.setattr(sim, "_CHUNK_FEATURES", chunk_features)
    methods = sim.PI0_METHODS if m > 1 else sim.PI0_METHODS[:-1]
    procedures = sim.PROCEDURES if m > 1 else sim.PROCEDURES[:-1]
    studies = []
    original = sim.evaluate_study

    def keeping(study, *args):
        studies.append(study)
        return original(study, *args)

    monkeypatch.setattr(sim, "evaluate_study", keeping)
    alphas = (0.05, 0.2)
    spec = _spec(kind=kind, m=m, reps=reps, seed=11, pi0=0.6, alpha_levels=alphas)
    out = run_replications(spec, methods, procedures)

    assert len(studies) == reps
    for r, study in enumerate(studies):
        expected = oracles.generate_scenario_alone(spec, r)
        _assert_same_study(study, expected)
        for j, name in enumerate(methods):
            assert out.pi0_estimates[r, j] == compute_pi0(expected, name, 0.5, 1.0).value
        results = oracles.procedure_results(expected, procedures, alphas, 0.5, 1.0)
        for k, (_, _, _, res) in enumerate(results):
            a, j = divmod(k, len(procedures))
            assert np.array_equal(out.thresholds[r, j, a], res.t_alpha, equal_nan=True)
            assert out.rejections[r, j, a] == res.rejections
            assert out.fdp[r, j, a] == false_discovery_proportion(expected, res)
    _assert_same_study(
        generate_scenario(spec, reps - 1),
        oracles.generate_scenario_alone(spec, reps - 1),
    )


def test_replications_are_tested_and_used_one_chunk_at_a_time(monkeypatch):
    """Each chunk is drawn, tested in one kernel call and used before the
    next is drawn, so no more than one chunk of studies is alive."""
    from discretefdr import _kernels, sim

    events = []
    kernel, evaluate = _kernels.batch_binomial, sim.evaluate_study

    def counting_kernel(x1, x2, *args):
        out = kernel(x1, x2, *args)
        events.append(("kernel", len(x1), len(out)))
        return out

    def counting_evaluate(study, *args):
        events.append(("study", study.m))
        return evaluate(study, *args)

    monkeypatch.setattr(sim, "_CHUNK_FEATURES", 100)
    monkeypatch.setattr(_kernels, "batch_binomial", counting_kernel)
    monkeypatch.setattr(sim, "evaluate_study", counting_evaluate)
    run_replications(_spec(m=40, reps=5))
    chunk = [("kernel", 80, 4), ("study", 40), ("study", 40)]
    assert events == chunk + chunk + [("kernel", 40, 4), ("study", 40)]


@pytest.mark.parametrize("m", [1, 40])
@pytest.mark.parametrize("kind", ["poisson_bin", "binomial_fet", "negbinom_ent"])
def test_evaluate_study_matches_transcribed_procedures(kind, m):
    """Every estimate and every procedure's cells and results are bitwise
    those of the estimator and FDR functions called directly."""
    from discretefdr import (
        benjamini_pi0,
        generalized_pi0,
        pounds_hat_pi0,
        pounds_tilde_pi0,
        sim,
        storey_pi0,
    )

    study = generate_scenario(_spec(kind=kind, m=m, pi0=0.6, seed=5), 0)
    lam, eps, alphas = 0.4, 0.7, (0.01, 0.05, 0.3)
    estimates, outcomes = evaluate_study(
        study, sim.PI0_METHODS, sim.PROCEDURES, alphas, lam, eps
    )
    assert estimates == {
        "storey": storey_pi0(study, lam),
        "generalized": generalized_pi0(study, lam, eps),
        "pounds_tilde": pounds_tilde_pi0(study),
        "pounds_hat": pounds_hat_pi0(study),
        "benjamini": benjamini_pi0(study) if m > 1 else None,
    }
    assert list(estimates) == list(sim.PI0_METHODS)
    # level by level, as the transcription yields them
    got = [
        (name, outcome[0], alpha, outcome[1][a])
        for a, alpha in enumerate(alphas)
        for name, outcome in zip(sim.PROCEDURES, outcomes)
        if outcome is not None
    ]
    expected = list(
        oracles.procedure_results(study, sim.PROCEDURES, alphas, lam, eps)
    )
    assert len(got) == len(expected) == len(alphas) * (5 if m > 1 else 4)
    for (name, cells, alpha, res), (e_name, e_cells, e_alpha, e_res) in zip(
        got, expected
    ):
        assert (name, cells, alpha) == (e_name, e_cells, e_alpha)
        assert np.array_equal(res.t_alpha, e_res.t_alpha)
        assert np.array_equal(res.fdr_at_t, e_res.fdr_at_t, equal_nan=True)
        assert res.rejections == e_res.rejections
        assert np.array_equal(res.rejected, e_res.rejected)


def test_adjusted_procedure_rejects_at_least_exceedance_procedure():
    spec = _spec(m=120, pi0=0.7, reps=8, seed=9)
    out = run_replications(spec, procedures=("generalized", "storey"))
    assert np.all(out.rejections[:, 0, :] >= out.rejections[:, 1, :])
    assert np.all(out.thresholds[:, 0, :] >= out.thresholds[:, 1, :])


def test_all_null_scenario_pushes_exceedance_estimate_high():
    spec = _spec(m=200, pi0=0.5, reps=20, rho_low=1.0, rho_high=1.0)
    out = run_replications(spec, pi0_methods=("storey",), procedures=())
    assert out.pi0_estimates.mean() >= 0.9


def test_single_replication_degenerates_sd_to_zero():
    spec = _spec(reps=1)
    out = run_replications(spec)
    assert out.degenerate_sd
    agg = out.aggregate()
    assert agg["degenerate_sd"] is True
    for stats in agg["pi0_estimators"].values():
        assert stats["sd_excess"] == 0.0
        assert stats["se_excess"] == 0.0


def test_roster_validation():
    spec = _spec()
    with pytest.raises(ValueError, match="roster"):
        run_replications(spec, pi0_methods=(), procedures=())
    with pytest.raises(ValueError, match="pi0 method"):
        run_replications(spec, pi0_methods=("qvalue",))
    with pytest.raises(ValueError, match="procedure"):
        run_replications(spec, procedures=("bonferroni",))


def test_each_study_builds_one_process_and_each_estimate_once(monkeypatch):
    """With the full roster, every study builds one rejection process and
    computes each estimate at most once, whatever the procedures and
    levels that share them."""
    from discretefdr import sim

    calls = []

    def counting(name):
        original = getattr(sim, name)

        def wrapper(study, *args, **kwargs):
            calls.append((name, study.pvalues.tobytes()))
            return original(study, *args, **kwargs)

        return wrapper

    def counting_build(pvalues):
        calls.append(("build_rejection_process", pvalues.tobytes()))
        return build_rejection_process(pvalues)

    estimators = (
        "storey_pi0", "generalized_pi0", "pounds_tilde_pi0",
        "pounds_hat_pi0", "benjamini_pi0",
    )
    for name in estimators:
        monkeypatch.setattr(sim, name, counting(name))
    monkeypatch.setattr(sim, "build_rejection_process", counting_build)

    spec = _spec(reps=4, alpha_levels=(0.05, 0.1, 0.2))
    out = run_replications(
        spec, pi0_methods=sim.PI0_METHODS, procedures=sim.PROCEDURES
    )
    assert out.thresholds.shape == (4, len(sim.PROCEDURES), 3)
    studies = {key for _, key in calls}
    assert len(studies) == spec.reps
    for key in studies:
        names = [name for name, k in calls if k == key]
        assert names.count("build_rejection_process") == 1
        assert sorted(n for n in names if n in estimators) == sorted(estimators)


def test_aggregate_layout():
    spec = _spec(reps=2, alpha_levels=(0.05, 0.1))
    agg = run_replications(spec).aggregate()
    assert set(agg["pi0_estimators"]) == {
        "storey", "generalized", "pounds_tilde", "benjamini",
    }
    assert set(agg["procedures"]) == {
        "generalized", "storey", "bh", "adaptive_bh",
    }
    for per_alpha in agg["procedures"].values():
        assert set(per_alpha) == {"0.05", "0.1"}
        for stats in per_alpha.values():
            assert set(stats) == {
                "mean_fdp", "sd_fdp", "se_fdp",
                "mean_rejections", "mean_threshold",
            }


# ---------------------------------------------------------------------------
# exact bias decomposition
# ---------------------------------------------------------------------------


def test_bias_formula_at_lambda_zero():
    b = generalized_bias_from_expectations(
        np.zeros(4), np.zeros(4), lam=0.0, epsilon=0.0, pi0=0.5
    )
    assert b == 0.5


def test_bias_is_epsilon_free_for_uniform_nulls():
    # when every expected support floor equals lambda, the adjustment
    # cancels and the bias no longer depends on epsilon
    rng = np.random.default_rng(30)
    cdf = rng.uniform(0.0, 1.0, 8)
    lam = 0.5
    base = generalized_bias_from_expectations(
        cdf, np.full(8, lam), lam, 0.0, pi0=0.6
    )
    for eps in (0.25, 0.7, 1.0):
        b = generalized_bias_from_expectations(
            cdf, np.full(8, lam), lam, eps, pi0=0.6
        )
        assert b == pytest.approx(base, abs=1e-12)


def test_doubled_mean_bias_splits_by_truth():
    mean_p = np.array([0.5, 0.5, 0.3, 0.2])
    truth = np.array([True, True, False, False])
    b = pounds_bias_from_expectations(mean_p, truth)
    assert b == pytest.approx(2.0 / 4.0 * (0.3 + 0.2), abs=1e-15)


def test_bias_decomposition_structure():
    spec = _spec(m=6, pi0=0.5, reps=1)
    dec = bias_decomposition(spec, lam=0.0, epsilon=0.0)
    assert dec.pi0 == spec.m0 / spec.m
    assert dec.mass_deficit <= 1e-6
    assert dec.cdf_at_lambda.shape == (6,)
    # at lambda 0 no p-value can sit at or below the cutoff
    assert np.all(dec.cdf_at_lambda == 0.0)
    assert dec.generalized_bias == pytest.approx(1.0 - dec.pi0, abs=1e-12)
    assert 0.0 < dec.mean_pvalue.min() <= dec.mean_pvalue.max() <= 1.0


def test_bias_decomposition_truncation_guard():
    spec = _spec(m=4, pi0=0.5, reps=1)
    with pytest.raises(ValueError, match="bound"):
        bias_decomposition(spec, lam=0.5, epsilon=1.0, truncation=2)


@pytest.mark.parametrize(
    "truncation, left", [(200, "1.995e-01"), (1000, "1.206e-06")]
)
def test_bias_decomposition_refuses_default_negbinom_effect_sizes(truncation, left):
    """The default Pareto(1.5, 1.426) effect sizes put more mass beyond
    the default bound, and beyond 1000, than the guard allows."""
    spec = ScenarioSpec(kind="negbinom_ent", m=30, pi0=0.8, seed=0)
    with pytest.raises(ValueError, match=f"truncation {truncation} leaves {left} "):
        bias_decomposition(spec, lam=0.5, epsilon=1.0, truncation=truncation)


#: Per family: parameters that keep the mass beyond a small truncation
#: under 1e-6, and the truncation (binomial_fet ignores it).
_ORACLE_SPECS = {
    "poisson_bin": (dict(pareto_location=2.0, rho_high=3.0), 40),
    "binomial_fet": ({}, 200),
    "negbinom_ent": (dict(mean_high=2.0, rho_shape=20.0), 70),
}


@pytest.mark.parametrize("kind", sorted(_ORACLE_SPECS))
def test_bias_decomposition_matches_per_cell_oracle(kind):
    extra, truncation = _ORACLE_SPECS[kind]
    spec = _spec(kind=kind, m=6, pi0=0.5, reps=1, seed=5, **extra)
    truth = np.arange(spec.m) < spec.m0
    for lam, eps in ((0.0, 0.0), (0.3, 1.0), (0.6, 0.5)):
        dec = bias_decomposition(spec, lam, eps, truncation=truncation)
        cdf, null_cdf, mean_p, covered = oracles.bias_expectations_loop(
            spec, lam, truncation
        )
        for got, want in (
            (dec.cdf_at_lambda, cdf),
            (dec.null_cdf_at_lambda, null_cdf),
            (dec.mean_pvalue, mean_p),
        ):
            assert np.max(np.abs(got - want)) <= 1e-12
        assert abs(dec.mass_deficit - max(0.0, 1.0 - covered.min())) <= 1e-12
        assert dec.generalized_bias == pytest.approx(
            generalized_bias_from_expectations(
                cdf, null_cdf, lam, eps, spec.m0 / spec.m
            ),
            abs=1e-12,
        )
        assert dec.pounds_bias == pytest.approx(
            pounds_bias_from_expectations(mean_p, truth), abs=1e-12
        )


def test_bias_decomposition_truncation_guard_negbinom():
    spec = _spec(kind="negbinom_ent", m=4, pi0=0.5, reps=1)
    with pytest.raises(ValueError, match="bound"):
        bias_decomposition(spec, lam=0.5, epsilon=1.0, truncation=10)


def test_bias_decomposition_matches_monte_carlo():
    # near-degenerate parameter draws so every replication shares (to
    # ~1e-9) the parameters the exact enumeration conditions on
    spec = _spec(
        m=40,
        pi0=0.5,
        reps=300,
        seed=17,
        pareto_shape=1e9,
        rho_low=2.0,
        rho_high=2.0,
    )
    dec = bias_decomposition(spec, lam=0.5, epsilon=1.0)
    raws = np.array(
        [
            compute_pi0(generate_scenario(spec, r), "generalized", 0.5, 1.0).raw
            for r in range(spec.reps)
        ]
    )
    se = raws.std(ddof=1) / math.sqrt(spec.reps)
    assert abs(raws.mean() - (dec.pi0 + dec.generalized_bias)) <= 5 * se + 1e-3


def test_import_leaves_scipy_stats_unloaded():
    """scipy.stats is needed only by the bias enumeration, which imports
    it on first use; importing the package must not pay for it."""
    import os
    import subprocess
    import sys

    import discretefdr

    src = os.path.dirname(discretefdr.__path__[0])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = "import sys, discretefdr; print('scipy.stats' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    assert out.stdout.strip() == "False"
