"""Simulation scenarios, replication harness, exact bias decomposition."""

import math

import numpy as np
import pytest
from scipy import stats

from discretefdr import (
    ScenarioSpec,
    Study,
    ThresholdResult,
    bias_decomposition,
    build_rejection_process,
    compute_pi0,
    false_discovery_proportion,
    generalized_bias_from_expectations,
    generate_scenario,
    pounds_bias_from_expectations,
    run_replications,
)
from discretefdr import _kernels, fdr, sim
from discretefdr.sim import _draw_parameters, _replication_rng

import oracles
from conftest import assert_same_study


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


@pytest.mark.parametrize("transform", ["odds", "cap"])
def test_success_probability_one_takes_the_transform_limit(transform):
    """At a group-1 probability of 1 the scaled odds are infinite: the
    false nulls' group-2 probability is then 1, or 0 at effect size 0.
    Below 1 it is the transform of the scaled odds, bit for bit."""
    for rho, want in ((2.0, 1.0), (0.0, 0.0)):
        spec = _spec(kind="binomial_fet", m=10, theta_low=1.0, theta_high=1.0,
                     rho_low=rho, rho_high=rho, theta2_transform=transform)
        theta2 = _draw_parameters(spec, _replication_rng(spec, 0))["theta2"]
        assert theta2.tolist() == [1.0] * 5 + [want] * 5
    spec = _spec(
        kind="binomial_fet", m=200, theta_high=0.999, theta2_transform=transform
    )
    drawn = _draw_parameters(spec, _replication_rng(spec, 0))
    rng = _replication_rng(spec, 0)
    size = spec.trials_size
    rng.negative_binomial(size, size / (size + spec.trials_mean), spec.m)
    theta1 = rng.uniform(spec.theta_low, spec.theta_high, spec.m)
    odds = rng.uniform(spec.rho_low, spec.rho_high, 100) * theta1[100:] / (
        1.0 - theta1[100:]
    )
    shifted = odds / (1.0 + odds) if transform == "odds" else np.minimum(1.0, odds)
    assert np.array_equal(drawn["theta1"], theta1)
    assert drawn["theta2"][100:].view(np.int64).tolist() == shifted.view(
        np.int64
    ).tolist()


@pytest.mark.parametrize("sigma", [1e-308, 1e-40, 1e-3, 1.0, 1e3, 1e12])
def test_negbinom_range_check_agrees_with_numpy_at_the_edge(sigma):
    """The group sums are refused, naming the dispersion, exactly where
    numpy's negative-binomial sampler refuses the shape and ``p``: on the
    ulps of ``p`` around the edge of numpy's range and at the smallest
    positive ``p``, where numpy's own range check overflows, with no
    warning. A ``p`` outside (0, 1] keeps numpy's own message."""
    spec = _spec(kind="negbinom_ent", m=1, dispersion=1.0 / sigma)
    sigma = 1.0 / spec.dispersion  # the shape the draw uses
    # numpy's largest Poisson mean, as its sampler computes it
    lam_max = float(np.iinfo("l").max) - np.sqrt(np.iinfo("l").max) * 10
    scale = sigma + 10 * np.sqrt(sigma)
    probs = [scale / (lam_max + scale)]
    for _ in range(8):
        probs = [np.nextafter(probs[0], 0.0), *probs, np.nextafter(probs[-1], 1.0)]
    refused = []
    for p in [np.nextafter(0.0, 1.0), *probs]:
        p = np.array([p])
        try:
            with np.errstate(over="ignore", divide="ignore"):
                np.random.default_rng(0).negative_binomial(sigma, p, size=1)
            numpy_refuses = False
        except ValueError:
            numpy_refuses = True
        try:
            sim._group_sums(spec, np.random.default_rng(0), p)
            ours = False
        except ValueError as exc:
            assert str(exc).startswith(f"dispersion {spec.dispersion!r} is too large")
            ours = True
        assert ours == numpy_refuses, p
        refused.append(ours)
    # the ulps straddle the edge
    assert refused[0] and not refused[-1]
    with pytest.raises(ValueError, match="^p <= 0"):
        sim._group_sums(spec, np.random.default_rng(0), np.array([1.5]))


def _draw_specs(tmp_path):
    """Specs of all three kinds: default and other sizes, shares of true
    nulls and samples per group, and group means from a file."""
    path = tmp_path / "means.txt"
    path.write_text("\n".join(str(v) for v in np.linspace(0.0, 40.0, 30)) + "\n")
    return [
        _spec(kind="poisson_bin", m=40),
        _spec(kind="poisson_bin", m=1, pi0=0.3, pareto_location=60.0),
        _spec(kind="binomial_fet", m=40, theta2_transform="cap"),
        _spec(kind="binomial_fet", m=7, pi0=0.9, trials_mean=300.0),
        _spec(kind="negbinom_ent", m=40),
        _spec(kind="negbinom_ent", m=3, reps_per_group=1, dispersion=0.05),
        _spec(kind="negbinom_ent", m=30, reps_per_group=5, mean_file=str(path)),
    ]


def test_draws_of_both_groups_in_one_call_match_a_call_per_group(tmp_path):
    """Each kind's counts, drawn for both groups in one sampler call into
    the chunk's rows, are bit for bit those of one call per group, over
    several specs and replications."""
    for spec in _draw_specs(tmp_path):
        width = 3 if spec.kind == "binomial_fet" else 2
        for r in (0, 1, 7, 300):
            out = np.full((width, spec.m), -1, dtype=np.int64)
            sim._draw_counts(spec, r, out)
            want = oracles.draw_counts_per_group(spec, r)
            assert all(c.dtype == np.int64 for c in want)
            assert np.array_equal(out, np.stack(want)), (spec, r)
        # the pooled chunk holds each replication's columns in turn
        study = sim._chunk_study(spec, range(4))
        for r in range(4):
            alone = oracles.generate_scenario_alone(spec, r)
            assert study.pvalues[r * spec.m : (r + 1) * spec.m].tobytes() == (
                alone.pvalues.tobytes()
            )


def _refusal(draw):
    with pytest.raises(ValueError) as info:
        draw()
    return str(info.value)


@pytest.mark.parametrize("mean, refused", [(6e17, "group 2"), (1e18, "both")])
def test_negbinom_refusal_names_the_group_a_draw_per_group_refuses(mean, refused):
    """numpy checks both groups' ``p`` at once; the refusal names the
    mean of the group that a call per group refuses first: group 2's
    when only its (scaled) means are too large, group 1's when both
    are, which is then below group 2's largest mean."""
    spec = _spec(kind="negbinom_ent", m=5, pi0=0.6, mean_low=mean, mean_high=mean)
    want = _refusal(lambda: oracles.draw_counts_per_group(spec, 0))
    got = _refusal(lambda: sim._draw_counts(spec, 0, np.empty((2, 5), dtype=np.int64)))
    assert got == want
    assert got.startswith(f"dispersion {spec.dispersion!r} is too large")
    named = float(got.split("group mean ")[1].split(":")[0])
    # group 1's means are all `mean`; group 2's false nulls are larger
    assert (named == pytest.approx(mean, rel=1e-5)) == (refused == "both")


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


def test_spec_refuses_a_negative_seed():
    """A negative seed is named by the spec, not later by numpy's
    ``SeedSequence`` after the scenario has started."""
    with pytest.raises(ValueError, match="^seed must be at least 0$"):
        _spec(seed=-1)
    assert _spec(seed=0).seed == 0


def test_spec_refuses_empty_and_repeated_alpha_levels():
    with pytest.raises(ValueError, match="alpha_levels is empty"):
        _spec(alpha_levels=())
    # the levels key aggregate() at 9 significant digits
    for levels in [(0.05, 0.05), (0.1, 0.05, 0.05000000001)]:
        with pytest.raises(ValueError, match="repeat a level"):
            _spec(alpha_levels=levels)
    assert _spec(alpha_levels=(0.05, 0.0500000001)).alpha_levels[1] == 0.0500000001


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


@pytest.mark.parametrize(
    "means, named",
    [
        (dict(mean_low=-3.0, mean_high=-1.0), "mean_low -3.0"),
        (dict(mean_high=-1.0), "mean_high -1.0"),
        (dict(mean_low=math.nan), "mean_low nan"),
        (dict(mean_high=math.inf), "mean_high inf"),
    ],
)
def test_spec_refuses_negative_or_non_finite_means(means, named):
    with pytest.raises(ValueError, match=f"{named} is not a finite mean"):
        _spec(kind="negbinom_ent", **means)


@pytest.mark.parametrize(
    "kind, params, named",
    [
        ("binomial_fet", dict(theta_high=1.5), "theta_high 1.5"),
        ("poisson_bin", dict(pareto_shape=0.0), "pareto_shape 0.0"),
        ("binomial_fet", dict(trials_size=0.0), "trials_size 0.0"),
        ("poisson_bin", dict(rho_low=-3.0), "rho_low -3.0"),
        ("negbinom_ent", dict(rho_location=-1.0), "rho_location -1.0"),
        ("binomial_fet", dict(trials_offset=-5), "trials_offset -5"),
        ("binomial_fet", dict(trials_mean=-1.0), "trials_mean -1.0"),
        ("poisson_bin", dict(pareto_location=math.nan), "pareto_location nan"),
        ("negbinom_ent", dict(rho_shape=-1.0), "rho_shape -1.0"),
        ("binomial_fet", dict(theta_low=0.7), "theta_low 0.7 exceeds theta_high"),
        ("negbinom_ent", dict(mean_low=9.0), "mean_low 9.0 exceeds mean_high"),
    ],
)
def test_spec_refuses_out_of_range_family_parameters(kind, params, named):
    """Each family parameter is refused by its key, not later by numpy's
    sampler under a name (p, a, n, lam) the config never set, and not
    by the bias enumeration with ``negative dimensions``."""
    with pytest.raises(ValueError, match=named):
        _spec(kind=kind, **params)


def test_mean_file_refuses_negative_or_non_finite_means(tmp_path):
    path = tmp_path / "means.txt"
    for text, named in [
        ("1.5\n2\n-1\n4\n", "value -1.0 on line 3"),
        ("# means\n1.5\n\n2  # two\ninf\n4\n", "value inf on line 5"),
        ("1.5 nan 2 4\n", "value nan on line 1"),
    ]:
        path.write_text(text)
        spec = _spec(kind="negbinom_ent", m=4, mean_file=str(path))
        with pytest.raises(ValueError, match=f"{named} is not a finite mean"):
            run_replications(spec)
        with pytest.raises(ValueError, match=named):
            _draw_parameters(spec, _replication_rng(spec, 0))
    # beyond the first m values, nothing is checked
    path.write_text("1.5\n2\n3\n4\n-1\n")
    run_replications(_spec(kind="negbinom_ent", m=4, reps=1, mean_file=str(path)))


def test_zero_means_stay_legal(tmp_path):
    """A mean of 0 gives p = 1, so every count is 0."""
    summary = run_replications(
        _spec(kind="negbinom_ent", m=20, reps=2, mean_low=0.0, mean_high=0.0)
    )
    assert summary.pi0_estimates.shape[0] == 2
    path = tmp_path / "means.txt"
    path.write_text("0\n1\n0\n2\n")
    spec = _spec(kind="negbinom_ent", m=4, mean_file=str(path))
    assert _draw_parameters(spec, _replication_rng(spec, 0))["theta1"].tolist() == [
        0.0, 1.0, 0.0, 2.0
    ]


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
    assert false_discovery_proportion(study, empty) == 0.0


def test_false_discovery_proportion_needs_truth_labels():
    study = Study(np.array([0.01, 0.5]), [np.empty(0)] * 2)
    res = ThresholdResult(0.01, 0.02, 1, np.array([0]))
    with pytest.raises(
        ValueError, match="^false discovery proportion needs truth labels$"
    ):
        false_discovery_proportion(study, res)


@pytest.mark.parametrize("pi0", [0.5, 0.8])
@pytest.mark.parametrize("kind", ["poisson_bin", "binomial_fet"])
def test_false_discovery_proportion_is_the_one_row_case(kind, pi0):
    """On the scenarios of acceptance check 7, every procedure's one-study
    false discovery proportion, from its transcribed result, is bitwise
    the row-wise one ``run_replications`` reports for that replication."""
    alphas = (0.05, 0.1)
    spec = ScenarioSpec(
        kind=kind, m=1000, pi0=pi0, reps=3, seed=0, alpha_levels=alphas
    )
    out = run_replications(spec, pi0_methods=(), procedures=sim.PROCEDURES)
    for r in range(spec.reps):
        study = generate_scenario(spec, r)
        results = oracles.procedure_results(study, sim.PROCEDURES, alphas, 0.5, 1.0)
        for name, _, alpha, res in results:
            j, a = sim.PROCEDURES.index(name), alphas.index(alpha)
            got = np.float64(false_discovery_proportion(study, res))
            assert got.tobytes() == out.fdp[r, j, a].tobytes(), (r, name, alpha)


def _cut(tested, m, truth):
    """The studies of the replications pooled in one kernel call's
    result, each cut out of it with its own ``m`` rows; each stores the
    arrays the layout oracle does."""
    pvalues, flat, start, length = tested
    for a in range(0, pvalues.shape[0], m):
        rows = slice(a, a + m)
        cut = (pvalues[rows], flat, start[rows], length[rows])
        study = Study.from_distinct(*cut, truth=truth)
        assert_same_study(study, oracles.study_layout(*cut, truth))
        yield study


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
    threshold, rejection count and false discovery proportion. Each
    chunk's kernel result is cut into its replications' studies here, and
    the chunk reaches ``sim.evaluate_block`` as one study of their
    p-values."""
    from discretefdr import sim

    if chunk_features is not None:
        monkeypatch.setattr(sim, "_CHUNK_FEATURES", chunk_features)
    methods = sim.PI0_METHODS if m > 1 else sim.PI0_METHODS[:-1]
    procedures = sim.PROCEDURES if m > 1 else sim.PROCEDURES[:-1]
    studies, evaluated = [], []
    test, evaluate = sim._test, sim.evaluate_block

    def testing(spec, columns):
        out = test(spec, columns)
        studies.extend(_cut(out, spec.m, sim._truth(spec)))
        return out

    def keeping(study, rows, *args):
        evaluated.append(study.pvalues)
        return evaluate(study, rows, *args)

    monkeypatch.setattr(sim, "_test", testing)
    monkeypatch.setattr(sim, "evaluate_block", keeping)
    alphas = (0.05, 0.2)
    spec = _spec(kind=kind, m=m, reps=reps, seed=11, pi0=0.6, alpha_levels=alphas)
    out = run_replications(spec, methods, procedures)
    # the oracles below test and evaluate studies too
    monkeypatch.setattr(sim, "_test", test)
    monkeypatch.setattr(sim, "evaluate_block", evaluate)

    assert np.array_equal(
        np.concatenate(evaluated), np.concatenate([s.pvalues for s in studies])
    )
    assert len(studies) == reps
    for r, study in enumerate(studies):
        expected = oracles.generate_scenario_alone(spec, r)
        assert_same_study(study, expected)
        for j, name in enumerate(methods):
            assert out.pi0_estimates[r, j] == compute_pi0(expected, name, 0.5, 1.0).value
        results = oracles.procedure_results(expected, procedures, alphas, 0.5, 1.0)
        for k, (_, _, _, res) in enumerate(results):
            a, j = divmod(k, len(procedures))
            assert np.array_equal(out.thresholds[r, j, a], res.t_alpha, equal_nan=True)
            assert out.rejections[r, j, a] == res.rejections
            assert out.fdp[r, j, a] == false_discovery_proportion(expected, res)
    assert_same_study(
        generate_scenario(spec, reps - 1),
        oracles.generate_scenario_alone(spec, reps - 1),
    )


def test_replications_are_tested_and_used_one_chunk_at_a_time(monkeypatch):
    """Each chunk is drawn, tested in one kernel call and evaluated as one
    block before the next is drawn, so no more than one chunk of studies
    is alive."""
    from discretefdr import _kernels, fdr, sim

    events = []
    kernel, evaluate = _kernels.batch_binomial, sim.evaluate_block

    def counting_kernel(x1, x2, *args):
        out = kernel(x1, x2, *args)
        events.append(("kernel", len(x1), len(out)))
        return out

    def counting_evaluate(study, rows, *args):
        events.append(("block", rows, study.m))
        return evaluate(study, rows, *args)

    monkeypatch.setattr(sim, "_CHUNK_FEATURES", 100)
    monkeypatch.setattr(_kernels, "batch_binomial", counting_kernel)
    monkeypatch.setattr(sim, "evaluate_block", counting_evaluate)
    run_replications(_spec(m=40, reps=5))
    chunk = [("kernel", 80, 4), ("block", 2, 80)]
    assert events == chunk + chunk + [("kernel", 40, 4), ("block", 1, 40)]


@pytest.mark.parametrize("m", [1, 40])
@pytest.mark.parametrize("kind", ["poisson_bin", "binomial_fet", "negbinom_ent"])
def test_evaluate_study_matches_transcribed_procedures(kind, m):
    """One study evaluated as a one-row block, as ``analyze`` evaluates
    it: every estimate is bitwise the one-study estimator's, and every
    procedure's cells and results are bitwise those transcribed in
    ``oracles.procedure_results``."""
    from discretefdr import (
        benjamini_pi0,
        generalized_pi0,
        pounds_hat_pi0,
        pounds_tilde_pi0,
        storey_pi0,
    )
    from discretefdr.estimators import _one

    study = generate_scenario(_spec(kind=kind, m=m, pi0=0.6, seed=5), 0)
    lam, eps, alphas = 0.4, 0.7, (0.01, 0.05, 0.3)
    estimates, outcomes = sim.evaluate_block(
        study, 1, sim.PI0_METHODS, sim.PROCEDURES, alphas, lam, eps
    )
    assert {
        name: None if e is None else _one(name, e[0], lam, eps)
        for name, e in estimates.items()
    } == {
        "storey": storey_pi0(study, lam),
        "generalized": generalized_pi0(study, lam, eps),
        "pounds_tilde": pounds_tilde_pi0(study),
        "pounds_hat": pounds_hat_pi0(study),
        "benjamini": benjamini_pi0(study) if m > 1 else None,
    }
    assert list(estimates) == list(sim.PI0_METHODS)
    # level by level, as the transcription yields them
    got = [
        (name, (lam_, eps_, pi0[0]), alpha, t[a, 0], fdr[a, 0], count[a, 0])
        for a, alpha in enumerate(alphas)
        for name, outcome in zip(sim.PROCEDURES, outcomes)
        if outcome is not None
        for (lam_, eps_, pi0), t, fdr, count in [outcome]
    ]
    expected = list(
        oracles.procedure_results(study, sim.PROCEDURES, alphas, lam, eps)
    )
    assert len(got) == len(expected) == len(alphas) * (5 if m > 1 else 4)
    for (*row, t, fdr, count), (e_name, e_cells, e_alpha, e_res) in zip(got, expected):
        assert tuple(row) == (e_name, e_cells, e_alpha)
        assert np.array_equal(t, e_res.t_alpha)
        assert np.array_equal(fdr, e_res.fdr_at_t, equal_nan=True)
        assert count == e_res.rejections == e_res.rejected.shape[0]


def _assert_block_rows_match_oracles(study, rows, truth, alphas, lam, eps):
    """``sim.evaluate_block`` on ``rows`` studies pooled in ``study`` gives,
    row by row, bitwise the estimates of ``oracles.pi0_loop`` and the
    results of ``oracles.procedure_results`` on that row's study alone,
    and its thresholds give the oracle results' false discovery
    proportions."""
    m = study.m // rows
    methods = sim.PI0_METHODS if m > 1 else sim.PI0_METHODS[:-1]
    estimates, outcomes = sim.evaluate_block(
        study, rows, sim.PI0_METHODS, sim.PROCEDURES, alphas, lam, eps
    )
    pvalues = study.pvalues.reshape(rows, m)
    for r in range(rows):
        part = study.support_index[r * m : (r + 1) * m]
        alone = Study.from_distinct(
            pvalues[r], study.support_flat, study.support_start[part],
            study.support_len[part], truth=truth,
        )
        for name in methods:
            want = oracles.pi0_loop(alone, name, lam, eps)
            got = tuple(float(x[r]) for x in estimates[name])
            assert np.array_equal(got, want), (r, name, got, want)
        if m == 1:
            assert estimates["benjamini"] is None
        expected = oracles.procedure_results(alone, sim.PROCEDURES, alphas, lam, eps)
        for name, cells, alpha, res in expected:
            j, a = sim.PROCEDURES.index(name), alphas.index(alpha)
            got_cells, t, fdr, count = outcomes[j]
            assert got_cells[:2] == cells[:2]
            assert got_cells[2][r] == cells[2]
            assert t[a, r].tobytes() == np.float64(res.t_alpha).tobytes()
            assert fdr[a, r].tobytes() == np.float64(res.fdr_at_t).tobytes()
            assert count[a, r] == res.rejections
            assert np.array_equal(np.flatnonzero(pvalues[r] <= t[a, r]), res.rejected)
            fdp = sim.false_discovery_rows(
                pvalues[r : r + 1], truth, t[a, r : r + 1], count[a, r : r + 1]
            )
            assert fdp[0] == false_discovery_proportion(alone, res)
        if m == 1:
            assert outcomes[sim.PROCEDURES.index("adaptive_bh")] is None


@pytest.mark.parametrize("reps, m", [(1, 40), (6, 1), (5, 40)])
@pytest.mark.parametrize("kind", ["poisson_bin", "binomial_fet", "negbinom_ent"])
def test_block_rows_match_per_study_oracles(kind, reps, m):
    """A chunk of generated studies evaluated as one block matches the
    one-study oracles row by row, at levels 0 and 1 too."""
    spec = _spec(kind=kind, m=m, reps=reps, pi0=0.6, seed=23)
    study = sim._chunk_study(spec, range(reps))
    alphas = (0.0, 0.01, 0.05, 0.2, 1.0)
    _assert_block_rows_match_oracles(study, reps, sim._truth(spec), alphas, 0.4, 0.7)


#: The instance where the count-3 interval's candidate cannot be nudged
#: down inside its interval (``test_fdr``): the storey estimator at this
#: multiplier and level 0.1 falls back to the count-2 interval.
_FALLBACK = np.array([0.001, 0.001, 0.024237635727728784] + [1.0] * 20)
_FALLBACK_MULT = 0.5381497769581267


def _edge_rows(rng):
    """Rows of 23 p-values: the fallback instance, heavy ties, all ones,
    all below 0.5 (so the exceedance estimates and multipliers are 0),
    and continuous values."""
    levels = np.array([0.004, 0.03, 0.5, 1.0])
    return np.stack([
        _FALLBACK,
        rng.choice(levels, size=23),
        np.ones(23),
        np.full(23, 0.004),
        rng.uniform(1e-6, 1.0, size=23),
    ])


def test_block_rows_match_oracles_on_edge_rows():
    """Heavy ties, all p-values 1 and a row whose multipliers are 0,
    stacked with ordinary rows, match the one-study oracles row by row
    through the whole block evaluation."""
    rng = np.random.default_rng(41)
    rows = _edge_rows(rng)
    empty = np.empty(0)
    supports = [empty] * rows.size
    supports[::3] = [np.array([0.004, 0.2, 0.5, 1.0])] * len(supports[::3])
    study = Study(rows.ravel(), supports)
    truth = np.arange(23) < 15
    for lam, eps in ((0.5, 1.0), (0.2, 0.3)):
        _assert_block_rows_match_oracles(
            study, rows.shape[0], truth, (0.0, 0.05, 0.1, 1.0), lam, eps
        )


@pytest.mark.parametrize("kind", ["storey", "storey_variant", "generalized"])
def test_row_solvers_match_oracles_when_a_nudge_fails(kind):
    """The fallback instance, stacked with ordinary rows and with rows
    whose multipliers are 0 and negative, gives each row the one-study
    threshold and step-up results: a failed descent moves that row alone
    to its next feasible interval."""
    from discretefdr import FdrEstimator, Pi0Estimate
    from discretefdr.fdr import PValueBlock, solve_thresholds, step_up

    rng = np.random.default_rng(42)
    rows = _edge_rows(rng)
    block = PValueBlock(rows)
    ests = [
        FdrEstimator(kind, Pi0Estimate(kind, raw, min(1.0, max(0.0, raw))), lam=0.5)
        for raw in (_FALLBACK_MULT, 0.7, 1.2, 0.0, -0.1)
    ]
    mult = np.array([est.multiplier(23) for est in ests])
    for alpha in (0.0, 0.1, float(rng.uniform()), 1.0):
        t, value, count = solve_thresholds(block, kind, mult, 0.5, alpha)
        levels = rng.uniform(0.0, 1.0, rows.shape[0])
        cut, k = step_up(block, levels)
        for r, est in enumerate(ests):
            want = oracles.threshold_loop(est, build_rejection_process(rows[r]), alpha)
            assert t[r].tobytes() == np.float64(want.t_alpha).tobytes()
            assert value[r].tobytes() == np.float64(want.fdr_at_t).tobytes()
            assert count[r] == want.rejections
            bh = oracles.bh_sorted(rows[r], levels[r])
            assert (cut[r], k[r]) == (bh.t_alpha, bh.rejections)
        if kind == "storey" and alpha == 0.1:
            assert count[0] == 2  # fell back from the count-3 interval


@pytest.mark.parametrize("kind", sorted(fdr.PROCEDURES))
def test_solving_all_levels_at_once_matches_a_call_per_level(kind):
    """``solve_thresholds`` at several levels (ties, repeats, 0 and 1)
    gives each level the bits of a call at that level alone, on rows
    with heavy ties, all p-values 1, the failed-nudge instance and, for
    the estimators, multipliers of 0 and below."""
    rng = np.random.default_rng(44)
    block = fdr.PValueBlock(_edge_rows(rng))
    mult = np.array([_FALLBACK_MULT, 0.7, 1.2, 0.0, -0.1])
    if fdr.PROCEDURES[kind][3] == "step":
        mult = np.array([_FALLBACK_MULT, 0.7, 1.2, 1e-3, 1.0])
    alphas = [0.1, 0.0, 0.05, float(rng.uniform()), 1.0, 0.1, 0.5]
    got = fdr.solve_thresholds(block, kind, mult, 0.5, alphas)
    for a, alpha in enumerate(alphas):
        want = fdr.solve_thresholds(block, kind, mult, 0.5, alpha)
        for g, w in zip(got, want, strict=True):
            assert g.shape == (len(alphas), 5) and g.dtype == w.dtype
            assert g[a].tobytes() == w.tobytes(), (kind, alpha)
    if fdr.PROCEDURES[kind][3] == "step":
        levels = np.minimum(1.0, np.array(alphas)[:, None] / mult)
        cut, k = fdr.step_up(block, levels)
        for a in range(len(alphas)):
            one_cut, one_k = fdr.step_up(block, levels[a])
            assert cut[a].tobytes() == one_cut.tobytes() and np.array_equal(k[a], one_k)
        with pytest.raises(ValueError, match="pi0 estimate is zero"):
            fdr.solve_thresholds(block, kind, mult * 0.0, 0.5, alphas)
    with pytest.raises(ValueError, match=r"alpha must lie in \[0, 1\]"):
        fdr.solve_thresholds(block, kind, mult, 0.5, [0.1, 1.5])


@pytest.mark.parametrize("bad", [np.nan, 0.0])
def test_block_refuses_a_row_with_a_pvalue_outside_the_unit_interval(bad):
    rows = _edge_rows(np.random.default_rng(43))
    rows[2, 7] = bad
    study = Study(rows.ravel(), [np.empty(0)] * rows.size)
    with pytest.raises(ValueError, match=r"p-values must lie in \(0, 1\]"):
        sim.evaluate_block(study, rows.shape[0], ("storey",), ("bh",), (0.05,), 0.5, 1.0)


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
    with pytest.raises(ValueError, match="unknown pi0 method 'bogus'"):
        compute_pi0(generate_scenario(spec, 0), "bogus", 0.5, 1.0)


def test_each_study_builds_one_process_and_each_estimate_once(monkeypatch):
    """With the full roster, every chunk of studies builds one p-value
    block, computes each estimate once for all its studies and solves
    each (procedure, level) pair once, whatever the procedures and
    levels that share them: one ``solve_thresholds`` call per procedure,
    at every level at once, of which the step-up procedures run
    ``step_up`` once each."""
    from discretefdr import estimators as table, fdr, sim

    calls = []

    def counting(name, module=sim):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        return wrapper

    estimators = (
        "storey_rows", "adjusted_rows", "pounds_tilde_rows",
        "pounds_hat_rows", "benjamini_rows",
    )
    for name in ("PValueBlock", "solve_thresholds"):
        monkeypatch.setattr(sim, name, counting(name))
    # the solver looks the step-up procedure up in its module
    monkeypatch.setattr(fdr, "step_up", counting("step_up", fdr))
    # the estimator table looks the row-wise estimators up in its module
    for name in estimators:
        monkeypatch.setattr(table, name, counting(name, table))
    monkeypatch.setattr(sim, "_CHUNK_FEATURES", 100)

    alphas = (0.05, 0.1, 0.2)
    spec = _spec(reps=4, m=40, alpha_levels=alphas)
    out = run_replications(
        spec, pi0_methods=sim.PI0_METHODS, procedures=sim.PROCEDURES
    )
    assert out.thresholds.shape == (4, len(sim.PROCEDURES), 3)
    starts = [i for i, name in enumerate(calls) if name == "PValueBlock"]
    assert len(starts) == 2  # chunks of two replications
    for a, b in zip(starts, starts[1:] + [len(calls)]):
        names = calls[a + 1 : b]
        assert sorted(n for n in names if n in estimators) == sorted(estimators)
        assert names.count("solve_thresholds") == 5
        assert names.count("step_up") == 2


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


def test_bias_decomposition_truncation_guard(monkeypatch):
    """Bounds that leave more than 1e-6 of the mass beyond them are
    refused: a tail of 0.3 per group forces that."""
    monkeypatch.setattr(sim, "_TAIL", 0.3)
    spec = _spec(m=4, pi0=0.5, reps=1)
    with pytest.raises(ValueError, match="counts miss .* of the mass"):
        bias_decomposition(spec, lam=0.5, epsilon=1.0)


def test_bias_decomposition_truncation_guard_negbinom(monkeypatch):
    monkeypatch.setattr(sim, "_TAIL", 0.3)
    spec = _spec(kind="negbinom_ent", m=4, pi0=0.5, reps=1)
    with pytest.raises(ValueError, match="counts miss .* of the mass"):
        bias_decomposition(spec, lam=0.5, epsilon=1.0)


def test_bias_decomposition_refuses_counts_beyond_the_largest_total():
    """A valid spec may put a group's counts beyond the kernels' largest
    total: Poisson means of about 1e7 leave all their mass past it, so
    the count bounds are refused by name."""
    spec = ScenarioSpec(kind="poisson_bin", m=2, pi0=0.5, pareto_location=1e7)
    with pytest.raises(ValueError, match=(
        "a group's counts reach beyond the largest supported total "
        f"{_kernels.MAX_TOTAL}$"
    )):
        bias_decomposition(spec, lam=0.5, epsilon=1.0)


@pytest.mark.parametrize(
    "truncation, left", [(200, "1.995e-01"), (1000, "1.206e-06")]
)
def test_bias_decomposition_refuses_default_negbinom_effect_sizes(truncation, left):
    """The default Pareto(1.5, 1.426) effect sizes put more mass beyond a
    fixed bound on the total count, at 200 and at 1000, than the 1e-6
    guard allows, so such a bound would be refused; the bounds read off
    the count laws reach past it for that hypothesis and are not."""
    spec = ScenarioSpec(kind="negbinom_ent", m=30, pi0=0.8, seed=0)
    params = _draw_parameters(spec, _replication_rng(spec, 0))
    x = np.arange(truncation + 1)
    pmf1 = oracles.count_law(spec, params["theta1"][:, None]).pmf(x)
    cdf2 = oracles.count_law(spec, params["theta2"][:, None]).cdf(truncation - x)
    beyond = 1.0 - np.sum(pmf1 * cdf2, axis=1)
    worst = int(np.argmax(beyond))
    assert f"{beyond[worst]:.3e}" == left
    assert beyond[worst] > 1e-6
    dec = bias_decomposition(spec, lam=0.5, epsilon=1.0)
    assert dec.bounds[worst].sum() > truncation
    assert dec.mass_deficit <= 1e-6


def test_bias_decomposition_covers_default_negbinom_effect_sizes():
    """The default Pareto(1.5, 1.426) effect sizes are heavy-tailed; each
    hypothesis's bounds still cover all but 1e-6 of its mass."""
    spec = ScenarioSpec(kind="negbinom_ent", m=30, pi0=0.8, seed=0)
    dec = bias_decomposition(spec, lam=0.5, epsilon=1.0)
    assert dec.mass_deficit <= 1e-6
    assert dec.bounds.shape == (30, 2)
    # every bound is the smallest count of the form 2^k - 1 that leaves
    # at most the tail beyond it, and the group-2 counts of the false
    # nulls reach further than any true null's
    assert np.all((dec.bounds + 1) & dec.bounds == 0)
    params = _draw_parameters(spec, _replication_rng(spec, 0))
    for g, theta in enumerate((params["theta1"], params["theta2"])):
        tail = oracles.count_law(spec, theta).isf(sim._TAIL)
        assert np.all(dec.bounds[:, g] >= tail)
        assert np.all(dec.bounds[:, g] < 2 * tail + 1)
    assert dec.bounds[spec.m0 :, 1].max() > dec.bounds[: spec.m0].max()


#: Per family: parameters that keep each hypothesis's enumerated
#: rectangle small enough for the per-cell loop.
_ORACLE_SPECS = {
    "poisson_bin": dict(pareto_location=2.0, rho_high=3.0),
    "binomial_fet": {},
    "negbinom_ent": dict(mean_high=1.0, rho_shape=20.0),
}


@pytest.mark.parametrize("kind", sorted(_ORACLE_SPECS))
def test_bias_decomposition_matches_per_cell_oracle(kind):
    spec = _spec(kind=kind, m=6, pi0=0.5, reps=1, seed=5, **_ORACLE_SPECS[kind])
    truth = np.arange(spec.m) < spec.m0
    for lam, eps in ((0.0, 0.0), (0.3, 1.0), (0.6, 0.5)):
        dec = bias_decomposition(spec, lam, eps)
        cdf, null_cdf, mean_p, covered = oracles.bias_expectations_loop(
            spec, lam, dec.bounds
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
    """The package is numpy only: importing it, warming it up and the
    exact bias enumeration of the three default specs load no scipy
    module."""
    import os
    import subprocess
    import sys

    import discretefdr

    src = os.path.dirname(discretefdr.__path__[0])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = (
        "import sys, discretefdr\n"
        "from discretefdr.sim import ScenarioSpec, bias_decomposition\n"
        "discretefdr.warm_up()\n"
        "for kind in ('poisson_bin', 'binomial_fet', 'negbinom_ent'):\n"
        "    spec = ScenarioSpec(kind=kind, m=30, pi0=0.8, seed=0)\n"
        "    assert bias_decomposition(spec, 0.5, 1.0).mass_deficit <= 1e-6\n"
        "print(sorted(n for n in sys.modules if n.split('.')[0] == 'scipy'))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    assert out.stdout.strip() == "[]"


#: Specs whose count bounds must be those of scipy's tail: the three
#: defaults, odds capped at 1 (so probabilities of exactly 1), a small
#: dispersion, and means of exactly 0.
_BOUND_SPECS = [
    dict(kind="poisson_bin"),
    dict(kind="binomial_fet"),
    dict(kind="negbinom_ent"),
    dict(kind="binomial_fet", theta2_transform="cap", theta_high=0.95, rho_high=30.0),
    dict(kind="negbinom_ent", dispersion=0.2),
    dict(kind="negbinom_ent", mean_low=0.0, mean_high=0.0),
    dict(kind="negbinom_ent", mean_low=0.0, mean_high=3.0, dispersion=5.0),
    dict(kind="poisson_bin", pareto_location=0.01),
]


@pytest.mark.parametrize("params", _BOUND_SPECS)
def test_count_bounds_match_scipy_tail_bounds(params):
    spec = ScenarioSpec(m=30, pi0=0.8, seed=0, **params)
    drawn = _draw_parameters(spec, _replication_rng(spec, 0))
    trials = drawn.get("trials", np.zeros(spec.m, dtype=np.int64))
    for theta in (drawn["theta1"], drawn["theta2"]):
        got = sim._count_bounds(spec, theta, trials)
        assert np.array_equal(got, oracles.count_bounds(spec, theta, trials))
    if params.get("theta2_transform") == "cap":
        assert np.any(drawn["theta2"] == 1.0)


def test_count_bounds_match_scipy_on_a_grid_of_laws():
    means = np.array([0.0, 1e-9, 1e-3, 0.1, 0.5, 1.0, 2.5, 7.0, 31.0, 250.0, 4000.0])
    for kind, extra in (
        ("poisson_bin", {}),
        ("negbinom_ent", {}),
        ("negbinom_ent", dict(dispersion=0.01)),
        ("negbinom_ent", dict(dispersion=40.0, reps_per_group=1)),
    ):
        spec = _spec(kind=kind, **extra)
        got = sim._count_bounds(spec, means, np.zeros(means.shape[0], np.int64))
        assert np.array_equal(got, oracles.count_bounds(spec, means))


def _pmf_grid(spec, theta, trials=None, top=400):
    x = np.arange(top + 1)
    t = np.zeros_like(theta, dtype=np.int64) if trials is None else trials
    return x, sim._count_pmf(spec, top)(theta[:, None], t[:, None], x)


def test_count_pmfs_match_scipy():
    """The numpy pmfs of each family agree with scipy's to 1e-12, at
    means of 0 and probabilities of 0 and 1 too, and for negative
    binomials on both sides of the coefficient's switch at shape 13.
    Beyond shape 1e3 scipy's negative-binomial pmf itself loses digits
    (4e-12 at shape 1e5 and mean 1e-3), so there the reference is the
    ratio of consecutive terms, as at every shape."""
    means = np.array([0.0, 1e-3, 0.5, 3.0, 30.0, 150.0])
    x, got = _pmf_grid(_spec(kind="poisson_bin"), means)
    assert np.max(np.abs(got - stats.poisson.pmf(x, means[:, None]))) <= 1e-12
    probs = np.array([0.0, 1e-3, 0.08, 0.5, 0.97, 1.0])
    for n in (0, 1, 7, 40, 400):
        trials = np.full(probs.shape[0], n)
        x, got = _pmf_grid(_spec(kind="binomial_fet"), probs, trials, top=n)
        want = stats.binom.pmf(x, n, probs[:, None])
        assert np.max(np.abs(got - want)) <= 1e-12
    for shape in (1e-3, 0.3, 2.067, 12.99, 13.0, 13.01, 40.0, 1e3, 1e5, 1e8):
        spec = _spec(kind="negbinom_ent", reps_per_group=1, dispersion=1.0 / shape)
        x, got = _pmf_grid(spec, means)
        if shape <= 1e3:
            want = oracles.count_law(spec, means[:, None]).pmf(x)
            assert np.max(np.abs(got - want)) <= 1e-12
        k = 1.0 / spec.dispersion
        want = [oracles.negbinom_pmf_loop(k, mean, x[-1]) for mean in means]
        assert np.max(np.abs(got - np.array(want))) <= 1e-12


@pytest.mark.parametrize("shape", [3e12, 1e15, 1e100, 1e305])
def test_negbinom_pmf_reaches_the_poisson_limit(shape):
    spec = _spec(kind="negbinom_ent", reps_per_group=1, dispersion=1.0 / shape)
    means = np.array([0.0, 1e-3, 0.5, 3.0, 30.0])
    x, got = _pmf_grid(spec, means)
    assert np.max(np.abs(got - stats.poisson.pmf(x, means[:, None]))) <= 1e-12
