"""Seeded simulation harness for the discrete-test estimators.

Three scenario families generate count data, run the matching exact
test on every hypothesis, and hand the resulting p-value profiles to
the estimators:

* ``poisson_bin``: Poisson counts per group, symmetric conditional
  binomial test. Group-1 means are Pareto(location, shape); false
  nulls scale the group-2 mean by a uniform factor.
* ``binomial_fet``: binomial counts with negative-binomial trial
  counts (shifted by an offset), hypergeometric test. False nulls
  scale the odds of success by a uniform factor; the scaled odds are
  mapped back to a probability by the configured transform.
* ``negbinom_ent``: negative-binomial counts, several samples per
  group, conditional group-sum test. Group-1 means come from a
  configuration file or a uniform range; false nulls scale the mean
  by a Pareto factor.

Reproducibility: replication ``r`` of a scenario draws everything from
the stream ``SeedSequence(seed, spawn_key=(r,))``. Within one
replication the draw order is fixed: scenario parameters first
(means, trials, effect factors, in that order), then group-1 counts,
then group-2 counts. ``run_replications`` draws the replications in
chunks of at most ``_CHUNK_FEATURES`` features (a replication wider than
that is a chunk of its own) and tests each chunk's pooled counts with
one batch-kernel call, which builds one null law per distinct
conditioning key of the chunk; each study is then cut out of the pooled
result. A key's law is built from that key alone, so a study is bitwise
the same whether its replication is tested alone
(``generate_scenario``) or pooled with others, and whatever the chunk
size. Only one chunk is tested and held at a time, so memory follows
the chunk size, not ``reps``.

The registry here is the one place that maps a name to an estimator
(the ``_ESTIMATORS`` table, behind ``PI0_METHODS`` and ``compute_pi0``)
or to a procedure (``evaluate_study``, which runs a roster of
``PROCEDURES`` on one study); the ``analyze`` and ``simulate`` commands
both dispatch through ``evaluate_study``.

``bias_decomposition`` computes the exact finite-sample biases of the
discreteness-adjusted estimator and the doubled-mean estimator for one
fixed parameter draw. It tests every count pair a hypothesis can show
(up to a truncation bound on the total for the Poisson and
negative-binomial families) with the same batch kernel as the
simulations, then weighs each pair by the two groups' count pmfs; those
pmfs are its only per-family code.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import _kernels
from .estimators import (
    Pi0Estimate,
    Study,
    benjamini_pi0,
    generalized_pi0,
    pounds_hat_pi0,
    pounds_tilde_pi0,
    storey_pi0,
)
from .fdr import (
    FdrEstimator,
    ThresholdResult,
    adaptive_bh,
    bh_procedure,
    build_rejection_process,
    threshold,
)

SCENARIO_KINDS = ("poisson_bin", "binomial_fet", "negbinom_ent")

ODDS_TRANSFORMS = ("odds", "cap")

#: Each estimator: its function of ``(study, lam, epsilon)`` and the
#: fewest p-values it is defined from. The functions look the estimators
#: up as module globals at call time.
_ESTIMATORS = {
    "storey": (lambda study, lam, eps: storey_pi0(study, lam), 1),
    "generalized": (lambda study, lam, eps: generalized_pi0(study, lam, eps), 1),
    "pounds_tilde": (lambda study, lam, eps: pounds_tilde_pi0(study), 1),
    "pounds_hat": (lambda study, lam, eps: pounds_hat_pi0(study), 1),
    "benjamini": (lambda study, lam, eps: benjamini_pi0(study), 2),
}
DEFAULT_PI0_METHODS = ("storey", "generalized", "pounds_tilde", "benjamini")
PI0_METHODS = tuple(_ESTIMATORS)

#: Each procedure and the estimate it runs on (None: the plain step-up
#: procedure runs on none).
PROCEDURE_ESTIMATES = {
    "generalized": "generalized",
    "storey": "storey",
    "storey_variant": "storey",
    "bh": None,
    "adaptive_bh": "benjamini",
}
DEFAULT_PROCEDURES = ("generalized", "storey", "bh", "adaptive_bh")
PROCEDURES = tuple(PROCEDURE_ESTIMATES)


@dataclass(frozen=True)
class ScenarioSpec:
    """Full description of one simulation scenario.

    ``alpha_levels`` are the nominal FDR levels evaluated per
    replication; ``reps`` is the replication count; ``seed`` the base
    seed. Scenario-specific parameters default to the standard setup
    of each family. ``theta2_transform`` selects how a scaled odds
    value is mapped back to a probability in the ``binomial_fet``
    family: ``odds`` re-inverts the odds (``q / (1 + q)``), ``cap``
    truncates at 1. The choice is deliberately explicit because the
    scaled odds can exceed 1.
    """

    kind: str
    m: int
    pi0: float
    alpha_levels: tuple[float, ...] = (0.05, 0.1)
    reps: int = 50
    seed: int = 0
    # poisson_bin
    pareto_location: float = 7.0
    pareto_shape: float = 7.0
    # shared effect-size range (uniform); defaults depend on kind
    rho_low: float | None = None
    rho_high: float | None = None
    # binomial_fet
    trials_size: float = 3.0
    trials_mean: float = 8.0
    trials_offset: int = 2
    theta_low: float = 0.08
    theta_high: float = 0.65
    theta2_transform: str = "odds"
    # negbinom_ent
    dispersion: float = 1.451
    reps_per_group: int = 3
    mean_low: float = 0.5
    mean_high: float = 8.0
    mean_file: str | None = None
    # negbinom_ent effect size is Pareto, not uniform
    rho_location: float = 1.5
    rho_shape: float = 1.426

    def __post_init__(self) -> None:
        if self.kind not in SCENARIO_KINDS:
            raise ValueError(
                f"unknown scenario kind {self.kind!r}; "
                f"choose from {SCENARIO_KINDS}"
            )
        if self.m < 1:
            raise ValueError("m must be at least 1")
        if not 0.0 < self.pi0 < 1.0:
            raise ValueError("pi0 must lie in (0, 1)")
        if self.reps < 1:
            raise ValueError("reps must be at least 1")
        if not self.dispersion > 0.0:
            raise ValueError("dispersion must be positive")
        if self.reps_per_group < 1:
            raise ValueError("reps_per_group must be at least 1")
        if self.theta2_transform not in ODDS_TRANSFORMS:
            raise ValueError(
                f"unknown theta2_transform {self.theta2_transform!r}; "
                f"choose from {ODDS_TRANSFORMS}"
            )
        if self.rho_low is None:
            object.__setattr__(
                self, "rho_low", 1.5 if self.kind != "negbinom_ent" else None
            )
        if self.rho_high is None:
            high = {"poisson_bin": 5.0, "binomial_fet": 13.0}.get(self.kind)
            object.__setattr__(self, "rho_high", high)

    @property
    def m0(self) -> int:
        return int(round(self.pi0 * self.m))


def _pareto(rng: np.random.Generator, location: float, shape: float, size: int):
    return location * (1.0 + rng.pareto(shape, size))


def _mean_file_values(spec: ScenarioSpec, data: bytes | None = None) -> np.ndarray:
    """The first ``m`` group-1 means of ``spec.mean_file``, parsed from
    ``data`` (the file's bytes) when given, else read from the file."""
    source = spec.mean_file if data is None else io.BytesIO(data)
    loaded = np.loadtxt(source, dtype=np.float64, ndmin=1)
    if loaded.shape[0] < spec.m:
        raise ValueError(
            f"mean file provides {loaded.shape[0]} values, need {spec.m}"
        )
    return loaded[: spec.m]


def _draw_parameters(
    spec: ScenarioSpec,
    rng: np.random.Generator,
    means: np.ndarray | None = None,
) -> dict:
    """Draw one replication's scenario parameters, in documented order.

    ``means`` are the mean file's values when the caller has read them
    already; otherwise a ``negbinom_ent`` spec with a mean file reads it.
    """
    m, m0 = spec.m, spec.m0
    m1 = m - m0
    if spec.kind == "poisson_bin":
        theta1 = _pareto(rng, spec.pareto_location, spec.pareto_shape, m)
        rho = rng.uniform(spec.rho_low, spec.rho_high, m1)
        theta2 = theta1.copy()
        theta2[m0:] = rho * theta1[m0:]
        return {"theta1": theta1, "theta2": theta2}
    if spec.kind == "binomial_fet":
        p_trials = spec.trials_size / (spec.trials_size + spec.trials_mean)
        trials = rng.negative_binomial(spec.trials_size, p_trials, m)
        trials = trials + spec.trials_offset
        theta1 = rng.uniform(spec.theta_low, spec.theta_high, m)
        rho = rng.uniform(spec.rho_low, spec.rho_high, m1)
        odds = rho * theta1[m0:] / (1.0 - theta1[m0:])
        if spec.theta2_transform == "odds":
            shifted = odds / (1.0 + odds)
        else:
            shifted = np.minimum(1.0, odds)
        theta2 = theta1.copy()
        theta2[m0:] = shifted
        return {"theta1": theta1, "theta2": theta2, "trials": trials}
    # negbinom_ent
    if spec.mean_file is not None:
        theta1 = _mean_file_values(spec) if means is None else means
    else:
        theta1 = rng.uniform(spec.mean_low, spec.mean_high, m)
    rho = _pareto(rng, spec.rho_location, spec.rho_shape, m1)
    theta2 = theta1.copy()
    theta2[m0:] = rho * theta1[m0:]
    return {"theta1": theta1, "theta2": theta2}


def _replication_rng(spec: ScenarioSpec, rep_index: int) -> np.random.Generator:
    return np.random.default_rng(
        np.random.SeedSequence(spec.seed, spawn_key=(rep_index,))
    )


#: Most features :func:`run_replications` tests in one kernel call, and
#: most pmf entries per group :func:`bias_decomposition` holds at a time.
_CHUNK_FEATURES = 1 << 16


def _draw_counts(
    spec: ScenarioSpec, rep_index: int, means: np.ndarray | None = None
) -> tuple[np.ndarray, ...]:
    """One replication's count columns, drawn in documented order:
    ``(x1, x2)`` for ``poisson_bin``, ``(x1, trials, x2)`` for
    ``binomial_fet`` and the group sums ``(s1, s2)`` for
    ``negbinom_ent``."""
    rng = _replication_rng(spec, rep_index)
    params = _draw_parameters(spec, rng, means)
    if spec.kind == "poisson_bin":
        x1 = rng.poisson(params["theta1"])
        x2 = rng.poisson(params["theta2"])
        return x1.astype(np.int64), x2.astype(np.int64)
    if spec.kind == "binomial_fet":
        trials = params["trials"].astype(np.int64)
        x1 = rng.binomial(trials, params["theta1"])
        x2 = rng.binomial(trials, params["theta2"])
        return x1.astype(np.int64), trials, x2.astype(np.int64)
    sigma = 1.0 / spec.dispersion
    k = spec.reps_per_group
    p1 = sigma / (sigma + params["theta1"])
    p2 = sigma / (sigma + params["theta2"])
    s1 = rng.negative_binomial(sigma, p1, size=(k, spec.m)).sum(axis=0)
    s2 = rng.negative_binomial(sigma, p2, size=(k, spec.m)).sum(axis=0)
    return s1.astype(np.int64), s2.astype(np.int64)


def _test(spec: ScenarioSpec, columns) -> tuple[np.ndarray, ...]:
    """Test count columns, laid out as :func:`_draw_counts` returns them,
    with the family's batch kernel; returns the kernel's 4-tuple."""
    if spec.kind == "poisson_bin":
        return _kernels.batch_binomial(*columns)
    if spec.kind == "binomial_fet":
        x1, trials, x2 = columns
        return _kernels.batch_fisher(x1, trials, x2, trials)
    sigma = 1.0 / spec.dispersion
    return _kernels.batch_negbinom(*columns, spec.reps_per_group * sigma)


def _generate(spec: ScenarioSpec, reps: range, means: np.ndarray | None = None):
    """Yield the studies of replications ``reps``, tested in one kernel call.

    The replications' counts are concatenated and tested together; each
    study is cut out of the pooled result, so only the pooled arrays and
    the study being used are held at once.
    """
    columns = [
        np.concatenate(column)
        for column in zip(*(_draw_counts(spec, r, means) for r in reps))
    ]
    pvalues, flat, start, length = _test(spec, columns)
    truth = np.zeros(spec.m, dtype=bool)
    truth[: spec.m0] = True
    for i in range(len(reps)):
        rows = slice(i * spec.m, (i + 1) * spec.m)
        yield Study.from_distinct(
            pvalues[rows], flat, start[rows], length[rows], truth=truth
        )


def generate_scenario(spec: ScenarioSpec, rep_index: int) -> Study:
    """Generate one replication: counts, exact tests, truth labels.

    The same ``(spec, rep_index)`` always produces the identical
    study. The first ``m0 = round(pi0 * m)`` hypotheses are the true
    nulls.
    """
    (study,) = _generate(spec, range(rep_index, rep_index + 1))
    return study


def _check_name(name: str, known: tuple[str, ...], what: str) -> None:
    if name not in known:
        raise ValueError(f"unknown {what} {name!r}; choose from {known}")


def compute_pi0(
    study: Study, method: str, lam: float, epsilon: float
) -> Pi0Estimate:
    """Dispatch one named estimator of the proportion of true nulls."""
    return _ESTIMATORS[method][0](study, lam, epsilon)


def evaluate_study(
    study: Study,
    methods: Sequence[str],
    procedures: Sequence[str],
    alphas: Sequence[float],
    lam: float,
    epsilon: float,
) -> tuple[dict[str, Pi0Estimate | None], list[tuple | None]]:
    """The named estimates of one study and its procedures' results.

    Each estimate in ``methods`` or run on by a procedure is computed
    once; one the study has too few p-values for (the median estimator
    needs two) is None. The procedures share one rejection process. A
    procedure gives None when its estimate is None, else ``(cells,
    results)``: ``results[a]`` is its result at ``alphas[a]``, and
    ``cells`` the ``lambda``, ``epsilon`` and ``pi0`` it runs with.
    ``pi0`` multiplies the level: the clipped adjusted estimate for
    ``generalized``, the raw exceedance estimate for ``storey`` (plus the
    variant's offset for ``storey_variant``), 1 for ``bh`` and the median
    estimate for ``adaptive_bh``. The step-up procedures have no
    ``lambda`` or ``epsilon``; the exceedance procedures run at
    ``epsilon`` 0. Callers check the names, once per roster.
    """
    used = set(methods) | {PROCEDURE_ESTIMATES[name] for name in procedures}
    estimates = {
        name: estimate(study, lam, epsilon) if study.m >= fewest else None
        for name, (estimate, fewest) in _ESTIMATORS.items()
        if name in used
    }
    proc = build_rejection_process(study.pvalues)
    outcomes: list[tuple | None] = []
    for name in procedures:
        pi0 = estimates.get(PROCEDURE_ESTIMATES[name])
        if name == "bh":
            cells = (None, None, 1.0)
            results = [bh_procedure(proc, alpha) for alpha in alphas]
        elif pi0 is None:
            outcomes.append(None)
            continue
        elif name == "adaptive_bh":
            cells = (None, None, pi0.value)
            results = [adaptive_bh(proc, alpha, pi0) for alpha in alphas]
        else:
            est = FdrEstimator(name, pi0, lam=pi0.lam)
            eps = 0.0 if pi0.epsilon is None else pi0.epsilon
            cells = (pi0.lam, eps, est.multiplier(proc.m))
            results = [threshold(est, proc, alpha) for alpha in alphas]
        outcomes.append((cells, results))
    return estimates, outcomes


def false_discovery_proportion(study: Study, result: ThresholdResult) -> float:
    """Realized fraction of rejected true nulls; 1 when nothing is rejected."""
    if study.truth is None:
        raise ValueError("false discovery proportion needs truth labels")
    if result.rejections == 0:
        return 1.0
    v = int(np.count_nonzero(study.truth[result.rejected]))
    return v / result.rejections


@dataclass
class ReplicationSummary:
    """Per-replication samples and their aggregate.

    ``pi0_estimates``/``excess`` have shape (reps, n_pi0_methods);
    ``thresholds``/``rejections``/``fdp`` have shape
    (reps, n_procedures, n_alpha). When ``reps`` is 1, sample standard
    deviations are undefined; they are reported as 0 and
    ``degenerate_sd`` is set.
    """

    spec: ScenarioSpec
    pi0_methods: tuple[str, ...]
    procedures: tuple[str, ...]
    pi0_estimates: np.ndarray
    excess: np.ndarray
    thresholds: np.ndarray
    rejections: np.ndarray
    fdp: np.ndarray
    degenerate_sd: bool = field(init=False)

    def __post_init__(self) -> None:
        self.degenerate_sd = self.spec.reps == 1

    def _sd(self, samples: np.ndarray) -> np.ndarray:
        if self.degenerate_sd:
            return np.zeros(samples.shape[1:])
        return samples.std(axis=0, ddof=1)

    def aggregate(self) -> dict:
        """JSON-ready aggregate: means, sds and standard errors."""
        root_reps = math.sqrt(self.spec.reps)
        excess_mean = self.excess.mean(axis=0)
        excess_sd = self._sd(self.excess)
        excess_se = excess_sd / root_reps
        est_mean = self.pi0_estimates.mean(axis=0)
        agg: dict = {
            "kind": self.spec.kind,
            "m": self.spec.m,
            "pi0": self.spec.pi0,
            "reps": self.spec.reps,
            "seed": self.spec.seed,
            "degenerate_sd": self.degenerate_sd,
            "pi0_estimators": {},
            "procedures": {},
        }
        for j, name in enumerate(self.pi0_methods):
            agg["pi0_estimators"][name] = {
                "mean_estimate": float(est_mean[j]),
                "mean_excess": float(excess_mean[j]),
                "sd_excess": float(excess_sd[j]),
                "se_excess": float(excess_se[j]),
            }
        fdp_mean = self.fdp.mean(axis=0)
        fdp_sd = self._sd(self.fdp)
        fdp_se = fdp_sd / root_reps
        for j, name in enumerate(self.procedures):
            per_alpha = {}
            for a, alpha in enumerate(self.spec.alpha_levels):
                per_alpha[f"{alpha:.9g}"] = {
                    "mean_fdp": float(fdp_mean[j, a]),
                    "sd_fdp": float(fdp_sd[j, a]),
                    "se_fdp": float(fdp_se[j, a]),
                    "mean_rejections": float(
                        self.rejections[:, j, a].mean()
                    ),
                    "mean_threshold": float(
                        self.thresholds[:, j, a].mean()
                    ),
                }
            agg["procedures"][name] = per_alpha
        return agg


def run_replications(
    spec: ScenarioSpec,
    pi0_methods: Sequence[str] = DEFAULT_PI0_METHODS,
    procedures: Sequence[str] = DEFAULT_PROCEDURES,
    lam: float = 0.5,
    epsilon: float = 1.0,
    mean_data: bytes | None = None,
) -> ReplicationSummary:
    """Run all replications of a scenario and collect the samples.

    Per replication: every named estimator of the true-null
    proportion, and every named procedure at every nominal level with
    its threshold, rejection count and realized false discovery
    proportion. Each study's estimates are computed once and its
    procedures share one rejection process (:func:`evaluate_study`).
    Roster names are checked here, before any study is generated.
    The replications are tested in pooled chunks (see the module
    docstring); results are deterministic functions of
    ``(spec, rep_index)``, the same as :func:`generate_scenario` gives.
    A ``negbinom_ent`` spec's mean file is read once per run, parsed
    from ``mean_data`` (the file's bytes, as the caller read them) when
    given.
    """
    pi0_methods = tuple(pi0_methods)
    procedures = tuple(procedures)
    if not pi0_methods and not procedures:
        raise ValueError("the method roster is empty")
    for name in pi0_methods:
        _check_name(name, PI0_METHODS, "pi0 method")
    for name in procedures:
        _check_name(name, PROCEDURES, "procedure")
    used = set(pi0_methods) | {PROCEDURE_ESTIMATES[name] for name in procedures}
    for name, (_, fewest) in _ESTIMATORS.items():
        if name in used and spec.m < fewest:
            raise ValueError(
                f"the {name} estimator needs at least {fewest} p-values; m = {spec.m}"
            )

    means = None
    if spec.kind == "negbinom_ent" and spec.mean_file is not None:
        means = _mean_file_values(spec, mean_data)
    reps = spec.reps
    alphas = spec.alpha_levels
    est = np.empty((reps, len(pi0_methods)))
    thr = np.empty((reps, len(procedures), len(alphas)))
    rej = np.empty((reps, len(procedures), len(alphas)), dtype=np.int64)
    fdp = np.empty((reps, len(procedures), len(alphas)))

    per_chunk = max(1, _CHUNK_FEATURES // spec.m)
    for first in range(0, reps, per_chunk):
        chunk = range(first, min(first + per_chunk, reps))
        for r, study in zip(chunk, _generate(spec, chunk, means)):
            estimates, outcomes = evaluate_study(
                study, pi0_methods, procedures, alphas, lam, epsilon
            )
            est[r] = [estimates[name].value for name in pi0_methods]
            for j, (_, results) in enumerate(outcomes):
                for a, res in enumerate(results):
                    thr[r, j, a] = res.t_alpha
                    rej[r, j, a] = res.rejections
                    fdp[r, j, a] = false_discovery_proportion(study, res)

    return ReplicationSummary(
        spec=spec,
        pi0_methods=pi0_methods,
        procedures=procedures,
        pi0_estimates=est,
        excess=est - spec.pi0,
        thresholds=thr,
        rejections=rej,
        fdp=fdp,
    )


# ---------------------------------------------------------------------------
# exact bias decomposition by enumeration
# ---------------------------------------------------------------------------


def generalized_bias_from_expectations(
    cdf_at_lambda: np.ndarray,
    null_cdf_at_lambda: np.ndarray,
    lam: float,
    epsilon: float,
    pi0: float,
) -> float:
    """Exact bias of the discreteness-adjusted estimator.

    ``cdf_at_lambda`` holds P(p_i <= lambda) under each hypothesis's
    actual data law; ``null_cdf_at_lambda`` holds the expectation of
    the largest null support element at most ``lambda`` (for a
    continuous uniform null this is ``lambda`` itself, making the
    adjustment vanish).
    """
    cdf = np.asarray(cdf_at_lambda, dtype=np.float64)
    null_cdf = np.asarray(null_cdf_at_lambda, dtype=np.float64)
    m = cdf.shape[0]
    lead = (1.0 - epsilon * lam) / (1.0 - lam)
    mid = float(np.sum(cdf - epsilon * null_cdf)) / ((1.0 - lam) * m)
    return lead - mid - pi0


def pounds_bias_from_expectations(
    mean_pvalue: np.ndarray, truth: np.ndarray
) -> float:
    """Exact bias of the doubled-mean estimator (uncapped form)."""
    mean_p = np.asarray(mean_pvalue, dtype=np.float64)
    truth = np.asarray(truth, dtype=bool)
    m = mean_p.shape[0]
    null_part = float(np.sum(mean_p[truth] - 0.5))
    alt_part = float(np.sum(mean_p[~truth]))
    return 2.0 / m * (null_part + alt_part)


@dataclass(frozen=True)
class BiasDecomposition:
    """Exact per-scenario biases plus their per-hypothesis inputs."""

    generalized_bias: float
    pounds_bias: float
    cdf_at_lambda: np.ndarray
    null_cdf_at_lambda: np.ndarray
    mean_pvalue: np.ndarray
    mass_deficit: float
    pi0: float
    lam: float
    epsilon: float


def _count_pmf(spec: ScenarioSpec, theta: np.ndarray, r: int) -> np.ndarray:
    """Per group mean (or success probability) ``theta``, the count pmf
    over ``0..r``: Poisson, binomial with ``r`` trials, or the group
    sum's negative binomial with shape ``reps_per_group / dispersion``."""
    from scipy import stats

    x, theta = np.arange(r + 1), theta[:, None]
    if spec.kind == "poisson_bin":
        return stats.poisson.pmf(x, theta)
    if spec.kind == "binomial_fet":
        return stats.binom.pmf(x, r, theta)
    shape = spec.reps_per_group * (1.0 / spec.dispersion)
    mean = spec.reps_per_group * theta
    return stats.nbinom.pmf(x, shape, shape / (shape + mean))


def bias_decomposition(
    spec: ScenarioSpec,
    lam: float,
    epsilon: float,
    truncation: int = 200,
    rep_index: int = 0,
) -> BiasDecomposition:
    """Exact biases for one fixed parameter draw of a scenario.

    The scenario parameters are the ones replication ``rep_index``
    would use, drawn once; no counts are sampled. Every count pair
    ``(x1, x2)`` is enumerated once: ``x1 + x2 <= truncation`` for
    ``poisson_bin`` and ``negbinom_ent``, ``0..r`` by ``0..r`` per
    distinct trials count ``r`` for ``binomial_fet``. The pairs are
    tested in one batch-kernel call, and each hypothesis's expectations
    are bilinear forms ``pmf1 . G . pmf2`` of its two groups' count
    pmfs, with ``G`` the grid of ``1{p <= lambda}``, of the support
    floor at ``lambda`` or of ``p``. The mass the pairs cover,
    ``pmf1 . 1 . pmf2``, gives the truncation deficit: if more than
    1e-6 of probability mass lies beyond the bound, a
    :class:`ValueError` asks for a larger bound. The default bound does
    not cover ``negbinom_ent`` at its default Pareto(1.5, 1.426) effect
    sizes: for ``m = 30, pi0 = 0.8, seed = 0`` at ``lam = 0.5``, 200
    leaves 0.1995 of the mass uncovered and 1000 still 1.2e-6.
    """
    if not 0.0 <= lam < 1.0:
        raise ValueError("lambda must lie in [0, 1)")
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError("epsilon must lie in [0, 1]")

    params = _draw_parameters(spec, _replication_rng(spec, rep_index))
    m, m0 = spec.m, spec.m0
    truth = np.zeros(m, dtype=bool)
    truth[:m0] = True

    # the hypotheses with trials r share one (r + 1) x (r + 1) grid of
    # count pairs (under a truncation r, all of them); a mask keeps the pairs tested
    fet = spec.kind == "binomial_fet"
    trials = params["trials"] if fet else np.full(m, truncation)
    sizes = np.unique(trials).tolist()
    counts = [np.arange(r + 1) for r in sizes]
    masks = [np.add.outer(x, x) <= (2 * x[-1] if fet else x[-1]) for x in counts]
    x1, x2 = (np.concatenate(v) for v in zip(*map(np.nonzero, masks)))
    pair_trials = np.repeat(sizes, [int(mask.sum()) for mask in masks])
    out = _test(spec, (x1, pair_trials, x2) if fet else (x1, x2))
    pvalues, floor = out[0], Study.from_distinct(*out).support_floor(lam)
    # per pair: 1 (the mass covered), 1{p <= lam}, support floor, p
    values = np.stack((np.ones_like(pvalues), pvalues <= lam, floor, pvalues))

    expectations = np.empty((4, m))
    for r, mask in zip(sizes, masks):
        grids = np.zeros((4, r + 1, r + 1))
        grids[:, mask] = values[:, : mask.sum()]
        values = values[:, mask.sum() :]
        rows = np.flatnonzero(trials == r)
        step = max(1, _CHUNK_FEATURES // (r + 1))
        for a in range(0, rows.shape[0], step):
            part = rows[a : a + step]
            pmf1 = _count_pmf(spec, params["theta1"][part], r)
            pmf2 = _count_pmf(spec, params["theta2"][part], r)
            expectations[:, part] = np.sum((pmf1 @ grids) * pmf2, axis=2)
    covered, cdf, null_cdf, mean_p = expectations
    deficit = max(0.0, float(np.max(1.0 - covered)))
    if deficit > 1e-6:
        raise ValueError(
            f"truncation {truncation} leaves {deficit:.3e} probability "
            "mass unaccounted; increase the bound"
        )

    true_pi0 = m0 / m
    return BiasDecomposition(
        generalized_bias=generalized_bias_from_expectations(
            cdf, null_cdf, lam, epsilon, true_pi0
        ),
        pounds_bias=pounds_bias_from_expectations(mean_p, truth),
        cdf_at_lambda=cdf,
        null_cdf_at_lambda=null_cdf,
        mean_pvalue=mean_p,
        mass_deficit=deficit,
        pi0=true_pi0,
        lam=lam,
        epsilon=epsilon,
    )
