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
replication the draw order is fixed: scenario parameters first (means,
trials, effect factors, in that order), then group-1 counts, then
group-2 counts. Both groups' counts come from one sampler call, which
numpy draws in C order, group 1's first: the stream of a call per group.
``run_replications`` draws the replications in chunks of at most
``_CHUNK_FEATURES`` features (a replication wider than that is a chunk
of its own), straight into the chunk's count columns, and tests them
with one batch-kernel call, which builds one null law per distinct
conditioning key of the chunk. The chunk is then evaluated as one block
(``evaluate_block``): one study holds all its hypotheses, its
replications x m p-values are checked and sorted once, row by row, each
estimate is computed once for all rows, and each procedure is one
row-wise solve at all levels. A key's law is built from that key alone,
and a row's reductions are bitwise those of the row alone, so a
replication's results are the same whether it is evaluated alone
(``generate_scenario``, then ``evaluate_block`` with one row) or pooled
with others, and whatever the chunk size. Only one chunk is tested and
held at a time, so memory follows the chunk size, not ``reps``.

The estimator table is ``estimators.ESTIMATORS``, whose names
``PI0_METHODS`` lists, and the procedure table is ``fdr.PROCEDURES``,
whose rows without a ``sigma`` setting ``PROCEDURES`` lists.
``evaluate_block`` runs a roster of them on a block of studies, reading
each estimate and each procedure off its table; ``simulate`` dispatches
each chunk through it and ``analyze`` its one study as the one-row case.

``bias_decomposition`` computes the exact finite-sample biases of the
discreteness-adjusted estimator and the doubled-mean estimator for one
fixed parameter draw. It tests each hypothesis's count pairs, up to
bounds read off its two groups' count laws, with the same batch kernel
as the simulations, and weighs them by those laws' pmfs.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import _kernels, fdr
from ._lgamma import log_factorials
from .estimators import ESTIMATORS, Study, _check_defined, _check_tuning, _clip01
from .fdr import PValueBlock, ThresholdResult, solve_thresholds

SCENARIO_KINDS = ("poisson_bin", "binomial_fet", "negbinom_ent")

ODDS_TRANSFORMS = ("odds", "cap")

DEFAULT_PI0_METHODS = ("storey", "generalized", "pounds_tilde", "benjamini")
PI0_METHODS = tuple(ESTIMATORS)

DEFAULT_PROCEDURES = ("generalized", "storey", "bh", "adaptive_bh")
#: The procedures a simulation can run: those that need no ``sigma``.
PROCEDURES = tuple(
    name for name, row in fdr.PROCEDURES.items() if "sigma" not in row[2]
)


#: The family parameters' ranges, as (names, test, the range in words):
#: the draws would refuse a value outside them in numpy's own terms.
_PARAMETER_RANGES = (
    (("mean_low", "mean_high"), lambda v: 0.0 <= v < math.inf,
     "a finite mean of at least 0"),
    (("pareto_location", "rho_location", "rho_low", "rho_high", "trials_mean"),
     lambda v: 0.0 <= v < math.inf, "a finite number of at least 0"),
    (("pareto_shape", "rho_shape", "trials_size"), lambda v: 0.0 < v < math.inf,
     "a finite positive number"),
    (("theta_low", "theta_high"), lambda v: 0.0 <= v <= 1.0, "a probability in [0, 1]"),
    (("trials_offset",), lambda v: v >= 0, "a count of at least 0"),
)


@dataclass(frozen=True)
class ScenarioSpec:
    """Full description of one simulation scenario.

    ``alpha_levels`` are the nominal FDR levels evaluated per
    replication: at least one, and no two alike at 9 significant digits,
    the precision of their ``aggregate`` keys. ``reps`` is the
    replication count; ``seed`` the base seed. Scenario-specific
    parameters default to the standard setup of each family.
    ``theta2_transform`` selects how a scaled odds value is mapped back
    to a probability in the ``binomial_fet`` family: ``odds`` re-inverts
    the odds (``q / (1 + q)``), ``cap`` truncates at 1. The choice is
    deliberately explicit because the scaled odds can exceed 1.
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
        if self.seed < 0:
            raise ValueError("seed must be at least 0")
        # aggregate() keys each level by its 9-significant-digit text
        keys = {f"{alpha:.9g}" for alpha in self.alpha_levels}
        if not keys:
            raise ValueError("alpha_levels is empty")
        if len(keys) < len(self.alpha_levels):
            raise ValueError(
                f"alpha_levels {list(self.alpha_levels)} repeat a level at "
                "9 significant digits"
            )
        if not self.dispersion > 0.0:
            raise ValueError("dispersion must be positive")
        if self.reps_per_group < 1:
            raise ValueError("reps_per_group must be at least 1")
        if not 0.0 < self.reps_per_group * (1.0 / self.dispersion) < math.inf:
            raise ValueError(
                f"dispersion {self.dispersion!r} gives the group sums a shape "
                "reps_per_group / dispersion that is not finite and positive"
            )
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
        for names, within, words in _PARAMETER_RANGES:
            for name in names:
                value = getattr(self, name)
                if value is not None and not within(value):
                    raise ValueError(f"{name} {value!r} is not {words}")
        for low, high in (("rho_low", "rho_high"), ("theta_low", "theta_high"),
                          ("mean_low", "mean_high")):
            a, b = getattr(self, low), getattr(self, high)
            if a is not None and a > b:
                raise ValueError(f"{low} {a!r} exceeds {high} {b!r}")

    @property
    def m0(self) -> int:
        return int(round(self.pi0 * self.m))


def _pareto(rng: np.random.Generator, location: float, shape: float, size: int):
    return location * (1.0 + rng.pareto(shape, size))


def _mean_file_values(spec: ScenarioSpec, data: bytes | None = None) -> np.ndarray:
    """The first ``m`` group-1 means of ``spec.mean_file``, parsed from
    ``data`` (the file's bytes) when given, else read from the file.

    Each must be finite and at least 0; the first that is not is named
    with its line (that of the file's ``k``-th value when the file holds
    one value a line, else the line holding them all)."""
    source = spec.mean_file if data is None else io.BytesIO(data)
    loaded = np.loadtxt(source, dtype=np.float64, ndmin=1)
    if loaded.shape[0] < spec.m:
        raise ValueError(
            f"mean file provides {loaded.shape[0]} values, need {spec.m}"
        )
    means = loaded[: spec.m]
    bad = np.flatnonzero(~((means >= 0.0) & (means < math.inf)))
    if bad.size:
        if data is None:
            with open(spec.mean_file, "rb") as fh:
                data = fh.read()
        # the lines loadtxt reads values from: not blank, not a comment
        lines = [
            n
            for n, text in enumerate(data.splitlines(), 1)
            if text.split(b"#")[0].strip()
        ]
        k = int(bad[0])
        line = lines[min(k, len(lines) - 1)]
        raise ValueError(
            f"mean file value {float(means[k])!r} on line {line} is not a "
            "finite mean of at least 0"
        )
    return means


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
        with np.errstate(over="ignore"):
            theta1 = _pareto(rng, spec.pareto_location, spec.pareto_shape, m)
        if not np.all(np.isfinite(theta1)):
            raise ValueError(
                f"pareto_location {spec.pareto_location!r} gives a group mean "
                "beyond the float range"
            )
        rho = rng.uniform(spec.rho_low, spec.rho_high, m1)
        return {"theta1": theta1, "theta2": _scaled_means(theta1, rho, m0)}
    if spec.kind == "binomial_fet":
        p_trials = spec.trials_size / (spec.trials_size + spec.trials_mean)
        trials = rng.negative_binomial(spec.trials_size, p_trials, m)
        trials = trials + spec.trials_offset
        theta1 = rng.uniform(spec.theta_low, spec.theta_high, m)
        rho = rng.uniform(spec.rho_low, spec.rho_high, m1)
        with np.errstate(divide="ignore", invalid="ignore"):
            odds = rho * theta1[m0:] / (1.0 - theta1[m0:])
            if spec.theta2_transform == "odds":
                shifted = odds / (1.0 + odds)
            else:
                shifted = np.minimum(1.0, odds)
        # at theta 1 the odds are infinite: both transforms tend to 1, or
        # stay 0 where the effect size is 0
        theta2 = theta1.copy()
        theta2[m0:] = np.where(theta1[m0:] == 1.0, rho > 0.0, shifted)
        return {"theta1": theta1, "theta2": theta2, "trials": trials}
    # negbinom_ent
    if spec.mean_file is not None:
        theta1 = _mean_file_values(spec) if means is None else means
    else:
        theta1 = rng.uniform(spec.mean_low, spec.mean_high, m)
    rho = _pareto(rng, spec.rho_location, spec.rho_shape, m1)
    return {"theta1": theta1, "theta2": _scaled_means(theta1, rho, m0)}


def _scaled_means(theta1: np.ndarray, rho: np.ndarray, m0: int) -> np.ndarray:
    """The group-2 means: ``theta1``, with the false nulls' (those from
    ``m0`` on) scaled by the effect sizes ``rho``. A product beyond the
    float range is named."""
    theta2 = theta1.copy()
    with np.errstate(over="ignore"):
        theta2[m0:] = rho * theta1[m0:]
    beyond = np.flatnonzero(~np.isfinite(theta2[m0:]))
    if beyond.shape[0]:
        i = int(beyond[0])
        raise ValueError(
            f"group mean {float(theta1[m0 + i])!r} times effect size "
            f"{float(rho[i])!r} gives a group-2 mean beyond the float range"
        )
    return theta2


def _replication_rng(spec: ScenarioSpec, rep_index: int) -> np.random.Generator:
    return np.random.default_rng(
        np.random.SeedSequence(spec.seed, spawn_key=(rep_index,))
    )


#: Most features :func:`run_replications` tests in one kernel call, and
#: most pmf entries per group :func:`bias_decomposition` holds at a time.
_CHUNK_FEATURES = 1 << 16


def _group_sums(spec: ScenarioSpec, rng: np.random.Generator, p, out=None):
    """Each feature's sum of ``reps_per_group`` negative-binomial counts
    of shape ``1 / dispersion`` and success probability ``p``, into
    ``out`` when given. A ``p`` of several rows (groups) is drawn in one
    call, whose variates numpy draws in C order: a call per row's stream.

    numpy checks all of ``p`` before it draws and refuses a shape and
    ``p`` whose counts could overflow its Poisson sampler. A refusal is
    that of the first row a call of its own refuses, raised as one
    naming the dispersion and the row's largest group mean, ``shape *
    (1 - p) / p`` at its smallest ``p``.
    """
    sigma = 1.0 / spec.dispersion
    size = p.shape[:-1] + (spec.reps_per_group, p.shape[-1])
    try:
        with np.errstate(over="ignore", divide="ignore"):
            counts = rng.negative_binomial(sigma, p[..., None, :], size)
    except ValueError:
        for group in p if p.ndim > 1 else ():
            _group_sums(spec, rng, group)  # raises at the first refused row
        if not np.all((0.0 < p) & (p <= 1.0)):
            raise  # numpy's message names p
        low = np.min(p)
        with np.errstate(over="ignore"):
            mean = sigma * (1.0 - low) / low
        raise ValueError(
            f"dispersion {spec.dispersion!r} is too large for the largest group "
            f"mean {mean:.6g}: numpy's negative-binomial sampler refuses the "
            "per-sample shape 1 / dispersion with these group means"
        ) from None
    return counts.sum(axis=-2, out=out)


def _draw_counts(spec: ScenarioSpec, rep_index: int, out: np.ndarray, means=None):
    """One replication's count columns, drawn in documented order (both
    groups in one sampler call), into the rows of ``out``: ``(x1, x2)``
    for ``poisson_bin``, ``(x1, trials, x2)`` for ``binomial_fet`` and
    the group sums ``(s1, s2)`` for ``negbinom_ent``."""
    rng = _replication_rng(spec, rep_index)
    params = _draw_parameters(spec, rng, means)
    thetas = np.stack((params["theta1"], params["theta2"]))
    if spec.kind == "poisson_bin":
        try:
            out[:] = rng.poisson(thetas)
        except ValueError:
            # the means are finite and at least 0, so numpy refuses one
            # too large for its sampler
            raise ValueError(
                f"the largest group mean {np.max(thetas):.6g} is too large: "
                "numpy's Poisson sampler refuses it"
            ) from None
    elif spec.kind == "binomial_fet":
        out[1] = params["trials"]
        out[::2] = rng.binomial(out[1], thetas)
    else:
        sigma = 1.0 / spec.dispersion
        _group_sums(spec, rng, sigma / (sigma + thetas), out)


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


def _chunk_study(
    spec: ScenarioSpec,
    reps: range,
    means: np.ndarray | None = None,
    truth: np.ndarray | None = None,
) -> Study:
    """The replications ``reps`` tested in one kernel call, as one study.

    The replications' counts are drawn into one set of columns and tested
    together, so the study's hypotheses are the replications' ``m``
    hypotheses each, replication by replication.
    """
    width = 3 if spec.kind == "binomial_fet" else 2
    columns = np.empty((width, len(reps), spec.m), dtype=np.int64)
    for j, r in enumerate(reps):
        _draw_counts(spec, r, columns[:, j], means)
    return Study.from_distinct(*_test(spec, columns.reshape(width, -1)), truth=truth)


def _truth(spec: ScenarioSpec) -> np.ndarray:
    truth = np.zeros(spec.m, dtype=bool)
    truth[: spec.m0] = True
    return truth


def generate_scenario(spec: ScenarioSpec, rep_index: int) -> Study:
    """Generate one replication: counts, exact tests, truth labels.

    The same ``(spec, rep_index)`` always produces the identical
    study. The first ``m0 = round(pi0 * m)`` hypotheses are the true
    nulls.
    """
    return _chunk_study(spec, range(rep_index, rep_index + 1), truth=_truth(spec))


def _check_name(name: str, known: tuple[str, ...], what: str) -> None:
    if name not in known:
        raise ValueError(f"unknown {what} {name!r}; choose from {known}")


def evaluate_block(
    study: Study,
    rows: int,
    methods: Sequence[str],
    procedures: Sequence[str],
    alphas: Sequence[float],
    lam: float,
    epsilon: float,
) -> tuple[dict[str, tuple | None], list[tuple | None]]:
    """The named estimates and procedure results of ``rows`` studies.

    ``study`` holds the ``rows`` studies' hypotheses, ``m`` of them per
    study, study after study. Its p-values are checked and sorted once,
    as one :class:`PValueBlock` with a row per study. Each estimate in
    ``methods`` or run on by a procedure is computed once, for every
    row, by its entry of ``ESTIMATORS``, as ``(raw, value)`` arrays; one
    the studies have too few p-values for (the median estimator needs
    two) is None. A procedure gives None when its estimate is None, else
    ``(cells, t, fdr, rejections)``: row ``a`` of the three (levels,
    rows) arrays is its thresholds, estimator values there (NaN for the
    step-up procedures) and rejection counts at ``alphas[a]``, and
    ``cells`` the ``lambda``, ``epsilon`` and per-row ``pi0`` multiplier
    it runs with, as its row of ``fdr.PROCEDURES`` gives them from its
    estimate (1 for ``bh``). The step-up procedures have no ``lambda``
    or ``epsilon``; a procedure whose estimate takes no ``epsilon`` runs
    at ``epsilon`` 0. Each procedure is one
    :func:`~discretefdr.fdr.solve_thresholds` call, at all levels.
    Callers check the names, once per roster.
    """
    wanted = set(methods) | {fdr.PROCEDURES[name][0] for name in procedures}
    used = [name for name in ESTIMATORS if name in wanted]
    tuning = {p for name in used for p in ESTIMATORS[name][1]}
    _check_tuning(tuning, study.m // rows, lam, epsilon)
    block = PValueBlock(study.pvalues.reshape(rows, -1))
    estimates: dict[str, tuple | None] = {}
    for name in used:
        estimate, _, fewest = ESTIMATORS[name]
        raw = estimate(study, block.values, lam, epsilon) if block.m >= fewest else None
        estimates[name] = None if raw is None else (raw, _clip01(raw))
    unit = (np.ones(rows),) * 2  # the estimate pi0 = 1
    outcomes: list[tuple | None] = []
    for name in procedures:
        on, multiplier, _, rule = fdr.PROCEDURES[name]
        pi0 = unit if on is None else estimates[on]
        if pi0 is None:
            outcomes.append(None)
            continue
        mult = multiplier(*pi0, block.m, lam, None)
        if rule == "step":
            cells = (None, None, mult)
        else:
            cells = (lam, epsilon if "epsilon" in ESTIMATORS[on][1] else 0.0, mult)
        outcomes.append((cells, *solve_thresholds(block, name, mult, lam, alphas)))
    return estimates, outcomes


def false_discovery_proportion(study: Study, result: ThresholdResult) -> float:
    """Realized share V / max(R, 1) of true nulls among the R rejections
    (0 if there are none): the one-row case of :func:`false_discovery_rows`."""
    if study.truth is None:
        raise ValueError("false discovery proportion needs truth labels")
    t = np.asarray(result.t_alpha)
    return float(false_discovery_rows(study.pvalues, study.truth, t, result.rejections))


def false_discovery_rows(
    pvalues: np.ndarray, truth: np.ndarray, t: np.ndarray, rejections: np.ndarray
) -> np.ndarray:
    """Realized false discovery proportion of each row of ``pvalues`` at
    its threshold ``t``, with ``rejections`` p-values at most ``t``, per
    row of ``t`` (a level) when it has two: the share V / max(R, 1) of
    true nulls among them, 0 where there are none."""
    false = np.count_nonzero((pvalues <= t[..., None]) & truth, axis=-1)
    return false / np.maximum(rejections, 1)


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
    proportion. Each chunk of replications is evaluated as one block
    (see the module docstring), and each procedure's false discovery
    proportions are one comparison of the chunk's p-values with its
    thresholds. Roster names, and whether ``m`` is enough p-values for
    each estimate, are checked here, before any study is generated.
    Results are deterministic functions of ``(spec, rep_index)``, the
    same as :func:`generate_scenario` gives.
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
    used = set(pi0_methods) | {fdr.PROCEDURES[name][0] for name in procedures}
    for name in ESTIMATORS:
        if name in used:
            _check_defined(name, spec.m)

    means = None
    if spec.kind == "negbinom_ent" and spec.mean_file is not None:
        means = _mean_file_values(spec, mean_data)
    reps = spec.reps
    alphas = spec.alpha_levels
    est = np.empty((reps, len(pi0_methods)))
    thr = np.empty((reps, len(procedures), len(alphas)))
    rej = np.empty((reps, len(procedures), len(alphas)), dtype=np.int64)
    fdp = np.empty((reps, len(procedures), len(alphas)))

    truth = _truth(spec)
    per_chunk = max(1, _CHUNK_FEATURES // spec.m)
    for first in range(0, reps, per_chunk):
        chunk = range(first, min(first + per_chunk, reps))
        rows = slice(chunk.start, chunk.stop)
        study = _chunk_study(spec, chunk, means)
        estimates, outcomes = evaluate_block(
            study, len(chunk), pi0_methods, procedures, alphas, lam, epsilon
        )
        for j, name in enumerate(pi0_methods):
            est[rows, j] = estimates[name][1]
        pvalues = study.pvalues.reshape(len(chunk), spec.m)
        for j, (_, t, _, count) in enumerate(outcomes):
            thr[rows, j], rej[rows, j] = t.T, count.T
            fdp[rows, j] = false_discovery_rows(pvalues, truth, t, count).T

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
    bounds: np.ndarray  # (m, 2): each group's largest count enumerated
    mass_deficit: float
    pi0: float
    lam: float
    epsilon: float


#: Mass each group's count bound may leave beyond it: half the 1e-6 guard.
_TAIL = 0.5e-6


def _times(count, log_value):
    """``count * log_value``, and 0 where ``count`` is 0, also at log 0."""
    with np.errstate(invalid="ignore"):
        return np.where(count == 0, 0.0, count * log_value)


def _count_pmf(spec: ScenarioSpec, top: int):
    """The pmf of one group's counts, at counts up to ``top``.

    Returns ``pmf(theta, trials, x)``: the laws of the column ``theta``
    (a mean, or a success probability with ``trials`` trials) at the
    counts ``x`` (a row). The laws are Poisson, binomial, or the group
    sum's negative binomial with shape ``k = reps_per_group /
    dispersion`` and mean ``mu = reps_per_group * theta``, whose log-pmf
    is ``x (log mu - log1p(mu / k)) - k log1p(mu / k)`` plus
    ``log C(x + k - 1, x) - x log k``. Each family's coefficient comes
    from ``_kernels``.
    """
    if spec.kind == "negbinom_ent":
        k = spec.reps_per_group * (1.0 / spec.dispersion)
        coef, drop = _kernels.log_negbinom_coefficients(top, k)
        shift = math.log(k) - drop  # the part of x log k left in coef
    else:
        lf = log_factorials(top)

    def pmf(theta, trials, x):
        with np.errstate(divide="ignore"):  # log 0 at the ends of a range
            if spec.kind == "poisson_bin":
                logp = _times(x, np.log(theta)) - theta - lf[x]
            elif spec.kind == "binomial_fet":
                logp = _times(x, np.log(theta)) + _times(
                    trials - x, np.log1p(-theta)
                )
                logp += _kernels.log_binomial_coefficients(lf, trials, x)
            else:
                mean = spec.reps_per_group * theta
                spread = np.log1p(mean / k)
                logp = _times(x, np.log(mean) - spread - shift) - k * spread
                logp += coef[x]
        return np.exp(logp)

    return pmf


def _count_bounds(spec: ScenarioSpec, theta: np.ndarray, trials: np.ndarray):
    """Each count's largest enumerated value: all ``0..r`` of a binomial
    with ``r`` trials, else the least ``2^j - 1`` beyond which at most
    ``_TAIL`` of the mass lies, found by summing the pmf over doubling
    widths, ``_CHUNK_FEATURES`` entries at a time."""
    if spec.kind == "binomial_fet":
        return trials
    bounds = np.empty(theta.shape[0], dtype=np.int64)
    mass = np.zeros(theta.shape[0])
    live = np.arange(theta.shape[0])
    width = 1
    while live.shape[0]:
        if width > _kernels.MAX_TOTAL + 1:
            raise ValueError(
                "a group's counts reach beyond the largest supported total "
                f"{_kernels.MAX_TOTAL}"
            )
        x = np.arange(width // 2, width)
        pmf = _count_pmf(spec, width - 1)
        step = max(1, _CHUNK_FEATURES // x.shape[0])
        for c in range(0, live.shape[0], step):
            part = live[c : c + step]
            mass[part] += pmf(theta[part, None], trials[part, None], x).sum(axis=1)
        done = 1.0 - mass[live] <= _TAIL
        bounds[live[done]] = width - 1
        live = live[~done]
        width *= 2
    return bounds


def bias_decomposition(
    spec: ScenarioSpec,
    lam: float,
    epsilon: float,
    rep_index: int = 0,
) -> BiasDecomposition:
    """Exact biases for one fixed parameter draw of a scenario.

    The scenario parameters are the ones replication ``rep_index``
    would use, drawn once; no counts are sampled. Each hypothesis's
    count pairs ``0..T1`` by ``0..T2`` are enumerated, each group's
    bound read off its count law: all ``0..r`` of a binomial with ``r``
    trials, else the count beyond which at most ``_TAIL`` of the mass
    lies, rounded to one less than a power of two so that hypotheses
    share shapes (``bounds`` records them). The pairs of all distinct
    ``(trials, T1, T2)`` shapes are tested in one batch-kernel call;
    a hypothesis's expectations are bilinear forms ``pmf1 . G . pmf2``
    in its two count pmfs, ``G`` the grid of ``1{p <= lambda}``, of the
    support floor at ``lambda`` or of ``p``. If the covered mass,
    ``pmf1 . 1 . pmf2``, falls short by more than 1e-6 (safety: the
    bounds leave at most that), a :class:`ValueError` is raised.
    """
    _check_tuning(ESTIMATORS["generalized"][1], spec.m, lam, epsilon)

    params = _draw_parameters(spec, _replication_rng(spec, rep_index))
    m, m0 = spec.m, spec.m0
    truth = _truth(spec)

    thetas = params["theta1"], params["theta2"]
    trials = params.get("trials", np.zeros(m, dtype=np.int64))
    bounds = np.column_stack([_count_bounds(spec, t, trials) for t in thetas])
    shapes, shape_of = np.unique(
        np.column_stack((trials, bounds)), axis=0, return_inverse=True
    )
    sizes = (shapes[:, 1] + 1) * (shapes[:, 2] + 1)
    x1, x2 = np.concatenate(
        [np.indices((a + 1, b + 1)).reshape(2, -1) for _, a, b in shapes], axis=1
    )
    pair_trials = np.repeat(shapes[:, 0], sizes)
    out = _test(spec, (x1, pair_trials, x2) if "trials" in params else (x1, x2))
    pvalues, floor = out[0], Study.from_distinct(*out).support_floor(lam)
    # per pair: 1 (the mass covered), 1{p <= lam}, support floor, p
    values = np.stack((np.ones_like(pvalues), pvalues <= lam, floor, pvalues))

    expectations = np.empty((4, m))
    pmf = _count_pmf(spec, int(bounds.max()))
    blocks = np.split(values, np.cumsum(sizes)[:-1], axis=1)
    for s, ((_, a, b), block) in enumerate(zip(shapes, blocks)):
        grids = block.reshape(4, a + 1, b + 1)
        rows = np.flatnonzero(shape_of.ravel() == s)
        step = max(1, _CHUNK_FEATURES // (max(a, b) + 1))
        for c in range(0, rows.shape[0], step):
            part = rows[c : c + step]
            pmf1, pmf2 = (
                pmf(t[part, None], trials[part, None], x)
                for t, x in zip(thetas, (np.arange(a + 1), np.arange(b + 1)))
            )
            expectations[:, part] = np.sum((pmf1 @ grids) * pmf2, axis=2)
    covered, cdf, null_cdf, mean_p = expectations
    deficit = max(0.0, float(np.max(1.0 - covered)))
    if deficit > 1e-6:
        raise ValueError(f"the enumerated counts miss {deficit:.3e} of the mass")

    true_pi0 = m0 / m
    return BiasDecomposition(
        generalized_bias=generalized_bias_from_expectations(
            cdf, null_cdf, lam, epsilon, true_pi0
        ),
        pounds_bias=pounds_bias_from_expectations(mean_p, truth),
        cdf_at_lambda=cdf,
        null_cdf_at_lambda=null_cdf,
        mean_pvalue=mean_p,
        bounds=bounds,
        mass_deficit=deficit,
        pi0=true_pi0,
        lam=lam,
        epsilon=epsilon,
    )
