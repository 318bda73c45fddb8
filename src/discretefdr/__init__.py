"""Multiple testing with exact discrete tests and full p-value supports.

The package provides three conditional exact tests for two-group count
data (binomial, hypergeometric, negative binomial) that report not just
a p-value but the complete set of values the p-value can attain under
the null; estimators of the proportion of true nulls that exploit those
supports to remove the conservativeness continuous-scale estimators
suffer on discrete data; FDR estimators with an exact threshold solver;
bootstrap tuning of the estimator's (lambda, epsilon) pair; and a
seeded simulation harness. The ``discretefdr`` command line wraps it
all into reproducible runs.
"""

from ._kernels import using_numba, warm_up
from .discrete_tests import (
    CONVENTIONS,
    CountTable,
    IngestSchema,
    TestResult,
    binomial_test,
    fisher_test,
    ingest_counts,
    nb_exact_test,
    test_count_table,
)
from .estimators import (
    Pi0Estimate,
    Study,
    benjamini_pi0,
    compute_pi0,
    generalized_pi0,
    pounds_hat_pi0,
    pounds_tilde_pi0,
    storey_pi0,
)
from .fdr import (
    FDR_KINDS,
    FdrEstimator,
    RejectionProcess,
    ThresholdResult,
    adaptive_bh,
    bh_procedure,
    build_rejection_process,
    evaluate_fdr,
    inverse_rejection_L,
    threshold,
)
from .sim import (
    BiasDecomposition,
    ReplicationSummary,
    ScenarioSpec,
    bias_decomposition,
    false_discovery_proportion,
    generalized_bias_from_expectations,
    generate_scenario,
    pounds_bias_from_expectations,
    run_replications,
)
from .tuning import TuningGrid, TuningResult, bootstrap_tune

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "using_numba",
    "warm_up",
    "CONVENTIONS",
    "CountTable",
    "IngestSchema",
    "TestResult",
    "binomial_test",
    "fisher_test",
    "ingest_counts",
    "nb_exact_test",
    "test_count_table",
    "Pi0Estimate",
    "Study",
    "benjamini_pi0",
    "compute_pi0",
    "generalized_pi0",
    "pounds_hat_pi0",
    "pounds_tilde_pi0",
    "storey_pi0",
    "FDR_KINDS",
    "FdrEstimator",
    "RejectionProcess",
    "ThresholdResult",
    "adaptive_bh",
    "bh_procedure",
    "build_rejection_process",
    "evaluate_fdr",
    "inverse_rejection_L",
    "threshold",
    "BiasDecomposition",
    "ReplicationSummary",
    "ScenarioSpec",
    "bias_decomposition",
    "false_discovery_proportion",
    "generalized_bias_from_expectations",
    "generate_scenario",
    "pounds_bias_from_expectations",
    "run_replications",
    "TuningGrid",
    "TuningResult",
    "bootstrap_tune",
]
