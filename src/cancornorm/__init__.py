"""Canonical-correlation based tests for multivariate normality.

The statistics summarize the squared canonical correlations between the
sample mean vector and the vector of distinct second-order (or third-order)
sample moments; for normal data these correlations vanish, and the tests
reject when the summaries are large (small, for the product functional).
Null distributions are calibrated by Monte Carlo simulation and shared
across all normal distributions of a given shape by affine invariance.
"""

from .alternatives import (
    AlternativeSpec,
    MomentsUndefinedError,
    RngStream,
    alternative,
    available_alternatives,
    generate,
    population_moments,
)
from .cancor import CanCorSq, cancor_sq, functional_value, functionals
from .covblocks import (
    CovBlocks,
    lambda_blocks,
    permutation_scheme,
    psi_blocks,
    sixth_order_term,
)
from .engine import evaluate_batch
from .matalg import commutation, duplication_elimination, kron, unvech, vec, vech
from .moments import (
    MomentTable,
    Sample,
    central_moments,
    sample_mean,
)
from .montecarlo import (
    NullTable,
    PowerReport,
    calibrate,
    population_value,
    power,
    run_test,
)
from .stats import (
    ALL_STATISTICS,
    StatisticId,
    TestResult,
    compute_statistic,
    compute_statistics,
    mardia_b1p,
    mardia_b2p,
    z2_prime,
    z2_statistics,
    z3_prime,
    z3_statistics,
)
from .store import export_report, load_null, save_null

__all__ = [
    "ALL_STATISTICS",
    "AlternativeSpec",
    "CanCorSq",
    "CovBlocks",
    "MomentTable",
    "MomentsUndefinedError",
    "NullTable",
    "PowerReport",
    "RngStream",
    "Sample",
    "StatisticId",
    "TestResult",
    "alternative",
    "available_alternatives",
    "calibrate",
    "cancor_sq",
    "central_moments",
    "commutation",
    "compute_statistic",
    "compute_statistics",
    "duplication_elimination",
    "evaluate_batch",
    "export_report",
    "functional_value",
    "functionals",
    "generate",
    "kron",
    "lambda_blocks",
    "load_null",
    "mardia_b1p",
    "mardia_b2p",
    "permutation_scheme",
    "population_moments",
    "population_value",
    "power",
    "psi_blocks",
    "run_test",
    "sample_mean",
    "save_null",
    "sixth_order_term",
    "unvech",
    "vec",
    "vech",
    "z2_prime",
    "z2_statistics",
    "z3_prime",
    "z3_statistics",
]
