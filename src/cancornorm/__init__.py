"""Canonical-correlation based tests for multivariate normality.

The statistics summarize the squared canonical correlations between the
sample mean vector and the vector of distinct second-order (or third-order)
sample moments; for normal data these correlations vanish, and the tests
reject when the summaries are large (small, for the product functional).
Null distributions are calibrated by Monte Carlo simulation and shared
across all normal distributions of a given shape by affine invariance.

Importing the package loads nothing else: each name below is imported from
its submodule on first access (PEP 562), so a command loads only the code
it runs.  The batched evaluation (``evaluate_batch``) and the term lists of
the permutation sums (``permutation_scheme``) live in ``engine``; the
samples, the statistics of one sample and the test decisions (``Sample``,
``compute_statistics``, ``run_tests``, ``run_test``, ``TestResult``) in
``stats``; the null-table and power-report types in ``store``; the
simulation (``calibrate``, ``power``) in ``montecarlo``; the generators
and population values (``generate``, ``population_value``) in
``alternatives``; and the scalar reference path, from ``central_moments``,
``population_moments`` and ``MomentTable`` through
``lambda_blocks``/``psi_blocks`` to ``cancor_sq``, in ``covblocks``, which
no command loads.  The vec/vech, Kronecker, commutation and duplication
matrix helpers are not part of the package: they live under ``tests/`` as
a test oracle, against which acceptance criterion 9 checks the engine's z2
covariance block in its textbook Kronecker form.
"""

from importlib import import_module

__version__ = "0.1.0"  # the one source of the version: pyproject.toml reads it

_EXPORTS = {
    "alternatives": (
        "AlternativeSpec", "RngStream", "alternative", "available_alternatives", "generate",
        "population_value",
    ),
    "covblocks": (
        "CanCorSq", "CovBlocks", "MomentTable", "cancor_sq", "central_moments", "lambda_blocks",
        "population_moments", "psi_blocks", "sample_mean", "sixth_order_term",
    ),
    "engine": ("evaluate_batch", "permutation_scheme"),
    "errors": ("MomentsUndefinedError",),
    "montecarlo": ("calibrate", "power"),
    "stats": (
        "ALL_STATISTICS", "Sample", "StatisticId", "TestResult", "compute_statistic",
        "compute_statistics", "mardia_b1p", "mardia_b2p", "run_test", "run_tests",
        "z2_statistics", "z3_statistics",
    ),
    "store": ("NullTable", "PowerReport", "export_report", "load_null", "save_null"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
