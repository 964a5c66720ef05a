"""User-facing test statistics.

Two five-statistic families summarize the squared canonical correlations
between the sample mean and the distinct second-order (family ``z2``) or
third-order (family ``z3``) sample moments; the classical multivariate
skewness and kurtosis statistics are included for comparison.

A dataset is a ``Sample``: an n x p matrix of finite values, observations
in rows, which ``as_sample`` makes of any array (the scalar reference
``covblocks`` reads its samples through it too).  Every function here
evaluates one sample through ``engine.evaluate_batch``, as a stack of one,
so a dataset and its null table share their arithmetic.
The rows are first put in a canonical (lexicographic) order, which makes
every value invariant, bit for bit, under permutations of the rows.  The
univariate statistics that each family reduces to at p = 1 are computed
separately, from scalar central moments, by the test oracle
``tests/univariate_oracle.py``.

A test decision lives here too: ``check_alpha`` decides whether a level is
valid, ``check_table`` whether a ``store.NullTable`` serves a statistic at
(n, p), ``empirical_pvalues`` reads an observed value against it and
``run_test`` returns a ``TestResult``, so that testing a dataset loads none
of the simulation code (``montecarlo`` reads all three for its power
estimates).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .engine import ALL_STATISTICS, FUNCTIONAL_NAMES, StatisticId, evaluate_batch
from .errors import TableMismatchError

if TYPE_CHECKING:
    from .store import NullTable


@dataclass(frozen=True)
class Sample:
    """An n x p data matrix, observations in rows."""

    data: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.data, dtype=float)
        if arr.ndim != 2:
            raise ValueError(f"sample must be a 2-d array, got ndim={arr.ndim}")
        n, p = arr.shape
        if n < 2:
            raise ValueError(f"sample needs at least 2 observations, got {n}")
        if p < 1:
            raise ValueError("sample needs at least 1 coordinate")
        if not np.all(np.isfinite(arr)):
            raise ValueError("sample contains non-finite entries")
        object.__setattr__(self, "data", arr)

    @property
    def n(self) -> int:
        return self.data.shape[0]

    @property
    def p(self) -> int:
        return self.data.shape[1]


def as_sample(x) -> Sample:
    return x if isinstance(x, Sample) else Sample(np.asarray(x, dtype=float))


@dataclass(frozen=True)
class TestResult:
    statistic: StatisticId
    value: float
    p_value: float
    alpha: float
    reject: bool


def compute_statistics(x, statistics=ALL_STATISTICS) -> dict[StatisticId, float]:
    """Evaluate a set of statistics on one sample, each family once."""
    statistics = tuple(statistics)
    data = as_sample(x).data
    data = data[np.lexsort(data.T[::-1])]
    values = evaluate_batch(data[None], statistics)
    return {sid: float(values[sid][0]) for sid in statistics}


def compute_statistic(x, statistic: StatisticId) -> float:
    return compute_statistics(x, (statistic,))[statistic]


def empirical_pvalues(observed, table: NullTable) -> np.ndarray:
    """Monte Carlo p-values with the +1 correction, per the statistic's tail."""
    observed = np.atleast_1d(np.asarray(observed, dtype=float))
    v = table.values
    r = table.replications
    if table.statistic.tail == "upper":
        return (r - np.searchsorted(v, observed, side="left") + 1.0) / (r + 1.0)
    return (np.searchsorted(v, observed, side="right") + 1.0) / (r + 1.0)


def check_alpha(alpha: float) -> None:
    """Raise ``ValueError`` unless alpha is a test level in (0, 1)."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")


def check_table(table: NullTable, statistic: StatisticId, n: int, p: int) -> None:
    """Raise ``TableMismatchError`` unless the table holds the null
    distribution of the statistic at (n, p): tables are not interpolated."""
    if table.statistic != statistic:
        raise TableMismatchError(
            f"table holds {table.statistic.name}, not {statistic.name}"
        )
    if (n, p) != (table.n, table.p):
        raise TableMismatchError(
            f"table was calibrated for (n={table.n}, p={table.p}) but the data "
            f"is (n={n}, p={p}); tables are not interpolated"
        )


def _test_result(
    statistic: StatisticId, value: float, table: NullTable, shape: tuple[int, int], alpha: float
) -> TestResult:
    """Check alpha and the table against the statistic and the (n, p) of the
    data, then turn an observed value into a test decision."""
    check_alpha(alpha)
    check_table(table, statistic, *shape)
    p_value = float(empirical_pvalues(value, table)[0])
    return TestResult(
        statistic=statistic, value=value, p_value=p_value, alpha=alpha,
        reject=bool(p_value <= alpha),
    )


def run_test(x, statistic: StatisticId, table: NullTable, alpha: float = 0.05) -> TestResult:
    """Test one dataset against a calibrated null table.

    Each call evaluates the statistic's whole family, so looping over the
    twelve statistics re-evaluates each family (about 7x the work of one
    evaluation, the traced ``run_test_redundancy``).  To test several
    statistics on one dataset, evaluate them with one ``compute_statistics``
    call and take each p-value from ``empirical_pvalues`` instead.
    """
    s = as_sample(x)
    return _test_result(statistic, compute_statistic(s, statistic), table, (s.n, s.p), alpha)


def _family(x, family: str) -> dict[str, float]:
    values = compute_statistics(x, tuple(StatisticId(family, f) for f in FUNCTIONAL_NAMES))
    return {sid.functional: v for sid, v in values.items()}


def z2_statistics(x) -> dict[str, float]:
    """All five second-order statistics of a sample."""
    return _family(x, "z2")


def z3_statistics(x) -> dict[str, float]:
    """All five third-order statistics of a sample."""
    return _family(x, "z3")


def mardia_b1p(x) -> float:
    """Multivariate sample skewness: the average cubed Mahalanobis-type form
    over all pairs of observations."""
    return compute_statistic(x, StatisticId("mardia_skew"))


def mardia_b2p(x) -> float:
    """Multivariate sample kurtosis: the average squared Mahalanobis distance."""
    return compute_statistic(x, StatisticId("mardia_kurt"))
