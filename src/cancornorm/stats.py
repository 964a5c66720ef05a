"""User-facing test statistics.

Two five-statistic families summarize the squared canonical correlations
between the sample mean and the distinct second-order (family ``z2``) or
third-order (family ``z3``) sample moments; the classical multivariate
skewness and kurtosis statistics are included for comparison, along with
the univariate correlation statistics that the p = 1 case of each family
reduces to.

All statistics are affine invariant, so the data is standardized internally
(centered and whitened by a Cholesky factor of its own covariance) before
the moment pipeline runs; this leaves the values unchanged in exact
arithmetic and keeps every covariance block well conditioned.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial, prod, sqrt

import numpy as np
from scipy.linalg import solve_triangular

from .cancor import CONDITION_LIMIT, FUNCTIONAL_NAMES, cancor_sq, functionals
from .covblocks import (
    lambda_blocks,
    psi_blocks,
    second_order_threshold,
    third_order_threshold,
)
from .errors import DegenerateSampleError, SampleSizeError
from .moments import (
    Sample,
    _ordered_sum,
    as_sample,
    central_moments,
    sample_cov,
    sample_mean,
    triple_indices,
)

FAMILIES = ("z2", "z3", "mardia_skew", "mardia_kurt")


@dataclass(frozen=True)
class StatisticId:
    """Identifies one of the twelve test statistics.

    ``functional`` selects the canonical-correlation summary for the z2/z3
    families and must be None for the two classical statistics.  The
    rejection tail is determined by the statistic: the product functional
    rejects for small values, everything else for large values.  (Kurtosis
    rejecting upward only, rather than two sided, is what reproduces the
    benchmark power tables; the short-tailed rows there have power 0.)
    """

    family: str
    functional: str | None = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if self.family in ("z2", "z3"):
            if self.functional not in FUNCTIONAL_NAMES:
                raise ValueError(f"family {self.family} needs a functional, got {self.functional!r}")
        elif self.functional is not None:
            raise ValueError(f"family {self.family} does not take a functional")

    @property
    def tail(self) -> str:
        return "lower" if self.functional == "w" else "upper"

    @property
    def name(self) -> str:
        return self.family if self.functional is None else f"{self.family}_{self.functional}"

    @classmethod
    def parse(cls, name: str) -> "StatisticId":
        name = name.strip().lower()
        if name in ("mardia_skew", "mardia_kurt"):
            return cls(family=name)
        for fam in ("z2", "z3"):
            prefix = fam + "_"
            if name.startswith(prefix):
                return cls(family=fam, functional=name[len(prefix):])
        raise ValueError(f"unknown statistic {name!r}")

    def __str__(self) -> str:
        return self.name


ALL_STATISTICS: tuple[StatisticId, ...] = (
    (StatisticId("mardia_skew"), StatisticId("mardia_kurt"))
    + tuple(StatisticId("z2", f) for f in FUNCTIONAL_NAMES)
    + tuple(StatisticId("z3", f) for f in FUNCTIONAL_NAMES)
)


@dataclass(frozen=True)
class TestResult:
    statistic: StatisticId
    value: float
    p_value: float
    alpha: float
    reject: bool


def equilibrated_condition(cov: np.ndarray) -> np.ndarray:
    """Condition number of D^-1/2 cov D^-1/2, D = diag(cov), per matrix of a stack.

    Every statistic is invariant to rescaling a coordinate, so rank
    deficiency is judged on this equilibrated (correlation) matrix rather
    than in raw units (Higham, Accuracy and Stability of Numerical
    Algorithms, section 7.3).  A zero variance gives inf.
    """
    var = np.diagonal(cov, axis1=-2, axis2=-1)
    live = np.all(var > 0.0, axis=-1)
    d = np.sqrt(np.where(live[..., None], var, 1.0))
    cond = np.linalg.cond(cov / (d[..., :, None] * d[..., None, :]))
    return np.where(live, cond, np.inf)


def _check_covariance(cov: np.ndarray) -> None:
    cond = float(equilibrated_condition(cov))
    if not np.isfinite(cond) or cond > CONDITION_LIMIT:
        raise DegenerateSampleError(
            f"sample covariance is rank deficient (condition number {cond:.3g})"
        )


def _standardize(s: Sample) -> Sample:
    """Center and whiten by the Cholesky factor of the divisor-n covariance."""
    xc = s.data - sample_mean(s)
    m2 = np.empty((s.p, s.p))
    for i in range(s.p):
        for j in range(i, s.p):
            m2[i, j] = m2[j, i] = _ordered_sum(xc[:, i] * xc[:, j]) / s.n
    _check_covariance(m2)
    try:
        chol = np.linalg.cholesky(m2)
    except np.linalg.LinAlgError as exc:
        raise DegenerateSampleError(f"sample covariance is not positive definite: {exc}") from exc
    return Sample(solve_triangular(chol, xc.T, lower=True).T)


def z2_statistics(x) -> dict[str, float]:
    """All five second-order statistics of a sample."""
    s = as_sample(x)
    if s.n < second_order_threshold(s.p):
        raise SampleSizeError(
            f"z2 statistics need n >= {second_order_threshold(s.p)} for p={s.p}, got n={s.n}"
        )
    white = _standardize(s)
    blocks = lambda_blocks(central_moments(white, 4), s.n)
    return functionals(cancor_sq(blocks))


def z3_statistics(x) -> dict[str, float]:
    """All five third-order statistics of a sample."""
    s = as_sample(x)
    if s.n < third_order_threshold(s.p):
        raise SampleSizeError(
            f"z3 statistics need n >= {third_order_threshold(s.p)} for p={s.p}, got n={s.n}"
        )
    white = _standardize(s)
    blocks = psi_blocks(central_moments(white, 6), s.n)
    return functionals(cancor_sq(blocks))


def _mahalanobis_whiten(s: Sample) -> np.ndarray:
    """Rows transformed so that w_a . w_b equals the S^-1 bilinear form."""
    cov = sample_cov(s)
    _check_covariance(cov)
    chol = np.linalg.cholesky(cov)
    xc = s.data - sample_mean(s)
    return solve_triangular(chol, xc.T, lower=True).T


def mardia_b1p(x) -> float:
    """Multivariate sample skewness: the average cubed Mahalanobis-type form
    over all pairs of observations."""
    s = as_sample(x)
    w = _mahalanobis_whiten(s)
    # The double sum over observation pairs collapses to the squared norm of
    # the third-moment tensor of the whitened rows.
    total = 0.0
    for idx in triple_indices(s.p):
        mult = 6 // prod(factorial(idx.count(v)) for v in set(idx))
        t = _ordered_sum(w[:, idx[0]] * w[:, idx[1]] * w[:, idx[2]]) / s.n
        total += mult * t * t
    return total


def mardia_b2p(x) -> float:
    """Multivariate sample kurtosis: the average squared Mahalanobis distance."""
    s = as_sample(x)
    w = _mahalanobis_whiten(s)
    r = np.sum(w * w, axis=1)
    return _ordered_sum(r * r) / s.n


def z2_prime(x) -> float:
    """Univariate correlation statistic of the mean and the sample variance."""
    s = as_sample(x)
    if s.p != 1:
        raise ValueError("z2_prime is defined for univariate samples only")
    if s.n < 4:
        raise SampleSizeError(f"z2_prime needs n >= 4, got n={s.n}")
    m = central_moments(s, 4)
    m2 = m.mu(0, 0)
    if m2 <= 0.0:
        raise DegenerateSampleError("sample variance is zero")
    skew = m.mu(0, 0, 0) / m2**1.5
    kurt = m.mu(0, 0, 0, 0) / m2**2 - 3.0
    denom = kurt + 3.0 - (s.n - 3) / (s.n - 1)
    return skew / sqrt(denom)


def compute_statistics(x, statistics=ALL_STATISTICS) -> dict[StatisticId, float]:
    """Evaluate a set of statistics on one sample, sharing pipelines per family."""
    statistics = tuple(statistics)
    out: dict[StatisticId, float] = {}
    if any(sid.family == "z2" for sid in statistics):
        z2 = z2_statistics(x)
        out.update({sid: z2[sid.functional] for sid in statistics if sid.family == "z2"})
    if any(sid.family == "z3" for sid in statistics):
        z3 = z3_statistics(x)
        out.update({sid: z3[sid.functional] for sid in statistics if sid.family == "z3"})
    if StatisticId("mardia_skew") in statistics:
        out[StatisticId("mardia_skew")] = mardia_b1p(x)
    if StatisticId("mardia_kurt") in statistics:
        out[StatisticId("mardia_kurt")] = mardia_b2p(x)
    return out


def compute_statistic(x, statistic: StatisticId) -> float:
    return compute_statistics(x, (statistic,))[statistic]


def z3_prime(x) -> float:
    """Univariate correlation statistic of the mean and the third sample moment."""
    s = as_sample(x)
    if s.p != 1:
        raise ValueError("z3_prime is defined for univariate samples only")
    if s.n < 6:
        raise SampleSizeError(f"z3_prime needs n >= 6, got n={s.n}")
    n = s.n
    m = central_moments(s, 6)
    m2 = m.mu(0, 0)
    if m2 <= 0.0:
        raise DegenerateSampleError("sample variance is zero")
    skew = m.mu(0, 0, 0) / m2**1.5
    kurt = m.mu(0, 0, 0, 0) / m2**2 - 3.0
    sixth = m.mu(0, 0, 0, 0, 0, 0) / m2**3 - 15.0 * kurt - 10.0 * skew**2 - 15.0
    denom = sixth + 9.0 * n / (n - 1) * (kurt + skew**2) + 6.0 * n**2 / ((n - 1) * (n - 2))
    if denom <= 0.0:
        raise DegenerateSampleError("nonpositive variance estimate for the third moment")
    return kurt / sqrt(denom)
