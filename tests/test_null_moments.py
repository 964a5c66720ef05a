"""Null tables checked against exact normal theory.

Under normality, Mardia ("Measures of multivariate skewness and kurtosis
with applications", Biometrika 57, 1970) gives the exact finite-sample
moments of b1,p and b2,p with the maximum-likelihood covariance:

    E b1,p   = p(p+2)[(n+1)(p+1) - 6] / ((n+1)(n+3))
    E b2,p   = p(p+2)(n-1) / (n+1)
    Var b2,p = 8p(p+2)(n-3)(n-p-1)(n-p+1) / ((n+1)^2 (n+3)(n+5))

The package's forms carry ((n-1)/n)^3 on b1,p and ((n-1)/n)^2 on b2,p, so
its kurtosis variance carries ((n-1)/n)^4.  Each case calibrates
``mardia_skew`` and ``mardia_kurt`` from root seed 77, serially, and checks
against the Monte Carlo standard error:

- each mean, as |z| <= 4 with SE = sd / sqrt(R);
- the kurtosis variance, as |ratio - 1| <= 4 SE, where ratio is the
  sample variance over the exact one and SE = ratio sqrt((k - 1) / R), with
  k the sample kurtosis of the values.

The shapes are (20, 2), (13, 3) and (50, 3) at R = 20,000 replications, and
(100, 5) at R = 4,096.  The seed, R and bounds were fixed before the first
run.  These checks hold the null sampler, the stream layout, the engine's
Mardia path and the sort into tables to an outside truth.  Acceptance
criterion 6 (empirical size) cannot: its tables and its samples come from
the same sampler, so a wrong sampler passes it.
"""

import numpy as np
import pytest

from cancornorm.alternatives import RngStream
from cancornorm.montecarlo import calibrate
from cancornorm.stats import StatisticId

SKEW = StatisticId.parse("mardia_skew")
KURT = StatisticId.parse("mardia_kurt")
SEED = 77
Z_BOUND = 4.0


def exact_null_moments(n: int, p: int) -> tuple[float, float, float]:
    """Mardia's exact mean of the skewness, and mean and variance of the
    kurtosis, under normality, with the package's (n-1)/n factors."""
    bias = (n - 1) / n
    pp = p * (p + 2)
    skew = pp * ((n + 1) * (p + 1) - 6) / ((n + 1) * (n + 3))
    kurt = pp * (n - 1) / (n + 1)
    kurt_var = 8 * pp * (n - 3) * (n - p - 1) * (n - p + 1) / ((n + 1) ** 2 * (n + 3) * (n + 5))
    return bias**3 * skew, bias**2 * kurt, bias**4 * kurt_var


@pytest.mark.parametrize("n, p, reps", [
    (20, 2, 20_000),
    (13, 3, 20_000),
    (50, 3, 20_000),
    (100, 5, 4_096),
])
def test_mardia_null_moments_match_exact_theory(n, p, reps):
    tables = calibrate((SKEW, KURT), n, p, reps, RngStream(SEED))
    skew, kurt, kurt_var = exact_null_moments(n, p)
    for sid, exact in ((SKEW, skew), (KURT, kurt)):
        values = tables[sid].values
        z = (values.mean() - exact) / (values.std(ddof=1) / np.sqrt(reps))
        assert abs(z) <= Z_BOUND, (
            f"{sid.name} at (n={n}, p={p}): mean {values.mean():.6g}, exact {exact:.6g}, "
            f"z = {z:+.2f}"
        )
    values = tables[KURT].values
    centered = values - values.mean()
    kurtosis = np.mean(centered**4) / np.mean(centered**2) ** 2
    ratio = values.var(ddof=1) / kurt_var
    z = (ratio - 1) / (ratio * np.sqrt((kurtosis - 1) / reps))
    assert abs(z) <= Z_BOUND, (
        f"mardia_kurt at (n={n}, p={p}): variance ratio {ratio:.4f}, z = {z:+.2f}"
    )
