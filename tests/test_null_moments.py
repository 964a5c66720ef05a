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

The z2 family has no exact finite-sample moments, but it has a large-n
limit.  In whitened coordinates under normality, b11 = I, b12 holds the
third moments m3 over (coordinate, pair) and b22 is diagonal, 2 on squares
and 1 on cross products.  The sample third moments on each sorted triple S
tend to independent normals with variance prod(count!) over S's repeated
indices, since their Hermite polynomials are orthogonal, and the
(coordinate, pair) splits of S give every S the same weight 3.  So
n z2_hl -> 3 chi^2 with C(p+2, 3) degrees of freedom, while n b1,p -> 6 chi^2
on the same variables: n z2_hl - n b1,p / 2 -> 0 in probability.  The z2
cases read per-replication values from ``evaluate_batch`` over the null
sampler (the streams ``calibrate`` draws, root seed 77), since sorted
tables lose the pairing of the two statistics, and check

- the mean of n z2_hl against 3 C(p+2, 3), as |z| <= 4;
- its variance against 18 C(p+2, 3), as |ratio - 1| <= 4 SE, as above;
- sd(n z2_hl - n b1,p / 2) / sd(n z2_hl) <= 6 / sqrt(n): the difference
  is O(n^-1/2) relative to n z2_hl, and the constant measured 3.2 to 4.0
  at these shapes.

The shapes are (2000, 1) and (2000, 2) at R = 4,096 and (1000, 3) at
R = 2,048.  A null sampler that returns x + 0.02 x^2, or a z2 b22 that
keeps the products of m2 in the pair Gram, fails them.

The same argument on the fourth cumulants gives n z3_hl -> 4 chi^2 with
C(p+3, 4) degrees of freedom, so its mean tends to 4 C(p+3, 4) and its
variance to 32 C(p+3, 4).  z3 converges slowly, so it is checked only at
(2000, 1), R = 4,096, with the bounds of the z2 mean and variance: there
8,192 replications of the same streams read 4.06 +- 0.06 against 4
(+1.0 SE).  At p = 2 and 3 the mean still reads 1.5 to 3 SE high at
n = 1,000 to 2,000, so those shapes are left out.
"""

from math import comb

import numpy as np
import pytest

from cancornorm.alternatives import RngStream, alternative, generate_group, stream_generators
from cancornorm.engine import evaluate_batch
from cancornorm.montecarlo import CALIBRATION_CONTEXT, calibrate
from cancornorm.stats import StatisticId

SKEW = StatisticId.parse("mardia_skew")
KURT = StatisticId.parse("mardia_kurt")
Z2_HL = StatisticId.parse("z2_hl")
Z3_HL = StatisticId.parse("z3_hl")
SEED = 77
Z_BOUND = 4.0
# samples per ``evaluate_batch`` call: 4096 samples at (2000, 2) would hold 131 MB
BLOCK = 256
SD_RATIO_SCALE = 6.0


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
    ratio, z = variance_ratio_z(tables[KURT].values, kurt_var)
    assert abs(z) <= Z_BOUND, (
        f"mardia_kurt at (n={n}, p={p}): variance ratio {ratio:.4f}, z = {z:+.2f}"
    )


def variance_ratio_z(values: np.ndarray, exact: float) -> tuple[float, float]:
    """The sample variance of ``values`` over ``exact``, and its distance
    from 1 in standard errors, ratio sqrt((k - 1) / R) with k the sample
    kurtosis of the R values."""
    centered = values - values.mean()
    kurtosis = np.mean(centered**4) / np.mean(centered**2) ** 2
    ratio = values.var(ddof=1) / exact
    return ratio, (ratio - 1) / (ratio * np.sqrt((kurtosis - 1) / len(values)))


def null_values(n: int, p: int, reps: int, statistics) -> dict[StatisticId, np.ndarray]:
    """Replications 0 .. reps - 1 of ``statistics`` over the null sampler,
    drawn from the streams ``calibrate`` draws them from, in replication
    order and evaluated ``BLOCK`` samples at a time."""
    spec, rng = alternative("normal", p), RngStream(SEED)
    parts = []
    for start in range(0, reps, BLOCK):
        count = min(BLOCK, reps - start)
        generators = stream_generators(rng, CALIBRATION_CONTEXT, start, count)
        parts.append(evaluate_batch(generate_group([spec], n, generators, count), statistics))
    return {sid: np.concatenate([part[sid] for part in parts]) for sid in statistics}


@pytest.mark.parametrize("n, p, reps", [
    (2000, 1, 4_096),
    (2000, 2, 4_096),
    (1000, 3, 2_048),
])
def test_z2_hl_matches_its_null_limit(n, p, reps):
    values = null_values(n, p, reps, (Z2_HL, SKEW))
    z2 = n * values[Z2_HL]
    dof = comb(p + 2, 3)
    z = (z2.mean() - 3 * dof) / (z2.std(ddof=1) / np.sqrt(reps))
    assert abs(z) <= Z_BOUND, (
        f"n z2_hl at (n={n}, p={p}): mean {z2.mean():.4f}, limit {3 * dof}, z = {z:+.2f}"
    )
    ratio, z = variance_ratio_z(z2, 18 * dof)
    assert abs(z) <= Z_BOUND, (
        f"n z2_hl at (n={n}, p={p}): variance ratio {ratio:.4f}, z = {z:+.2f}"
    )
    sd_ratio = np.std(z2 - n * values[SKEW] / 2, ddof=1) / z2.std(ddof=1)
    assert sd_ratio <= SD_RATIO_SCALE / np.sqrt(n), (
        f"n z2_hl - n b1,p / 2 at (n={n}, p={p}): sd ratio {sd_ratio:.4f}, "
        f"bound {SD_RATIO_SCALE / np.sqrt(n):.4f}"
    )


def test_z3_hl_matches_its_null_limit():
    n, p, reps = 2000, 1, 4_096
    z3 = n * null_values(n, p, reps, (Z3_HL,))[Z3_HL]
    dof = comb(p + 3, 4)
    z = (z3.mean() - 4 * dof) / (z3.std(ddof=1) / np.sqrt(reps))
    assert abs(z) <= Z_BOUND, (
        f"n z3_hl at (n={n}, p={p}): mean {z3.mean():.4f}, limit {4 * dof}, z = {z:+.2f}"
    )
    ratio, z = variance_ratio_z(z3, 32 * dof)
    assert abs(z) <= Z_BOUND, (
        f"n z3_hl at (n={n}, p={p}): variance ratio {ratio:.4f}, z = {z:+.2f}"
    )
