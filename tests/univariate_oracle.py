"""The univariate correlation statistics that each family reduces to at p = 1.

``z2_prime`` correlates the sample mean with the sample variance and
``z3_prime`` with the third sample moment, both from scalar central moments
(``covblocks.central_moments``) and closed-form variance estimates rather than
from covariance blocks.  The package computes every statistic through
``engine``; at p = 1 its z2 and z3 trace values must equal the squares of
these, which is acceptance criterion 1.
"""

from math import sqrt

from cancornorm.errors import DegenerateSampleError, SampleSizeError
from cancornorm.covblocks import central_moments
from cancornorm.stats import as_sample


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
