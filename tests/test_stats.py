import numpy as np
import pytest
from numpy.testing import assert_allclose

from cancornorm.errors import DegenerateSampleError, SampleSizeError
from cancornorm.stats import (
    ALL_STATISTICS,
    StatisticId,
    compute_statistic,
    compute_statistics,
    mardia_b1p,
    mardia_b2p,
    z2_statistics,
    z3_statistics,
)

from univariate_oracle import z2_prime, z3_prime


def skewed_sample(rng, n, p):
    return rng.standard_normal((n, p)) + 0.4 * rng.standard_exponential((n, p))


# ---------------------------------------------------------------------------
# statistic identifiers


def test_statistic_id_roundtrip_and_tails():
    assert len(ALL_STATISTICS) == 12
    for sid in ALL_STATISTICS:
        assert StatisticId.parse(sid.name) == sid
    assert StatisticId.parse("z2_w").tail == "lower"
    assert StatisticId.parse("z3_w").tail == "lower"
    assert StatisticId.parse("mardia_kurt").tail == "upper"
    assert StatisticId.parse("mardia_skew").tail == "upper"
    assert StatisticId.parse("z2_hl").tail == "upper"
    assert StatisticId.parse("z3_min").tail == "upper"


def test_statistic_id_validation():
    with pytest.raises(ValueError):
        StatisticId("z2")
    with pytest.raises(ValueError):
        StatisticId("mardia_skew", "hl")
    with pytest.raises(ValueError):
        StatisticId.parse("z4_hl")


# ---------------------------------------------------------------------------
# univariate equivalences


def test_z2_prime_zero_for_symmetric_sample():
    base = np.array([0.3, 1.2, 2.7, 0.9]).reshape(-1, 1)
    x = np.vstack([base, -base])
    assert abs(z2_prime(x)) < 1e-14


def test_univariate_equivalences():
    rng = np.random.default_rng(17)
    for n in (20, 50, 200):
        for _ in range(20):
            x = skewed_sample(rng, n, 1)
            hl2 = z2_statistics(x)["hl"]
            hl3 = z3_statistics(x)["hl"]
            assert_allclose(z2_prime(x) ** 2, hl2, rtol=1e-10)
            assert_allclose(z3_prime(x) ** 2, hl3, rtol=1e-10)


def test_univariate_functionals_all_equivalent():
    # one eigenvalue: every summary is a fixed monotone transform of it
    rng = np.random.default_rng(18)
    x = skewed_sample(rng, 30, 1)
    for family in (z2_statistics, z3_statistics):
        f = family(x)
        assert f["hl"] == f["max"] == f["min"]
        assert_allclose(f["w"], 1 - f["hl"], rtol=1e-12)
        assert_allclose(f["pb"], f["hl"] / (1 - f["hl"]), rtol=1e-12)


def test_z_primes_validate_input():
    rng = np.random.default_rng(19)
    with pytest.raises(ValueError):
        z2_prime(rng.standard_normal((10, 2)))
    with pytest.raises(SampleSizeError):
        z2_prime(rng.standard_normal((3, 1)))
    with pytest.raises(SampleSizeError):
        z3_prime(rng.standard_normal((5, 1)))
    with pytest.raises(DegenerateSampleError):
        z2_prime(np.ones((10, 1)))


# ---------------------------------------------------------------------------
# pipeline behavior


def test_symmetrized_sample_kills_z2():
    rng = np.random.default_rng(20)
    base = rng.standard_exponential((25, 2))
    x = np.vstack([base, -base])  # all third central moments vanish exactly
    f = z2_statistics(x)
    assert f["hl"] < 1e-18
    assert f["w"] >= 1 - 1e-18


def test_sample_size_thresholds():
    rng = np.random.default_rng(21)
    with pytest.raises(SampleSizeError):
        z2_statistics(rng.standard_normal((4, 2)))  # needs n >= 5
    with pytest.raises(SampleSizeError):
        z3_statistics(rng.standard_normal((5, 2)))  # needs n >= 6
    with pytest.raises(SampleSizeError):
        z3_statistics(rng.standard_normal((12, 3)))  # needs n >= 13


def test_degenerate_sample_is_error():
    x = np.column_stack([np.arange(20.0), 2 * np.arange(20.0)])
    with pytest.raises(DegenerateSampleError):
        z2_statistics(x)
    with pytest.raises(DegenerateSampleError):
        mardia_b1p(x)


# ---------------------------------------------------------------------------
# classical statistics


def test_mardia_skewness_zero_for_symmetric_sample():
    rng = np.random.default_rng(22)
    base = rng.standard_normal((30, 2)) + 1.5
    x = np.vstack([base, 2 * base.mean(axis=0) - base])  # x and mirrored pairs
    x = x - x.mean(axis=0)
    x = np.vstack([x, -x])
    assert mardia_b1p(x) < 1e-20


def test_mardia_b1p_univariate_is_squared_skewness():
    rng = np.random.default_rng(23)
    x = rng.standard_exponential((40, 1))
    n = 40
    xc = x[:, 0] - x[:, 0].mean()
    s2 = np.sum(xc**2) / (n - 1)
    skew = np.mean(xc**3) / s2**1.5
    assert_allclose(mardia_b1p(x), skew**2, rtol=1e-12)


def test_mardia_b2p_univariate_gaussian_near_three():
    rng = np.random.default_rng(24)
    x = rng.standard_normal((200_000, 1))
    assert abs(mardia_b2p(x) - 3.0) < 0.1


def test_mardia_b2p_matches_direct_double_loop():
    rng = np.random.default_rng(25)
    x = rng.standard_normal((30, 2))
    cov = np.cov(x, rowvar=False)
    w = np.linalg.inv(cov)
    xc = x - x.mean(axis=0)
    direct_b2 = np.mean([ (row @ w @ row) ** 2 for row in xc ])
    assert_allclose(mardia_b2p(x), direct_b2, rtol=1e-10)
    direct_b1 = np.mean([[(a @ w @ b) ** 3 for a in xc] for b in xc])
    assert_allclose(mardia_b1p(x), direct_b1, rtol=1e-10)


# ---------------------------------------------------------------------------
# invariances


def well_conditioned_matrix(rng, p):
    q1, _ = np.linalg.qr(rng.standard_normal((p, p)))
    q2, _ = np.linalg.qr(rng.standard_normal((p, p)))
    d = np.diag(np.exp(rng.uniform(-1.0, 1.0, size=p)))
    return q1 @ d @ q2


def test_affine_invariance_all_statistics():
    rng = np.random.default_rng(26)
    for p, n in [(2, 20), (3, 20), (2, 50)]:
        for _ in range(10):
            x = skewed_sample(rng, n, p)
            a = well_conditioned_matrix(rng, p)
            b = rng.standard_normal(p)
            y = x @ a.T + b
            fx = compute_statistics(x)
            fy = compute_statistics(y)
            for sid in ALL_STATISTICS:
                assert_allclose(
                    fy[sid], fx[sid], rtol=1e-7, atol=1e-9,
                    err_msg=f"{sid.name} not affine invariant",
                )


def test_row_permutation_bit_identical():
    rng = np.random.default_rng(27)
    samples = [skewed_sample(rng, 25, 2), skewed_sample(rng, 60, 4)]
    base = skewed_sample(rng, 20, 3)
    samples.append(np.vstack([base, base[:6], base[3:5]]))  # duplicated rows tie in the sort
    for x in samples:
        perm = rng.permutation(len(x))
        fx = compute_statistics(x)
        fy = compute_statistics(x[perm])
        for sid in ALL_STATISTICS:
            assert fx[sid] == fy[sid], f"{sid.name} at {x.shape}"


def test_column_permutation_invariance():
    rng = np.random.default_rng(28)
    x = skewed_sample(rng, 30, 3)
    fx = compute_statistics(x)
    fy = compute_statistics(x[:, [2, 0, 1]])
    for sid in ALL_STATISTICS:
        assert_allclose(fy[sid], fx[sid], rtol=1e-10, err_msg=sid.name)


def test_compute_statistic_dispatch():
    rng = np.random.default_rng(29)
    x = skewed_sample(rng, 25, 2)
    assert compute_statistic(x, StatisticId.parse("z2_hl")) == z2_statistics(x)["hl"]
    assert compute_statistic(x, StatisticId.parse("mardia_skew")) == mardia_b1p(x)
