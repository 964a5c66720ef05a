import numpy as np
import pytest
from numpy.testing import assert_allclose

from cancornorm.covblocks import CanCorSq, CovBlocks, cancor_sq, lambda_blocks, population_moments
from cancornorm.engine import CONDITION_LIMIT
from cancornorm.errors import (
    EigenvalueRangeError,
    FunctionalDomainError,
    SingularBlockError,
)

from covblocks_oracle import functional_value, functionals


def make_blocks(b11, b12, b22, order=2):
    b11 = np.asarray(b11, dtype=float)
    b12 = np.asarray(b12, dtype=float)
    b22 = np.asarray(b22, dtype=float)
    p = b11.shape[0]
    return CovBlocks(order=order, b11=b11, b12=b12, b22=b22, n=50, p=p)


def random_joint_cov(p, q, seed):
    """A random positive definite (p+q) x (p+q) covariance, partitioned."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((p + q, p + q))
    full = a @ a.T + 0.5 * np.eye(p + q)
    return full[:p, :p], full[:p, p:], full[p:, p:]


def test_zero_cross_block_gives_zero_correlations():
    c = cancor_sq(make_blocks(np.eye(2), np.zeros((2, 3)), np.eye(3)))
    assert_allclose(c.values, 0.0)
    assert c.clamped_count == 0


def test_scalar_case_is_squared_pearson():
    b11, b12, b22 = 2.0, 0.7, 1.5
    c = cancor_sq(make_blocks([[b11]], [[b12]], [[b22]]))
    assert_allclose(c.values[0], b12**2 / (b11 * b22), rtol=1e-13)


def test_population_indep_exp_p2_is_half_half():
    from cancornorm.alternatives import alternative

    blocks = lambda_blocks(population_moments(alternative("indep_exp", 2), 4), None)
    c = cancor_sq(blocks)
    assert_allclose(c.values, [0.5, 0.5], atol=1e-12)


def test_eigenvalues_sorted_and_in_range():
    for seed in range(20):
        b11, b12, b22 = random_joint_cov(3, 6, seed)
        c = cancor_sq(make_blocks(b11, b12, b22))
        assert np.all(np.diff(c.values) <= 0)
        assert np.all((c.values >= 0) & (c.values <= 1))


def test_congruence_invariance():
    # replacing (b11, b12, b22) by (C b11 C', C b12 D', D b22 D') leaves the
    # squared canonical correlations unchanged for nonsingular C, D
    rng = np.random.default_rng(42)
    for seed in range(30):
        p, q = 2, 3
        b11, b12, b22 = random_joint_cov(p, q, seed)
        base = cancor_sq(make_blocks(b11, b12, b22)).values
        c = rng.standard_normal((p, p)) + 2 * np.eye(p)
        d = rng.standard_normal((q, q)) + 2 * np.eye(q)
        transformed = cancor_sq(
            make_blocks(c @ b11 @ c.T, c @ b12 @ d.T, d @ b22 @ d.T)
        ).values
        assert_allclose(transformed, base, rtol=1e-8, atol=1e-10)


def test_singular_blocks_are_named():
    with pytest.raises(SingularBlockError, match="b11"):
        cancor_sq(make_blocks(np.zeros((2, 2)), np.zeros((2, 3)), np.eye(3)))
    with pytest.raises(SingularBlockError, match="b22"):
        cancor_sq(make_blocks(np.eye(2), np.zeros((2, 3)), np.zeros((3, 3))))


def rotated_b22(eigenvalues, seed=0):
    q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((3, 3)))
    return q @ np.diag(eigenvalues) @ q.T


def test_b22_decision_at_condition_limit():
    # the certified bound exceeds the limit in the first case, so it is the
    # exact condition number that accepts it
    under = rotated_b22([1.0, 0.5, 1.0 / 9.9e11])
    chol = np.linalg.cholesky(under)
    assert (np.linalg.norm(chol) * np.linalg.norm(np.linalg.inv(chol))) ** 2 > CONDITION_LIMIT
    assert np.linalg.cond(under) < CONDITION_LIMIT
    c = cancor_sq(make_blocks(np.eye(2), np.full((2, 3), 1e-7), under))
    assert np.all((c.values >= 0.0) & (c.values < 1.0))
    over = rotated_b22([1.0, 0.5, 1.0 / 1.1e12])
    assert np.linalg.cond(over) > CONDITION_LIMIT
    with pytest.raises(SingularBlockError, match="b22"):
        cancor_sq(make_blocks(np.eye(2), np.zeros((2, 3)), over))


def test_indefinite_b22_is_singular_block():
    indefinite = rotated_b22([1.0, -0.5, 1.0])
    with pytest.raises(SingularBlockError, match="b22") as info:
        cancor_sq(make_blocks(np.eye(2), np.zeros((2, 3)), indefinite))
    assert info.value.item == 0


def test_out_of_range_eigenvalue_is_error():
    # b22 indefinite by construction: the eigenproblem leaves [0, 1]
    b11 = np.eye(1)
    b12 = np.array([[1.0]])
    b22 = np.array([[0.5]])  # correlation^2 = 2
    with pytest.raises(EigenvalueRangeError):
        cancor_sq(make_blocks(b11, b12, b22))


def test_tiny_violation_is_clamped_and_counted():
    c = CanCorSq(values=np.array([1.0, 0.0]), clamped_count=1)
    assert c.clamped_count == 1
    got = cancor_sq(make_blocks(np.eye(1), [[1.0]], [[1.0 - 1e-12]]))
    assert got.clamped_count == 1
    assert got.values[0] == 1.0


def test_functionals_zero_eigenvalues():
    f = functionals(CanCorSq(values=np.zeros(3), clamped_count=0))
    assert f == {"hl": 0.0, "w": 1.0, "pb": 0.0, "max": 0.0, "min": 0.0}


def test_functionals_half_half():
    f = functionals(CanCorSq(values=np.array([0.5, 0.5]), clamped_count=0))
    assert_allclose([f["hl"], f["w"], f["pb"], f["max"], f["min"]],
                    [1.0, 0.25, 2.0, 0.5, 0.5])


def test_functionals_reference_pair():
    f = functionals(CanCorSq(values=np.array([0.75, 0.63]), clamped_count=0))
    assert abs(f["hl"] - 1.38) < 0.005
    assert abs(f["pb"] - 4.71) < 0.01


def test_functionals_depend_only_on_multiset():
    rng = np.random.default_rng(3)
    vals = np.sort(rng.uniform(0, 0.9, size=4))[::-1]
    f = functionals(CanCorSq(values=vals, clamped_count=0))
    g = functionals(CanCorSq(values=vals.copy(), clamped_count=2))
    assert f == g


def test_monotonicity_in_each_eigenvalue():
    base = np.array([0.6, 0.3, 0.1])
    f0 = functionals(CanCorSq(values=base, clamped_count=0))
    for i in range(3):
        bumped = base.copy()
        bumped[i] += 0.05
        f1 = functionals(CanCorSq(values=np.sort(bumped)[::-1], clamped_count=0))
        assert f1["hl"] > f0["hl"]
        assert f1["pb"] > f0["pb"]
        assert f1["w"] < f0["w"]


def test_trace_below_ratio_trace():
    rng = np.random.default_rng(4)
    for _ in range(50):
        vals = np.sort(rng.uniform(0, 0.99, size=3))[::-1]
        f = functionals(CanCorSq(values=vals, clamped_count=0))
        assert f["hl"] <= f["pb"] + 1e-15


def test_ratio_trace_blows_up_at_unit_root():
    c = CanCorSq(values=np.array([1.0, 0.2]), clamped_count=0)
    with pytest.raises(FunctionalDomainError):
        functional_value(c, "pb")
    # the other functionals remain available
    assert functional_value(c, "hl") == 1.2
    assert functional_value(c, "w") == 0.0
    assert functional_value(c, "max") == 1.0
    assert functional_value(c, "min") == 0.2
