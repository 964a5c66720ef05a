import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from cancornorm.covblocks import MomentTable, central_moments, sample_mean, sorted_multi_indices
from cancornorm.stats import Sample


def brute_force_moment(x, index):
    """Independent oracle: direct loop over observations and index factors."""
    xc = x - x.mean(axis=0)
    total = 0.0
    for row in xc:
        prod = 1.0
        for i in index:
            prod *= row[i]
        total += prod
    return total / x.shape[0]


def test_sample_validation():
    with pytest.raises(ValueError):
        Sample(np.ones((1, 2)))
    with pytest.raises(ValueError):
        Sample(np.array([[1.0, np.nan], [2.0, 3.0]]))
    with pytest.raises(ValueError):
        Sample(np.ones(5))


def test_mean_two_points():
    assert_array_equal(sample_mean(np.array([[0.0, 0.0], [2.0, 2.0]])), [1.0, 1.0])


def test_mean_constant_sample():
    x = np.full((7, 3), 2.5)
    assert_array_equal(sample_mean(x), [2.5, 2.5, 2.5])


def test_mean_matches_brute_force():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((5, 2))
    expected = [sum(x[:, j]) / 5 for j in range(2)]
    assert_allclose(sample_mean(x), expected, rtol=1e-12)


def test_central_moments_constant_sample():
    m = central_moments(np.full((6, 2), 1.25), 4)
    for order in (2, 3, 4):
        for idx in sorted_multi_indices(2, order):
            assert m.mu(*idx) == 0.0


def test_central_moments_standard_normal_fourth():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((1_000_000, 1))
    m = central_moments(x, 4)
    assert abs(m.mu(0, 0, 0, 0) - 3.0) < 0.05


def test_central_moments_brute_force():
    rng = np.random.default_rng(5)
    x = rng.standard_exponential((19, 2))
    m = central_moments(x, 6)
    for idx in [(0, 0), (0, 1), (0, 0, 1, 1), (0, 1, 1, 1), (0, 0, 0, 1, 1, 1)]:
        assert_allclose(m.mu(*idx), brute_force_moment(x, idx), rtol=1e-12)


def test_moment_table_permutation_lookup():
    rng = np.random.default_rng(6)
    x = rng.standard_normal((15, 3))
    m = central_moments(x, 4)
    assert m.mu(2, 0, 1) == m.mu(0, 1, 2)
    assert m.mu(1, 0, 1, 0) == m.mu(0, 0, 1, 1)


def test_translation_invariance():
    rng = np.random.default_rng(7)
    x = rng.standard_normal((40, 3))
    shifted = x + np.array([10.0, -4.0, 0.5])
    m0 = central_moments(x, 6)
    m1 = central_moments(shifted, 6)
    for order in range(2, 7):
        for idx in sorted_multi_indices(3, order):
            assert_allclose(m1.mu(*idx), m0.mu(*idx), rtol=1e-10, atol=1e-10)


def test_scaling_covariance():
    rng = np.random.default_rng(8)
    x = rng.standard_normal((30, 2))
    scale = np.array([2.0, -1.5])
    m0 = central_moments(x, 5)
    m1 = central_moments(x * scale, 5)
    for order in range(2, 6):
        for idx in sorted_multi_indices(2, order):
            factor = np.prod([scale[i] ** idx.count(i) for i in set(idx)])
            assert_allclose(m1.mu(*idx), factor * m0.mu(*idx), rtol=1e-11)


def test_row_permutation_bit_identical():
    rng = np.random.default_rng(9)
    x = rng.standard_normal((31, 3))
    perm = rng.permutation(31)
    m0 = central_moments(x, 6)
    m1 = central_moments(x[perm], 6)
    for order in range(2, 7):
        for idx in sorted_multi_indices(3, order):
            assert m0.mu(*idx) == m1.mu(*idx)


def test_moment_table_completeness_enforced():
    with pytest.raises(ValueError):
        MomentTable(p=2, max_order=2, values={(0, 0): 1.0})
    with pytest.raises(ValueError):
        MomentTable(p=1, max_order=7, values={})
