import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from matalg_oracle import (
    commutation,
    duplication_elimination,
    kron,
    unvech,
    vec,
    vech,
)


def test_kron_identity():
    assert_array_equal(kron(np.eye(2), np.eye(2)), np.eye(4))


def test_kron_scalar_block():
    b = np.arange(6.0).reshape(2, 3)
    assert_array_equal(kron(np.array([[2.0]]), b), 2.0 * b)


def test_kron_block_structure():
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    b = np.array([[0.0, 5.0], [6.0, 7.0]])
    k = kron(a, b)
    assert k.shape == (4, 4)
    assert_array_equal(k[0:2, 2:4], 2.0 * b)
    assert_array_equal(k[2:4, 0:2], 3.0 * b)


def test_kron_mixed_product():
    rng = np.random.default_rng(7)
    for _ in range(25):
        a, b = rng.standard_normal((2, 3, 3))
        c, d = rng.standard_normal((2, 3, 3))
        left = kron(a, b) @ kron(c, d)
        right = kron(a @ c, b @ d)
        assert_allclose(left, right, rtol=1e-12, atol=1e-12)


def test_kron_transpose_exact():
    rng = np.random.default_rng(8)
    a = rng.standard_normal((2, 4))
    b = rng.standard_normal((3, 2))
    assert_array_equal(kron(a, b).T, kron(a.T, b.T))


def test_triple_kron_determinant():
    # det(A (x) A (x) A) = det(A)^(3 p^2) for p = 2
    rng = np.random.default_rng(9)
    for _ in range(10):
        a = rng.standard_normal((2, 2))
        if abs(np.linalg.det(a)) < 0.1:
            continue
        kkk = kron(kron(a, a), a)
        expected = np.linalg.det(a) ** 12
        assert_allclose(np.linalg.det(kkk), expected, rtol=1e-8)


def test_vec_identity():
    assert_array_equal(vec(np.eye(2)), np.array([1.0, 0.0, 0.0, 1.0]))


def test_vec_abc_identity():
    rng = np.random.default_rng(10)
    for _ in range(25):
        a, b, c = rng.standard_normal((3, 2, 2))
        assert_allclose(vec(a @ b @ c), kron(c.T, a) @ vec(b), rtol=1e-12, atol=1e-12)


def test_vec_of_symmetric_repeats_offdiagonal():
    s = np.array([[2.0, 0.5], [0.5, 3.0]])
    assert_array_equal(vec(s), np.array([2.0, 0.5, 0.5, 3.0]))


def test_vech_identity():
    assert_array_equal(vech(np.eye(2)), np.array([1.0, 0.0, 1.0]))


def test_vech_rowwise_order():
    a = np.array([[i + j for j in range(1, 4)] for i in range(1, 4)], dtype=float)
    assert_array_equal(vech(a), np.array([2.0, 3.0, 4.0, 4.0, 5.0, 6.0]))


def test_vech_rejects_asymmetric():
    with pytest.raises(ValueError):
        vech(np.array([[1.0, 2.0], [2.1, 1.0]]))
    with pytest.raises(ValueError):
        vech(np.ones((2, 3)))


def test_vech_unvech_round_trip():
    rng = np.random.default_rng(11)
    for p in (1, 2, 3, 5):
        v = rng.standard_normal(p * (p + 1) // 2)
        assert_array_equal(vech(unvech(v)), v)


def test_commutation_p1():
    assert_array_equal(commutation(1), np.array([[1.0]]))


def test_commutation_p3_explicit():
    expected = np.zeros((9, 9))
    ones = [(0, 0), (1, 3), (2, 6), (3, 1), (4, 4), (5, 7), (6, 2), (7, 5), (8, 8)]
    for r, c in ones:
        expected[r, c] = 1.0
    assert_array_equal(commutation(3), expected)


def test_commutation_transposes_vec():
    rng = np.random.default_rng(12)
    for p in (2, 3, 4):
        k = commutation(p)
        a = rng.standard_normal((p, p))
        assert_array_equal(k @ vec(a), vec(a.T))


def test_commutation_involution_and_symmetry():
    for p in (1, 2, 3, 4, 5):
        k = commutation(p)
        assert_array_equal(k @ k, np.eye(p * p))
        assert_array_equal(k, k.T)
        assert_array_equal(k.sum(axis=0), np.ones(p * p))
        assert_array_equal(k.sum(axis=1), np.ones(p * p))


def test_duplication_elimination_p1():
    g, h = duplication_elimination(1)
    assert_array_equal(g, np.array([[1.0]]))
    assert_array_equal(h, np.array([[1.0]]))


def test_elimination_times_duplication_is_identity():
    for p in (1, 2, 3, 4):
        g, h = duplication_elimination(p)
        assert_array_equal(h @ g, np.eye(p * (p + 1) // 2))


def test_duplication_elimination_vech_vec():
    rng = np.random.default_rng(13)
    for p in (2, 3, 4):
        g, h = duplication_elimination(p)
        a = rng.standard_normal((p, p))
        a = a + a.T
        assert_allclose(h @ vec(a), vech(a), rtol=0, atol=0)
        assert_allclose(g @ vech(a), vec(a), rtol=0, atol=0)


@pytest.mark.parametrize("p", [2, 3, 4])
def test_sandwich_determinant(p):
    # det(H (A (x) A) G) = det(A)^(p+1)
    rng = np.random.default_rng(100 + p)
    g, h = duplication_elimination(p)
    for _ in range(10):
        a = rng.standard_normal((p, p))
        if abs(np.linalg.det(a)) < 0.05:
            continue
        d = h @ kron(a, a) @ g
        assert_allclose(np.linalg.det(d), np.linalg.det(a) ** (p + 1), rtol=1e-10)
