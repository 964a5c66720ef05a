"""Test oracle: Kronecker product, vec/vech and commutation/duplication
matrix algebra.

No package code reads these helpers.  They state textbook matrix forms
(Magnus and Neudecker, "Symmetry, 0-1 matrices and Jacobians", Econometric
Theory 2, 1986), against which the tests check the engine's index-gathered
covariance blocks: acceptance criterion 9 compares the z2 b22 with
H[(M4 - vec m2 vec m2^T)/n + (I + K)(m2 (x) m2)/(n(n-1))]H^T, K the
commutation matrix and H the elimination matrix below.

Conventions:

* ``vec`` stacks columns (column-major), so ``vec(A)[c*p + r] = A[r, c]``.
* ``vech`` lists the diagonal and above-diagonal elements row by row:
  ``(A11, A12, ..., A1p, A22, ..., A2p, A33, ..., App)``.  This is the same
  ordering as the engine's distinct pairs, so half-vectorized quantities
  line up with covariance-block rows and columns without any permutation.

All matrices here are small and dense (p rarely exceeds 10), so no sparse
representations are provided.
"""

from __future__ import annotations

import numpy as np

VECH_SYMMETRY_RTOL = 1e-10


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product with block (i, j) equal to ``a[i, j] * b``."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim != 2 or b.ndim != 2:
        raise ValueError("kron expects two 2-d arrays")
    return np.kron(a, b)


def vec(a: np.ndarray) -> np.ndarray:
    """Stack the columns of ``a`` into a single vector."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2:
        raise ValueError("vec expects a 2-d array")
    return a.reshape(-1, order="F").copy()


def vech(a: np.ndarray) -> np.ndarray:
    """Half-vectorization of a symmetric matrix (row-by-row upper triangle).

    Raises ``ValueError`` for non-square input or asymmetry beyond a relative
    tolerance of 1e-10; the inputs this library feeds here are exact sample
    covariance matrices, so asymmetry indicates a bug upstream and is not
    silently symmetrized.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"vech expects a square matrix, got shape {a.shape}")
    scale = max(float(np.max(np.abs(a))), 1e-300)
    if float(np.max(np.abs(a - a.T))) > VECH_SYMMETRY_RTOL * scale:
        raise ValueError("vech input is not symmetric within tolerance")
    return a[np.triu_indices(a.shape[0])].copy()


def unvech(v: np.ndarray) -> np.ndarray:
    """Rebuild the symmetric matrix whose vech equals ``v``."""
    v = np.asarray(v, dtype=float)
    m = v.shape[0]
    p = int(round((np.sqrt(8 * m + 1) - 1) / 2))
    if p * (p + 1) // 2 != m:
        raise ValueError(f"vector of length {m} is not a valid vech")
    out = np.zeros((p, p))
    rows, cols = np.triu_indices(p)
    out[rows, cols] = v
    out[cols, rows] = v
    return out


def commutation(p: int) -> np.ndarray:
    """The p^2 x p^2 commutation matrix K with K @ vec(A) = vec(A.T).

    K is a symmetric permutation matrix and an involution (K @ K = I).
    """
    if p < 1:
        raise ValueError("p must be >= 1")
    k = np.zeros((p * p, p * p))
    for r in range(p):
        for c in range(p):
            k[c * p + r, r * p + c] = 1.0
    return k


def duplication_elimination(p: int) -> tuple[np.ndarray, np.ndarray]:
    """Duplication matrix G and elimination matrix H for dimension p.

    ``G @ vech(A) == vec(A)`` for symmetric A, ``H @ vec(A) == vech(A)``,
    and ``H @ G`` is the identity of size p(p+1)/2.
    """
    if p < 1:
        raise ValueError("p must be >= 1")
    q = p * (p + 1) // 2
    g = np.zeros((p * p, q))
    h = np.zeros((q, p * p))
    rows, cols = np.triu_indices(p)
    for t, (i, j) in enumerate(zip(rows, cols)):
        g[j * p + i, t] = 1.0
        g[i * p + j, t] = 1.0
        # H reads one representative of each distinct element.
        h[t, j * p + i] = 1.0
    return g, h
