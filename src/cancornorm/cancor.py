"""Squared canonical correlations of partitioned covariance blocks and the
five summaries used as test statistics.

``cancor_eigs`` is the one kernel: it solves the eigenproblem for a stack
of block triples, and both the batched sample path (``engine``) and the
single blocks of the scalar reference path (``cancor_sq``) go through it.
``batch_functionals`` maps a stack of eigenvalues to all five summaries.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .covblocks import CovBlocks
from .errors import EigenvalueRangeError, FunctionalDomainError, SingularBlockError

CONDITION_LIMIT = 1e12
EIGENVALUE_TOL = 1e-8
UNIT_ROOT_TOL = 1e-12

FUNCTIONAL_NAMES = ("hl", "w", "pb", "max", "min")


@dataclass(frozen=True)
class CanCorSq:
    """Squared canonical correlations, sorted descending.

    ``clamped_count`` records how many raw eigenvalues were nudged back into
    [0, 1]; violations beyond a tolerance of 1e-8 are an error instead.
    """

    values: np.ndarray
    clamped_count: int

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if np.any(v[:-1] < v[1:]):
            raise ValueError("squared canonical correlations must be sorted descending")
        if v[0] > 1.0 or v[-1] < 0.0:
            raise ValueError("squared canonical correlations must lie in [0, 1]")
        object.__setattr__(self, "values", v)


def _lower_inverse(chol: np.ndarray) -> np.ndarray:
    """Inverse of each lower-triangular matrix of a (B, k, k) stack, by
    forward substitution one row at a time."""
    inv = np.zeros_like(chol)
    diag = np.diagonal(chol, axis1=-2, axis2=-1)
    for i in range(chol.shape[-1]):
        inv[:, i, :i] = -(chol[:, i, None, :i] @ inv[:, :i, :i])[:, 0] / diag[:, i, None]
        inv[:, i, i] = 1.0 / diag[:, i]
    return inv


def whitening_factor(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Inverse Cholesky factors of a (B, k, k) stack and a condition figure
    per item that decides singularity as the exact condition number would.

    With a = L L^T, L^-1 a L^-T = I, and cond_2(a) = (|L|_2 |L^-1|_2)^2 is at
    most the certified bound (|L|_F |L^-1|_F)^2, itself at most k^2 cond_2(a).
    The figure is that bound where it is <= CONDITION_LIMIT; where it is
    larger, the exact ``np.linalg.cond`` of those items only is computed
    instead, so ``figure <= CONDITION_LIMIT`` accepts exactly the items the
    exact condition number accepts, and a well-conditioned stack costs no
    SVD.  An item with no Cholesky factor (not positive definite, or not
    finite) has figure inf.  Only the lower triangle of ``a`` is factored.
    Returns (L^-1, figure).
    """
    try:
        chol = np.linalg.cholesky(a)
        factored = np.ones(len(a), dtype=bool)
    except np.linalg.LinAlgError:
        # One failure fails the whole stack; factor item by item to find it.
        chol = np.full_like(a, np.nan)
        factored = np.zeros(len(a), dtype=bool)
        for b, item in enumerate(a):
            try:
                chol[b] = np.linalg.cholesky(item)
                factored[b] = True
            except np.linalg.LinAlgError:
                pass
    inv = _lower_inverse(chol)
    bound = np.einsum("bij,bij->b", chol, chol) * np.einsum("bij,bij->b", inv, inv)
    figure = np.where(factored, bound, np.inf)
    suspect = np.flatnonzero(factored & ~(figure <= CONDITION_LIMIT))
    if suspect.size:
        figure[suspect] = np.linalg.cond(a[suspect])
    return inv, figure


def checked_factor(name: str, block: np.ndarray) -> np.ndarray:
    """L^-1 of each matrix of a (B, k, k) stack of covariance blocks, after
    ``whitening_factor`` has checked it: an item is accepted when the
    certified bound on its condition number is within CONDITION_LIMIT (only
    an item whose bound exceeds the limit pays for the exact
    ``np.linalg.cond``).  A block that fails, or that has no Cholesky
    factor, raises ``SingularBlockError`` naming the block and the first
    failing item.
    """
    inv, figure = whitening_factor(block)
    bad = np.flatnonzero(~(figure <= CONDITION_LIMIT))
    if bad.size:
        raise SingularBlockError(
            f"{name} block is numerically singular or not positive definite in "
            f"{bad.size} batch item(s), first item {bad[0]}",
            item=int(bad[0]),
        )
    return inv


def cancor_eigs(inv11: np.ndarray, b12: np.ndarray, b22: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Squared canonical correlations of a (B, ...) stack of block triples,
    given b11 as its ``checked_factor`` L11^-1, so that families sharing a
    b11 factor it once.

    b22 is checked and factored by ``checked_factor``.  The eigenproblem
    b11^-1 b12 b22^-1 b21 then becomes W^T W with W = L22^-1 b21 L11^-T,
    symmetric positive semidefinite by construction, so no inverse or
    general solve is formed.  Returns the (B, p) eigenvalues, sorted
    descending and clipped to [0, 1], and the (B,) count of raw eigenvalues
    each item had outside [0, 1] within the 1e-8 tolerance.
    """
    inv22 = checked_factor("b22 (moment)", b22)
    w = inv22 @ np.swapaxes(b12, 1, 2) @ np.swapaxes(inv11, 1, 2)
    eigs = np.linalg.eigvalsh(np.swapaxes(w, 1, 2) @ w)[:, ::-1]
    outside = (eigs < -EIGENVALUE_TOL) | (eigs > 1.0 + EIGENVALUE_TOL)
    if np.any(outside):
        item = int(np.flatnonzero(outside.any(axis=1))[0])
        raise EigenvalueRangeError(
            f"squared canonical correlation {eigs[outside][0]:.6g} outside [0, 1] beyond "
            f"tolerance {EIGENVALUE_TOL:g} in batch item {item}; the covariance blocks "
            "are inconsistent",
            item=item,
        )
    clamped = np.sum((eigs < 0.0) | (eigs > 1.0), axis=1)
    return np.clip(eigs, 0.0, 1.0), clamped


def cancor_sq(blocks: CovBlocks) -> CanCorSq:
    """Squared canonical correlations of one set of covariance blocks."""
    inv11 = checked_factor("b11 (mean)", blocks.b11[None])
    eigs, clamped = cancor_eigs(inv11, blocks.b12[None], blocks.b22[None])
    return CanCorSq(values=eigs[0], clamped_count=int(clamped[0]))


def _ratio_trace(eigs: np.ndarray) -> np.ndarray:
    at_one = np.any(eigs >= 1.0 - UNIT_ROOT_TOL, axis=1)
    if np.any(at_one):
        item = int(np.flatnonzero(at_one)[0])
        raise FunctionalDomainError(
            f"ratio trace undefined: a squared canonical correlation is at 1 in batch item {item}",
            item=item,
        )
    return np.sum(eigs / (1.0 - eigs), axis=1)


# Each maps (B, k) eigenvalues, sorted descending, to (B,) summaries.
_FUNCTIONALS = {
    "hl": lambda eigs: eigs.sum(axis=1),
    "w": lambda eigs: np.prod(1.0 - eigs, axis=1),
    "pb": _ratio_trace,
    "max": lambda eigs: eigs[:, 0],
    "min": lambda eigs: eigs[:, -1],
}


def batch_functionals(eigs: np.ndarray) -> dict[str, np.ndarray]:
    """All five summaries per row of a (B, k) stack of eigenvalues."""
    return {name: f(eigs) for name, f in _FUNCTIONALS.items()}
