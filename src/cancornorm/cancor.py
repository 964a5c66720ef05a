"""Squared canonical correlations of partitioned covariance blocks and the
five scalar summaries used as test statistics.

``cancor_eigs`` is the one kernel: it solves the eigenproblem for a stack
of block triples, and both the batched sample path (``engine``) and the
single population or test blocks (``cancor_sq``) go through it.
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


def cancor_eigs(b11: np.ndarray, b12: np.ndarray, b22: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Squared canonical correlations of a (B, ...) stack of block triples.

    The p x p eigenproblem b11^-1 b12 b22^-1 b21 is solved without forming
    inverses: the middle product is built from a linear solve and then
    whitened with the Cholesky factor of b11, giving a symmetric matrix whose
    eigenvalues are real by construction.  Returns the (B, p) eigenvalues,
    sorted descending and clipped to [0, 1], and the (B,) count of raw
    eigenvalues each item had outside [0, 1] within the 1e-8 tolerance.
    """
    for name, block in (("b11 (mean)", b11), ("b22 (moment)", b22)):
        cond = np.linalg.cond(block)
        if np.any(~np.isfinite(cond)) or np.any(cond > CONDITION_LIMIT):
            raise SingularBlockError(
                f"{name} block is numerically singular in {int(np.sum(cond > CONDITION_LIMIT))} "
                "batch item(s)"
            )
    middle = b12 @ np.linalg.solve(b22, np.swapaxes(b12, 1, 2))
    try:
        chol = np.linalg.cholesky(b11)
    except np.linalg.LinAlgError as exc:
        raise SingularBlockError(f"b11 (mean) block is not positive definite: {exc}") from exc
    half = np.linalg.solve(chol, middle)
    sym = np.linalg.solve(chol, np.swapaxes(half, 1, 2))
    sym = 0.5 * (sym + np.swapaxes(sym, 1, 2))
    eigs = np.linalg.eigvalsh(sym)[:, ::-1]
    if np.any(eigs < -EIGENVALUE_TOL) or np.any(eigs > 1.0 + EIGENVALUE_TOL):
        bad = eigs[(eigs < -EIGENVALUE_TOL) | (eigs > 1.0 + EIGENVALUE_TOL)]
        raise EigenvalueRangeError(
            f"squared canonical correlation {bad.flat[0]:.6g} outside [0, 1] beyond "
            f"tolerance {EIGENVALUE_TOL:g}; the covariance blocks are inconsistent"
        )
    clamped = np.sum((eigs < 0.0) | (eigs > 1.0), axis=1)
    return np.clip(eigs, 0.0, 1.0), clamped


def cancor_sq(blocks: CovBlocks) -> CanCorSq:
    """Squared canonical correlations of one set of covariance blocks."""
    eigs, clamped = cancor_eigs(blocks.b11[None], blocks.b12[None], blocks.b22[None])
    return CanCorSq(values=eigs[0], clamped_count=int(clamped[0]))


def _ratio_trace(eigs: np.ndarray) -> np.ndarray:
    if np.any(eigs >= 1.0 - UNIT_ROOT_TOL):
        raise FunctionalDomainError(
            "ratio trace undefined: a squared canonical correlation is at 1"
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


def functional_value(c: CanCorSq, name: str) -> float:
    """One scalar summary of the squared canonical correlations."""
    if name not in _FUNCTIONALS:
        raise ValueError(f"unknown functional {name!r}")
    return float(_FUNCTIONALS[name](c.values[None])[0])


def functionals(c: CanCorSq) -> dict[str, float]:
    """All five summaries: trace, product, ratio trace, largest and smallest."""
    return {name: functional_value(c, name) for name in FUNCTIONAL_NAMES}
