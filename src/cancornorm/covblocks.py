"""The scalar reference path, from moments to blocks to canonical
correlations, one sample or population at a time on dicts in Python loops.
No command runs it; the tests compare ``engine`` with it.

Moments.  Central moments up to order six, of a sample (``central_moments``)
or of an alternative (``population_moments``, from the dense tensors that
``alternatives`` builds its population values from), are indexed by
nondecreasing multi-indices (0-based coordinates); accessors sort their
argument, so any permutation of an index retrieves the same stored value.
Sums over observations are computed on sorted addends, which makes every
sample moment invariant, bit for bit, under permutations of the rows of the
data matrix.

Blocks.  The covariance blocks of (mean vector, distinct covariances) and
(mean vector, distinct third moments) have, for sample size n and central
moments mu, the second-order entries

    b11[i, j]          = mu_ij / n
    b12[i, (j,k)]      = mu_ijk / n
    b22[(i,j), (k,l)]  = (mu_ijkl - mu_ij mu_kl)/n
                         + (mu_ik mu_jl + mu_il mu_jk)/(n(n-1))

The third-order family couples the mean with the vector of distinct third
moments; its b22 mixes a sixth-order term with sums over prescribed sets of
index permutations.  Those sets are subtle, so they are materialized once as
explicit term lists (``engine.permutation_scheme``, which the engine's term
map is built from too) and instantiated here with concrete indices; the term
lists themselves are unit-tested against a full 6! enumeration.  Passing
``n=None`` builds the large-n limit of the blocks: the common 1/n scale
(which cancels in the canonical-correlation eigenproblem) is dropped and the
O(1/n) corrections vanish.

Canonical correlations.  ``cancor_sq`` solves one set of blocks with the
engine's kernel (``engine.checked_factor``, ``engine.cancor_eigs``), then
counts the eigenvalues outside [0, 1] within tolerance and clips them; the
engine clips without counting.

This module imports from ``alternatives``, ``engine`` and ``stats``; no
runtime module imports it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations_with_replacement
from typing import Iterator, Mapping

import numpy as np

from .alternatives import AlternativeSpec, _population_tensors
from .engine import (
    _SINGULAR_BLOCK,
    _elementwise,
    cancor_eigs,
    checked_factor,
    permutation_scheme,
    second_order_threshold,
    third_order_threshold,
)
from .errors import SampleSizeError, SingularBlockError
from .stats import as_sample

MAX_MOMENT_ORDER = 6


def _ordered_sum(a: np.ndarray) -> float:
    # Sorting first makes the summation order independent of row order.
    return float(np.sum(np.sort(a)))


def sorted_multi_indices(p: int, order: int) -> Iterator[tuple[int, ...]]:
    """All nondecreasing index tuples of the given order over 0..p-1."""
    return combinations_with_replacement(range(p), order)


def pair_indices(p: int) -> list[tuple[int, int]]:
    """Distinct (i, j) with i <= j, in the order used for covariance vectors."""
    return list(combinations_with_replacement(range(p), 2))


def triple_indices(p: int) -> list[tuple[int, int, int]]:
    """Distinct (i, j, k) with i <= j <= k, in third-moment vector order."""
    return list(combinations_with_replacement(range(p), 3))


@dataclass
class MomentTable:
    """Central moments m[i1..is] for all sorted multi-indices of order 2..max_order."""

    p: int
    max_order: int
    values: Mapping[tuple[int, ...], float] = field(repr=False)

    def __post_init__(self):
        if not 2 <= self.max_order <= MAX_MOMENT_ORDER:
            raise ValueError(f"max_order must be in 2..{MAX_MOMENT_ORDER}")
        missing = [
            idx
            for order in range(2, self.max_order + 1)
            for idx in sorted_multi_indices(self.p, order)
            if idx not in self.values
        ]
        if missing:
            raise ValueError(f"moment table incomplete, first missing index {missing[0]}")

    def mu(self, *index: int) -> float:
        """Central moment for the given index; any permutation is accepted."""
        key = tuple(sorted(index))
        if not 2 <= len(key) <= self.max_order:
            raise ValueError(f"moment order {len(key)} outside 2..{self.max_order}")
        if key and (key[0] < 0 or key[-1] >= self.p):
            raise ValueError(f"index {key} out of range for p={self.p}")
        return self.values[key]

    def __getitem__(self, index) -> float:
        return self.mu(*index)


def sample_mean(x) -> np.ndarray:
    s = as_sample(x)
    return np.array([_ordered_sum(s.data[:, j]) / s.n for j in range(s.p)])


def central_moments(x, max_order: int) -> MomentTable:
    """Plug-in central sample moments (divisor n) up to ``max_order``.

    Two-pass centering is used: the mean is removed first and moments are
    accumulated from centered products, which keeps the order-6 entries
    accurate enough for the sixth-order covariance blocks.
    """
    if not 2 <= max_order <= MAX_MOMENT_ORDER:
        raise ValueError(f"max_order must be in 2..{MAX_MOMENT_ORDER}")
    s = as_sample(x)
    xc = s.data - sample_mean(s)
    values: dict[tuple[int, ...], float] = {}
    # Products are built by extending the shared prefix one coordinate at a
    # time; lexicographic enumeration guarantees the prefix already exists.
    products: dict[tuple[int, ...], np.ndarray] = {(): np.ones(s.n)}
    for order in range(1, max_order + 1):
        for idx in sorted_multi_indices(s.p, order):
            prod = products[idx[:-1]] * xc[:, idx[-1]]
            if order < max_order:
                products[idx] = prod
            if order >= 2:
                values[idx] = _ordered_sum(prod) / s.n
    return MomentTable(p=s.p, max_order=max_order, values=values)


def population_moments(spec: AlternativeSpec, max_order: int = 6) -> MomentTable:
    """Population central moments of an alternative, orders 2 .. max_order:
    its dense moment tensors (``alternatives._population_tensors``) read at
    every sorted multi-index.  Exact for the closed forms, quadrature-grade
    for the gamma ratios."""
    if not 2 <= max_order <= MAX_MOMENT_ORDER:
        raise ValueError(f"max_order must be in 2..{MAX_MOMENT_ORDER}")
    orders = range(2, max_order + 1)
    values = {
        idx: float(tensor[idx])
        for order, tensor in zip(orders, _population_tensors(spec, orders))
        for idx in sorted_multi_indices(spec.p, order)
    }
    return MomentTable(p=spec.p, max_order=max_order, values=values)


@dataclass(frozen=True)
class CovBlocks:
    """Partitioned covariance blocks; ``order`` is 2 for the covariance
    family and 3 for the third-moment family.  ``n`` is None for the
    large-n limit."""

    order: int
    b11: np.ndarray
    b12: np.ndarray
    b22: np.ndarray
    n: int | None
    p: int

    @property
    def q(self) -> int:
        return self.b22.shape[0]

    def __post_init__(self):
        if self.order not in (2, 3):
            raise ValueError("order must be 2 or 3")
        q = len(pair_indices(self.p)) if self.order == 2 else len(triple_indices(self.p))
        if self.b11.shape != (self.p, self.p) or self.b12.shape != (self.p, q) \
                or self.b22.shape != (q, q):
            raise ValueError("inconsistent block dimensions")
        for name, block in (("b11", self.b11), ("b22", self.b22)):
            scale = max(float(np.max(np.abs(block))), 1e-300)
            if float(np.max(np.abs(block - block.T))) > 1e-10 * scale:
                raise ValueError(f"{name} is not symmetric within tolerance")


def centered_fourth(m: MomentTable, i: int, j: int, k: int, l: int) -> float:
    """mu_ijkl minus its three pair-product contractions.

    Vanishes identically when the moments are those of a normal distribution.
    """
    return (
        m.mu(i, j, k, l)
        - m.mu(i, j) * m.mu(k, l)
        - m.mu(i, k) * m.mu(j, l)
        - m.mu(i, l) * m.mu(j, k)
    )


def sixth_order_term(m: MomentTable, indices: tuple[int, ...]) -> float:
    """The sixth-order joint cumulant-style term lambda_{ijkrst}.

    This is the full sixth central moment with all lower-order structure
    removed; it is zero for every index combination when the moment table is
    Gaussian, which is tested directly.
    """
    if len(indices) != 6:
        raise ValueError("sixth_order_term needs exactly 6 indices")
    c = indices
    total = m.mu(*c)
    for (a, b), rest in permutation_scheme("sum15_pair"):
        total -= m.mu(c[a], c[b]) * centered_fourth(m, *(c[s] for s in rest))
    for tri1, tri2 in permutation_scheme("sum10_triple"):
        total -= m.mu(*(c[s] for s in tri1)) * m.mu(*(c[s] for s in tri2))
    for pairs in permutation_scheme("sum15_matching"):
        prod = 1.0
        for a, b in pairs:
            prod *= m.mu(c[a], c[b])
        total -= prod
    return total


def _third_cov_entry(m: MomentTable, ijk, rst, n: int | None) -> float:
    """Covariance of two third-order sample moments for concrete indices."""
    c = tuple(ijk) + tuple(rst)
    pair9 = 0.0
    for (a, b), rest in permutation_scheme("sum9_pair"):
        pair9 += m.mu(c[a], c[b]) * centered_fourth(m, *(c[s] for s in rest))
    triple9 = 0.0
    for tri1, tri2 in permutation_scheme("sum9_triple"):
        triple9 += m.mu(*(c[s] for s in tri1)) * m.mu(*(c[s] for s in tri2))
    match6 = 0.0
    for pairs in permutation_scheme("sum6_matching"):
        prod = 1.0
        for a, b in pairs:
            prod *= m.mu(c[a], c[b])
        match6 += prod
    lam = sixth_order_term(m, c)
    if n is None:
        return lam + pair9 + triple9 + match6
    return lam / n + (pair9 + triple9) / (n - 1) + match6 * n / ((n - 1) * (n - 2))


def lambda_blocks(m: MomentTable, n: int | None) -> CovBlocks:
    """Covariance blocks of the (mean, distinct covariances) vector."""
    if m.max_order < 4:
        raise ValueError("second-order blocks need moments up to order 4")
    p = m.p
    if n is not None and n < second_order_threshold(p):
        raise SampleSizeError(
            f"second-order blocks need n >= {second_order_threshold(p)} for p={p}, got n={n}"
        )
    pairs = pair_indices(p)
    q = len(pairs)
    scale = 1.0 if n is None else 1.0 / n
    b11 = np.array([[m.mu(i, j) * scale for j in range(p)] for i in range(p)])
    b12 = np.array([[m.mu(i, j, k) * scale for (j, k) in pairs] for i in range(p)])
    b22 = np.empty((q, q))
    # Both triangles are evaluated from the formula; symmetry of the result
    # is a consequence of moment-index symmetry, checked by CovBlocks.
    for a, (i, j) in enumerate(pairs):
        for b, (k, l) in enumerate(pairs):
            entry = (m.mu(i, j, k, l) - m.mu(i, j) * m.mu(k, l)) * scale
            if n is not None:
                entry += (m.mu(i, k) * m.mu(j, l) + m.mu(i, l) * m.mu(j, k)) / (n * (n - 1))
            b22[a, b] = entry
    return CovBlocks(order=2, b11=b11, b12=b12, b22=b22, n=n, p=p)


def psi_blocks(m: MomentTable, n: int | None) -> CovBlocks:
    """Covariance blocks of the (mean, distinct third moments) vector."""
    if m.max_order < 6:
        raise ValueError("third-order blocks need moments up to order 6")
    p = m.p
    if n is not None and n < third_order_threshold(p):
        raise SampleSizeError(
            f"third-order blocks need n >= {third_order_threshold(p)} for p={p}, got n={n}"
        )
    triples = triple_indices(p)
    q = len(triples)
    scale = 1.0 if n is None else 1.0 / n
    b11 = np.array([[m.mu(i, j) * scale for j in range(p)] for i in range(p)])
    b12 = np.array(
        [[centered_fourth(m, i, r, s, t) * scale for (r, s, t) in triples] for i in range(p)]
    )
    b22 = np.empty((q, q))
    for a, ijk in enumerate(triples):
        for b, rst in enumerate(triples):
            b22[a, b] = _third_cov_entry(m, ijk, rst, n)
    return CovBlocks(order=3, b11=b11, b12=b12, b22=b22, n=n, p=p)


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


def cancor_sq(blocks: CovBlocks) -> CanCorSq:
    """Squared canonical correlations of one set of covariance blocks."""
    inv11 = checked_factor(blocks.b11[None], SingularBlockError, f"b11 (mean) {_SINGULAR_BLOCK}",
                           _elementwise(len(blocks.b11)))
    eigs = cancor_eigs(inv11, blocks.b12[None], blocks.b22[None])[0]
    clamped = int(np.sum((eigs < 0.0) | (eigs > 1.0)))
    return CanCorSq(values=np.clip(eigs, 0.0, 1.0), clamped_count=clamped)
