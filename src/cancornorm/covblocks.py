"""Covariance blocks of (mean vector, distinct covariances) and
(mean vector, distinct third moments).

The entries of the second-order family are, for sample size n and central
moments mu,

    b11[i, j]          = mu_ij / n
    b12[i, (j,k)]      = mu_ijk / n
    b22[(i,j), (k,l)]  = (mu_ijkl - mu_ij mu_kl)/n
                         + (mu_ik mu_jl + mu_il mu_jk)/(n(n-1))

The third-order family couples the mean with the vector of distinct third
moments; its b22 mixes a sixth-order term with sums over prescribed sets of
index permutations.  Those sets are subtle, so they are materialized once as
explicit term lists (``permutation_scheme``) and instantiated with concrete
indices; the term lists themselves are unit-tested against a full 6!
enumeration.

Passing ``n=None`` builds the large-n limit of the blocks: the common 1/n
scale (which cancels in the canonical-correlation eigenproblem) is dropped
and the O(1/n) corrections vanish.

The statistics and population values themselves are computed by ``engine``
from the term lists; the scalar block builders here (``lambda_blocks``,
``psi_blocks``) are the reference its tests compare against.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, permutations

import numpy as np

from .errors import SampleSizeError
from .moments import MomentTable, pair_indices, triple_indices

SCHEME_LABELS = (
    "sum9_pair",
    "sum9_triple",
    "sum3_pairpair",
    "sum6_matching",
    "sum15_pair",
    "sum10_triple",
    "sum15_matching",
)


@dataclass(frozen=True)
class PermutationScheme:
    """An explicit list of slot-index assignments for one permutation sum.

    Terms refer to abstract slot positions (0..5 for six-index schemes,
    0..3 for the four-index pair-pair scheme); callers substitute concrete
    coordinate indices for the slots.
    """

    label: str
    terms: tuple[tuple[tuple[int, ...], ...], ...]


def _pair_partitions(slots: tuple[int, ...]) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """The 3 ways of splitting 4 slots into two unordered pairs."""
    a, rest = slots[0], slots[1:]
    out = []
    for b in rest:
        other = tuple(s for s in rest if s != b)
        out.append(((a, b), other))
    return out


def _matchings(slots: tuple[int, ...]) -> list[tuple[tuple[int, int], ...]]:
    """All perfect matchings of an even set of slots into unordered pairs."""
    if not slots:
        return [()]
    a, rest = slots[0], slots[1:]
    out = []
    for i, b in enumerate(rest):
        remaining = rest[:i] + rest[i + 1 :]
        for sub in _matchings(remaining):
            out.append(((a, b),) + sub)
    return out


def _triple_partitions(slots: tuple[int, ...]) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """The 10 unordered splits of 6 slots into two triples."""
    first = slots[0]
    out = []
    for pair in combinations(slots[1:], 2):
        tri = (first,) + pair
        other = tuple(s for s in slots if s not in tri)
        out.append((tri, other))
    return out


def _build_scheme(label: str) -> PermutationScheme:
    six = (0, 1, 2, 3, 4, 5)
    if label == "sum3_pairpair":
        terms = tuple(_pair_partitions((0, 1, 2, 3)))
    elif label == "sum6_matching":
        # Each of the first three slots is matched with one of the last three.
        terms = tuple(
            tuple(zip((0, 1, 2), perm)) for perm in permutations((3, 4, 5))
        )
    elif label == "sum9_pair":
        # First factor takes one slot from {0,1,2} and one from {3,4,5};
        # the remaining four slots feed the centered fourth-moment factor.
        terms = tuple(
            ((a, b), tuple(s for s in six if s not in (a, b)))
            for a in (0, 1, 2)
            for b in (3, 4, 5)
        )
    elif label == "sum9_triple":
        terms = tuple(
            t for t in _triple_partitions(six) if t != ((0, 1, 2), (3, 4, 5))
        )
    elif label == "sum15_pair":
        terms = tuple(
            ((a, b), tuple(s for s in six if s not in (a, b)))
            for a, b in combinations(six, 2)
        )
    elif label == "sum10_triple":
        terms = tuple(_triple_partitions(six))
    elif label == "sum15_matching":
        terms = tuple(_matchings(six))
    else:
        raise ValueError(f"unknown permutation scheme {label!r}")
    return PermutationScheme(label=label, terms=terms)


_SCHEMES = {label: _build_scheme(label) for label in SCHEME_LABELS}


def permutation_scheme(label: str) -> PermutationScheme:
    """Return the term list for one of the named permutation sums."""
    try:
        return _SCHEMES[label]
    except KeyError:
        raise ValueError(f"unknown permutation scheme {label!r}") from None


def second_order_threshold(p: int) -> int:
    return 2 * p + p * (p - 1) // 2


def third_order_threshold(p: int) -> int:
    return 2 * p + p * (p - 1) + p * (p - 1) * (p - 2) // 6


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
    for (a, b), rest in permutation_scheme("sum15_pair").terms:
        total -= m.mu(c[a], c[b]) * centered_fourth(m, *(c[s] for s in rest))
    for tri1, tri2 in permutation_scheme("sum10_triple").terms:
        total -= m.mu(*(c[s] for s in tri1)) * m.mu(*(c[s] for s in tri2))
    for pairs in permutation_scheme("sum15_matching").terms:
        prod = 1.0
        for a, b in pairs:
            prod *= m.mu(c[a], c[b])
        total -= prod
    return total


def _third_cov_entry(m: MomentTable, ijk, rst, n: int | None) -> float:
    """Covariance of two third-order sample moments for concrete indices."""
    c = tuple(ijk) + tuple(rst)
    pair9 = 0.0
    for (a, b), rest in permutation_scheme("sum9_pair").terms:
        pair9 += m.mu(c[a], c[b]) * centered_fourth(m, *(c[s] for s in rest))
    triple9 = 0.0
    for tri1, tri2 in permutation_scheme("sum9_triple").terms:
        triple9 += m.mu(*(c[s] for s in tri1)) * m.mu(*(c[s] for s in tri2))
    match6 = 0.0
    for pairs in permutation_scheme("sum6_matching").terms:
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
