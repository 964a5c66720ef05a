"""Sample and population central moments up to order six.

Moments are indexed by nondecreasing multi-indices (0-based coordinates);
accessors sort their argument, so any permutation of an index retrieves the
same stored value.  Sums over observations are computed on sorted addends,
which makes every moment invariant, bit for bit, under permutations of the
rows of the data matrix.  These tables feed the scalar block builders of
``covblocks`` and the test oracles, and ``alternatives.population_moments``
returns one; the statistics of a sample are computed by ``engine``, whose
row-permutation invariance comes from the canonical row order that
``stats.compute_statistics`` imposes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations_with_replacement
from typing import Iterator, Mapping

import numpy as np

MAX_MOMENT_ORDER = 6


def _ordered_sum(a: np.ndarray) -> float:
    # Sorting first makes the summation order independent of row order.
    return float(np.sum(np.sort(a)))


@dataclass(frozen=True)
class Sample:
    """An n x p data matrix, observations in rows."""

    data: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.data, dtype=float)
        if arr.ndim != 2:
            raise ValueError(f"sample must be a 2-d array, got ndim={arr.ndim}")
        n, p = arr.shape
        if n < 2:
            raise ValueError(f"sample needs at least 2 observations, got {n}")
        if p < 1:
            raise ValueError("sample needs at least 1 coordinate")
        if not np.all(np.isfinite(arr)):
            raise ValueError("sample contains non-finite entries")
        object.__setattr__(self, "data", arr)

    @property
    def n(self) -> int:
        return self.data.shape[0]

    @property
    def p(self) -> int:
        return self.data.shape[1]


def as_sample(x) -> Sample:
    return x if isinstance(x, Sample) else Sample(np.asarray(x, dtype=float))


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
