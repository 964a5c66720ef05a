"""Evaluation of the twelve statistics over batches of samples, and of
their large-n limits from population moments.

This is the one numerical path from moments to statistic values: null
calibration and power studies call ``evaluate_batch`` on (B, n, p) stacks,
the per-sample functions in ``stats`` call it on a stack of one, and the
population values call ``evaluate_population_batch`` on a stack of
alternatives (one alternative is a stack of one).  All moment
tensors and covariance blocks are built as batched array operations.  The
module also holds what the scalar reference ``covblocks`` shares with it,
so that the reference depends on the runtime and never the other way
round: the eigen step (``checked_factor``, ``cancor_eigs``,
``batch_functionals``), the term lists of the permutation sums
(``permutation_scheme``) and the sample-size thresholds.  ``cancor_eigs``
range-checks the eigenvalues without clipping them: this module clips them
for ``batch_functionals``, and ``covblocks`` counts the ones it clips.  The
module imports nothing from the package but ``errors``.

There are two steps.  The first makes whitened moments on the distinct
coordinates.  Every sample is centered and whitened before any moment is
formed, observation-major: a chunk is held as (B, p, n) from centering on,
so that every reduction and product runs along rows of n contiguous values.
Each centered column is first scaled by the power of two at its largest
magnitude, which is exact, so that its cross products neither overflow nor
underflow in any units and every later bit is what the unscaled column would
give.  The covariance is then equilibrated to a correlation matrix
D^-1/2 cov D^-1/2 = L L^T, and the data are whitened as y = L^-1 D^-1/2 xc,
so its second moments m2 are the identity up to roundoff.  The same Cholesky
factor certifies that the sample is not degenerate (see
``equilibrated_condition``).  From y come the distinct pair products P,
(B, C(p+1, 2), n), and triple products T, (B, C(p+2, 3), n), one slab
multiply per leading index, and every higher moment is one of three batched
Gram products on them: m3 = y P^T / n (each coordinate with each pair),
m4 = P P^T / n (the pair Gram, which holds every fourth moment) and the
sixth moments on pairs of distinct triples, T T^T / n^2, so no tensor with
repeated coordinates, p^6 or otherwise, is formed.  A population's dense
moment tensors are whitened by the same factor of its covariance, each
population of a stack by its own, and read at the same distinct
coordinates.

The second step builds the covariance blocks of both families from these
whitened moments, under the weights of a sample size n or of the large-n
limit, and b11 = m2 (over n) is factored once for both.  The z2 blocks are
read straight from m3 and the pair Gram, whose b22 loses the products of m2
and gains its small-sample correction.
The fourth cumulants k4 are formed on the C(p+3, 4) sorted quadruples only,
and the third-order b12 is k4 over (coordinate, triple).  The third-order
b22 relies on m2 = I: every m2 factor in its permutation sums is a Kronecker
delta, so those sums are fixed linear combinations of the fourth cumulants,
of products of two third moments and of constants.  They are precompiled,
per dimension p, into one term map derived from the very same term lists
(``permutation_scheme``) that ``covblocks`` reads, so there is a single
source of truth for the combinatorics: each entry of b22 is a short
weighted sum of at most eleven inputs (p <= 6), applied with numpy gathers,
slot by slot; the 1/n, 1/(n-1) and n/((n-1)(n-2)) weights (all 1 in magnitude in the limit) are folded
into the map before it is applied.  The sixth moments enter as they are.
The Mardia statistics are the sum of the squared third moments and the sum
of the fourth moments m4[(ii), (jj)].  Every array handed to a matrix
product is C-contiguous or a transposed view of one, so each item's
products take the same path, and give the same bits, whatever the batch
size.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, combinations_with_replacement, pairwise, permutations
from typing import NamedTuple

import numpy as np

from .errors import (
    DegenerateSampleError,
    EigenvalueRangeError,
    FunctionalDomainError,
    SampleSizeError,
    SingularBlockError,
)

CONDITION_LIMIT = 1e12
EIGENVALUE_TOL = 1e-8
UNIT_ROOT_TOL = 1e-12

FUNCTIONAL_NAMES = ("hl", "w", "pb", "max", "min")
FAMILIES = ("z2", "z3", "mardia_skew", "mardia_kurt")


@dataclass(frozen=True)
class StatisticId:
    """Identifies one of the twelve test statistics.

    ``functional`` selects the canonical-correlation summary for the z2/z3
    families and must be None for the two classical statistics.  The
    rejection tail is determined by the statistic: the product functional
    rejects for small values, everything else for large values.  (Kurtosis
    rejecting upward only, rather than two sided, is what reproduces the
    benchmark power tables; the short-tailed rows there have power 0.)
    """

    family: str
    functional: str | None = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if self.family in ("z2", "z3"):
            if self.functional not in FUNCTIONAL_NAMES:
                raise ValueError(f"family {self.family} needs a functional, got {self.functional!r}")
        elif self.functional is not None:
            raise ValueError(f"family {self.family} does not take a functional")

    @property
    def tail(self) -> str:
        return "lower" if self.functional == "w" else "upper"

    @property
    def name(self) -> str:
        return self.family if self.functional is None else f"{self.family}_{self.functional}"

    @classmethod
    def parse(cls, name: str) -> "StatisticId":
        name = name.strip().lower()
        if name in ("mardia_skew", "mardia_kurt"):
            return cls(family=name)
        for fam in ("z2", "z3"):
            prefix = fam + "_"
            if name.startswith(prefix):
                return cls(family=fam, functional=name[len(prefix):])
        raise ValueError(f"unknown statistic {name!r}")

    def __str__(self) -> str:
        return self.name


ALL_STATISTICS: tuple[StatisticId, ...] = (
    (StatisticId("mardia_skew"), StatisticId("mardia_kurt"))
    + tuple(StatisticId("z2", f) for f in FUNCTIONAL_NAMES)
    + tuple(StatisticId("z3", f) for f in FUNCTIONAL_NAMES)
)


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


def _check_condition(figure: np.ndarray, error: type, label: str) -> None:
    """Raise ``error`` when a condition figure of a stack exceeds
    CONDITION_LIMIT (or is not a number): the message is ``label`` with the
    count of failing items and the first of them, which is the error's
    ``item``."""
    bad = np.flatnonzero(~(figure <= CONDITION_LIMIT))
    if bad.size:
        raise error(
            f"{label} in {bad.size} batch item(s), first item {bad[0]}", item=int(bad[0])
        )


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
    _check_condition(
        figure, SingularBlockError,
        f"{name} block is numerically singular or not positive definite",
    )
    return inv


def cancor_eigs(inv11: np.ndarray, b12: np.ndarray, b22: np.ndarray) -> np.ndarray:
    """Squared canonical correlations of a (B, ...) stack of block triples,
    given b11 as its ``checked_factor`` L11^-1, so that families sharing a
    b11 factor it once.

    b22 is checked and factored by ``checked_factor``.  The eigenproblem
    b11^-1 b12 b22^-1 b21 then becomes W^T W with W = L22^-1 b21 L11^-T,
    symmetric positive semidefinite by construction, so no inverse or
    general solve is formed.  Returns the (B, p) eigenvalues, sorted
    descending and checked to lie in [0, 1] within EIGENVALUE_TOL, but not
    clipped: the caller clips them, and may first count the ones outside.
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
    return eigs


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


def equilibrated_condition(cov: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Condition figure of D^-1/2 cov D^-1/2, D = diag(cov), per matrix of a
    (B, p, p) stack, and the whitening matrix L^-1 D^-1/2 that comes with it.

    Every statistic is invariant to rescaling a coordinate, so rank
    deficiency is judged on this equilibrated (correlation) matrix rather
    than in raw units (Higham, Accuracy and Stability of Numerical
    Algorithms, section 7.3).  The figure is the certified upper bound
    (|L|_F |L^-1|_F)^2 on its condition number from its Cholesky factor L,
    with the exact ``np.linalg.cond`` computed instead for the items whose
    bound exceeds CONDITION_LIMIT (``whitening_factor``), so comparing
    it with the limit decides as the exact condition number does.  A zero
    variance, or a matrix with no Cholesky factor, gives inf.
    """
    var = np.diagonal(cov, axis1=-2, axis2=-1)
    live = np.all(var > 0.0, axis=-1)
    d = np.sqrt(np.where(live[..., None], var, 1.0))
    inv, figure = whitening_factor(cov / (d[..., :, None] * d[..., None, :]))
    return np.where(live, figure, np.inf), inv / d[..., None, :]


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


_SIX = (0, 1, 2, 3, 4, 5)


def _pair_and_rest(a: int, b: int) -> tuple[tuple[int, int], tuple[int, ...]]:
    """The pair (a, b) of the six slots and the four slots left over."""
    return (a, b), tuple(s for s in _SIX if s not in (a, b))


_SCHEMES = {
    label: tuple(terms)
    for label, terms in {
        # First factor takes one slot from {0,1,2} and one from {3,4,5};
        # the remaining four slots feed the centered fourth-moment factor.
        "sum9_pair": (_pair_and_rest(a, b) for a in (0, 1, 2) for b in (3, 4, 5)),
        "sum9_triple": (t for t in _triple_partitions(_SIX) if t != ((0, 1, 2), (3, 4, 5))),
        # Each of the first three slots is matched with one of the last three.
        "sum6_matching": (tuple(zip((0, 1, 2), perm)) for perm in permutations((3, 4, 5))),
        "sum15_pair": (_pair_and_rest(a, b) for a, b in combinations(_SIX, 2)),
        "sum10_triple": _triple_partitions(_SIX),
        "sum15_matching": _matchings(_SIX),
    }.items()
}


def permutation_scheme(label: str) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """The term list of one of the named permutation sums: each term is a
    tuple of slot-index groups over the abstract slot positions 0..5, for
    which callers substitute concrete coordinate indices."""
    try:
        return _SCHEMES[label]
    except KeyError:
        raise ValueError(f"unknown permutation scheme {label!r}") from None


def second_order_threshold(p: int) -> int:
    return 2 * p + p * (p - 1) // 2


def third_order_threshold(p: int) -> int:
    return 2 * p + p * (p - 1) + p * (p - 1) * (p - 2) // 6


def _sorted_indices(p: int, order: int) -> np.ndarray:
    """The nondecreasing index tuples of an order over 0..p-1, one per row,
    in lexicographic order."""
    return np.array(list(combinations_with_replacement(range(p), order)))


def _sorted_position(p: int, order: int) -> np.ndarray:
    """The position among ``_sorted_indices(p, order)`` of each nondecreasing
    tuple, indexed by its flat p**order index (0 at unsorted tuples)."""
    tuples = _sorted_indices(p, order)
    position = np.zeros(p**order, dtype=np.intp)
    position[np.ravel_multi_index(tuples.T, (p,) * order)] = np.arange(len(tuples))
    return position


@lru_cache(maxsize=None)
def _z3_term_map(p: int) -> tuple[np.ndarray, np.ndarray]:
    """The permutation sums of the third-order b22 block as one term map.

    The rows stand for the entries (a, b) of the lower triangle of b22,
    a >= b in ``np.tril_indices(q3)`` order (b22 is symmetric, and only its
    lower triangle is factored), a and b indexing the distinct triples
    (lexicographic order); the six coordinates of a row are
    c = triples[a] + triples[b].  Columns index the inputs [k4 over distinct
    quadruples (q4, lexicographic order), m3 (x) m3 over distinct triples
    (q3^2 flat), 1].  Since m2 = I, a factor m2[c_x, c_y] is 1 when
    c_x == c_y and 0 otherwise: a pair term selects one k4 entry or
    vanishes, and a matching is a constant on the unit input.  Each term of
    each ``permutation_scheme`` list adds 1 to coef[w] at its (row, column),
    w being the weight of its sum in b22: 0 for -1/n, 1 for 1/(n-1), 2 for
    n/((n-1)(n-2)) (-1, 1 and 1 in the large-n limit).
    Returns the (rows, K) input columns of each row, ascending and padded to
    the longest row with the unit input, and the (3, rows, K) coef, 0 on the
    padding.
    """
    triples = _sorted_indices(p, 3)
    q3 = len(triples)
    a, b = np.tril_indices(q3)
    c = np.concatenate([triples[a], triples[b]], axis=-1)
    row = np.arange(len(c))
    everywhere = np.ones(row.shape, dtype=bool)
    triple_of, quad_of = _sorted_position(p, 3), _sorted_position(p, 4)
    q4 = len(_sorted_indices(p, 4))
    unit = q4 + q3 * q3

    def coords(slots):
        idx = np.sort(c[..., list(slots)], axis=-1)
        return np.ravel_multi_index(np.moveaxis(idx, -1, 0), (p,) * len(slots))

    def same(pairs):
        return np.logical_and.reduce([c[..., x] == c[..., y] for x, y in pairs])

    rows, cols, classes = [], [], []

    def add(mask, col, w):
        rows.append(row[mask])
        cols.append(np.broadcast_to(col, row.shape)[mask])
        classes.append(np.full(mask.sum(), w))

    for w, label in ((0, "sum15_pair"), (1, "sum9_pair")):
        for pair, rest in permutation_scheme(label):
            add(same([pair]), quad_of[coords(rest)], w)
    for w, label in ((0, "sum10_triple"), (1, "sum9_triple")):
        for t1, t2 in permutation_scheme(label):
            add(everywhere, q4 + triple_of[coords(t1)] * q3 + triple_of[coords(t2)], w)
    for w, label in ((0, "sum15_matching"), (2, "sum6_matching")):
        for match in permutation_scheme(label):
            add(same(match), unit, w)

    keys, inverse = np.unique(
        np.concatenate(rows) * (unit + 1) + np.concatenate(cols), return_inverse=True
    )
    coef = np.zeros((3, len(keys)))
    np.add.at(coef, (np.concatenate(classes), inverse), 1.0)
    key_rows, key_cols = np.divmod(keys, unit + 1)
    slot = np.arange(len(keys)) - np.searchsorted(key_rows, key_rows)
    cols = np.full((len(c), slot.max() + 1), unit)
    cols[key_rows, slot] = key_cols
    padded = np.zeros((3,) + cols.shape)
    padded[:, key_rows, slot] = coef
    return cols, padded


class _Plan(NamedTuple):
    """The engine's per-p state: slab bounds and flat gather indices of the
    distinct moment coordinates.

    Pairs are the C(p+1, 2) (i, j), i <= j, and triples the C(p+2, 3)
    (i, j, k), i <= j <= k, in lexicographic order, so
    the pairs and the triples that lead with index i are contiguous (from
    ``pair_start[i]`` and ``triple_start[i]``), and the products of those
    triples are y_i times the pair products from ``pair_start[i]`` on.
    Quadruples are the C(p+3, 4) sorted (a, b, c, d) in the same order.
    """

    pair_start: tuple[int, ...]
    triple_start: tuple[int, ...]
    m2_dense: np.ndarray  # (p^2,) pair of each (i, j)
    m2_pairs: np.ndarray  # (q2,) flat (i, j) of each pair
    pair_weight: np.ndarray  # (q2,) 1 on i == j, else 2
    kurt_diag: np.ndarray  # flat (ii, jj) entries of the pair Gram
    z2_cross: tuple[np.ndarray, ...]  # flat m2 (i, k), (j, l), (i, l), (j, k) over pairs (a, b)
    m3_triples: np.ndarray  # (q3,) flat (i, jk) of m3 over the triples
    k4_m4: np.ndarray  # (q4,) flat (ab, cd) of the pair Gram
    k4_m2: tuple[np.ndarray, ...]  # flat m2 (a, b), (c, d), (a, c), (b, d), (a, d), (b, c)
    z3_b12: np.ndarray  # (p * q3,) quadruple of each coordinate r and triple ijk, sorted
    z3_cols: np.ndarray  # ``_z3_term_map`` columns over [k4 (q4), m3 x m3 (q3^2), 1]
    z3_coef: np.ndarray


@lru_cache(maxsize=None)
def _plan(p: int) -> _Plan:
    """The engine's gather indices at dimension p, built once per p."""
    u, v = np.triu_indices(p)
    q2 = len(u)
    pair_of = np.empty((p, p), dtype=np.intp)
    pair_of[u, v] = pair_of[v, u] = np.arange(q2)
    triples = _sorted_indices(p, 3)
    a, b, c, d = _sorted_indices(p, 4).T
    coordinate = np.repeat(np.arange(p), len(triples))
    with_triple = np.sort(np.column_stack([coordinate, np.tile(triples, (p, 1))]), axis=1)
    cols, coef = _z3_term_map(p)
    diag = pair_of[np.arange(p), np.arange(p)]

    def outer(x, y):
        return (x[:, None] * p + y[None, :]).ravel()

    return _Plan(
        pair_start=tuple(np.searchsorted(u, np.arange(p + 1))),
        triple_start=tuple(np.searchsorted(triples[:, 0], np.arange(p + 1))),
        m2_dense=pair_of.ravel(),
        m2_pairs=u * p + v,
        pair_weight=np.where(u == v, 1.0, 2.0),
        kurt_diag=(diag[:, None] * q2 + diag[None, :]).ravel(),
        z2_cross=(outer(u, u), outer(v, v), outer(u, v), outer(v, u)),
        m3_triples=triples[:, 0] * q2 + pair_of[triples[:, 1], triples[:, 2]],
        k4_m4=pair_of[a, b] * q2 + pair_of[c, d],
        k4_m2=(a * p + b, c * p + d, a * p + c, b * p + d, a * p + d, b * p + c),
        z3_b12=_sorted_position(p, 4)[np.ravel_multi_index(with_triple.T, (p,) * 4)],
        z3_cols=cols,
        z3_coef=coef,
    )


def _gather(a: np.ndarray, index: np.ndarray) -> np.ndarray:
    """Entries ``index`` of each item of a stack, flattened per item: a
    C-contiguous (B, len(index)) array, so that every later product runs on
    the same per-item layout whatever B is."""
    return np.take(a.reshape(len(a), -1), index, axis=1)


def _z3_b22(sixth: np.ndarray, m3d: np.ndarray, k4: np.ndarray, weights, plan: _Plan) -> np.ndarray:
    """The third-order b22 block: ``sixth`` plus the permutation sums of
    ``_z3_term_map``, each sum class weighted by its entry of ``weights``,
    from the (B, q3) third moments and (B, q4) fourth cumulants on the
    distinct coordinates.

    The sums are gathered slot by slot over the lower triangle, in each
    row's column order, and mirrored.
    """
    nb, q3 = m3d.shape
    q4 = k4.shape[1]
    # one C-contiguous row per input, so that each gathered row is one copy
    inputs = np.empty((q4 + q3 * q3 + 1, nb))
    inputs[:q4] = k4.T
    m3t = m3d.T
    np.multiply(m3t[:, None], m3t[None], out=inputs[q4:-1].reshape(q3, q3, nb))
    inputs[-1] = 1.0
    cols = plan.z3_cols
    weights = np.tensordot(weights, plan.z3_coef, 1)
    terms = np.zeros((len(cols), nb))
    # Rows in blocks of 2^15 values, so that a block's gathers, scalings and
    # sums stay in cache; the indices are in range, and mode "clip" only
    # spares ``take`` a buffered copy of ``out``.
    step = max(1, 2**15 // nb)
    gathered = np.empty((min(step, len(cols)), nb))
    for lo in range(0, len(cols), step):
        block = terms[lo:lo + step]
        part = gathered[:len(block)]
        for slot in range(cols.shape[1]):
            np.take(inputs, cols[lo:lo + step, slot], axis=0, out=part, mode="clip")
            part *= weights[lo:lo + step, slot, None]
            block += part
    b22 = np.empty((nb, q3, q3))
    a, b = np.tril_indices(q3)
    b22[:, a, b] = b22[:, b, a] = terms.T
    b22 += sixth
    return b22


def _blocks(m2, m3, m4, sixth, n: int | None, families) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """The (b12, b22) covariance blocks of each family in ``families`` from
    whitened moments on the distinct coordinates: the (B, p, p) m2, the
    (B, p, q2) m3 of every coordinate with every pair, the (B, q2, q2) pair
    Gram m4, and for z3 the (B, q3, q3) ``sixth``, the sixth moments on
    pairs of triples over n (over 1 in the limit).

    ``n`` is the sample size, which sets the weights of the blocks: 1/n on
    every block and the small-sample corrections of the z2 b22 and of the
    three z3 permutation sum classes, (-1/n, 1/(n-1), n/((n-1)(n-2))).
    ``n=None`` gives the large-n limit: the common scale, which cancels in
    the eigenproblem, is 1, the z2 correction vanishes and the z3 weights
    are (-1, 1, 1).  Every block is C-contiguous.
    """
    plan = _plan(m2.shape[1])
    scale = 1 if n is None else n
    nb, q2 = m4.shape[:2]
    blocks = {}
    if "z2" in families:
        m2p = _gather(m2, plan.m2_pairs)
        b22 = m4 - m2p[:, :, None] * m2p[:, None, :]
        b22 /= scale
        if n is not None:
            ik, jl, il, jk = (_gather(m2, index) for index in plan.z2_cross)
            b22 += ((ik * jl + il * jk) / (n * (n - 1))).reshape(nb, q2, q2)
        blocks["z2"] = (m3 / scale, b22)
    if "z3" in families:
        ab, cd, ac, bd, ad, bc = (_gather(m2, index) for index in plan.k4_m2)
        k4 = _gather(m4, plan.k4_m4) - (ab * cd + ac * bd + ad * bc)
        if n is None:
            weights = (-1.0, 1.0, 1.0)
        else:
            weights = (-1.0 / n, 1.0 / (n - 1), n / ((n - 1) * (n - 2)))
        m3d = _gather(m3, plan.m3_triples)
        b12 = _gather(k4, plan.z3_b12).reshape(nb, m2.shape[1], -1) / scale
        blocks["z3"] = (b12, _z3_b22(sixth, m3d, k4, weights, plan))
    return blocks


def _moment_values(m2, m3, m4, sixth, n: int | None, statistics) -> dict[StatisticId, np.ndarray]:
    """The statistics among ``statistics`` from whitened moments on the
    distinct coordinates (see ``_blocks``), for a sample of size n or, at
    ``n=None``, in the large-n limit.

    The Mardia statistics are sums of squared third moments and of the
    fourth moments m4[(ii), (jj)], with the (n-1)/n factors of their
    sample forms.  b11 = m2 (over n) is factored once for both families.
    """
    plan = _plan(m2.shape[1])
    bias = 1.0 if n is None else (n - 1) / n
    out = {}
    if StatisticId("mardia_skew") in statistics:
        out[StatisticId("mardia_skew")] = bias**3 * np.sum(m3 * m3 * plan.pair_weight, axis=(1, 2))
    if StatisticId("mardia_kurt") in statistics:
        out[StatisticId("mardia_kurt")] = bias**2 * np.sum(_gather(m4, plan.kurt_diag), axis=1)
    families = {s.family for s in statistics} & {"z2", "z3"}
    if not families:
        return out
    inv11 = checked_factor("b11 (mean)", m2 / (1 if n is None else n))
    for family, (b12, b22) in _blocks(m2, m3, m4, sixth, n, families).items():
        vals = batch_functionals(np.clip(cancor_eigs(inv11, b12, b22), 0.0, 1.0))
        for sid in statistics:
            if sid.family == family:
                out[sid] = vals[sid.functional]
    return out


def _sixth(y: np.ndarray, pairs: np.ndarray, plan: _Plan) -> np.ndarray:
    """The sixth moments of a batch of whitened samples on pairs of distinct
    triples, times 1/n: the Gram matrix of the distinct triple products over
    n^2.  A function of its own so that the (B, q3, n) triple products, the
    largest temporary, are freed on return."""
    nb, p, n = y.shape
    triples = np.empty((nb, plan.triple_start[-1], n))
    for i, (lo, hi) in enumerate(pairwise(plan.triple_start)):
        np.multiply(y[:, i, None], pairs[:, plan.pair_start[i]:], out=triples[:, lo:hi])
    sixth = triples @ np.swapaxes(triples, 1, 2)
    sixth /= n * n
    return sixth


def evaluate_batch(data: np.ndarray, statistics=ALL_STATISTICS) -> dict[StatisticId, np.ndarray]:
    """Evaluate statistics on a (B, n, p) stack of samples.

    Returns one (B,) array per requested statistic.  Results are independent
    of how replications are grouped into batches.
    """
    data = np.asarray(data, dtype=float)
    if data.ndim != 3:
        raise ValueError("evaluate_batch expects a (batch, n, p) array")
    nb, n, p = data.shape
    statistics = tuple(statistics)
    need_z2 = any(s.family == "z2" for s in statistics)
    need_z3 = any(s.family == "z3" for s in statistics)
    if need_z2 and n < second_order_threshold(p):
        raise SampleSizeError(
            f"z2 statistics need n >= {second_order_threshold(p)} for p={p}, got n={n}"
        )
    if need_z3 and n < third_order_threshold(p):
        raise SampleSizeError(
            f"z3 statistics need n >= {third_order_threshold(p)} for p={p}, got n={n}"
        )
    plan = _plan(p)

    # Observation-major from here on: every reduction and product runs along
    # rows of n contiguous values.
    xc = np.empty((nb, p, n))
    xc[...] = np.swapaxes(data, 1, 2)
    xc -= xc.mean(axis=2, keepdims=True)
    # Each column in units of the power of two at its largest |value|: exact,
    # so the equilibrated covariance and y keep their bits, and the products
    # of xc xc^T can neither overflow nor underflow whatever the data's units.
    # The buffer then holds y, so that the scaling allocates no array.
    buf = np.abs(xc)
    np.ldexp(xc, -np.frexp(buf.max(axis=2))[1][:, :, None], out=xc)
    cov = xc @ np.swapaxes(xc, 1, 2) / n
    cond, whitening = equilibrated_condition(cov)
    _check_condition(cond, DegenerateSampleError, "rank-deficient sample covariance")
    y = np.matmul(whitening, xc, out=buf)
    del xc

    # the distinct pair and triple products, one slab per leading index
    pairs = np.empty((nb, plan.pair_start[-1], n))
    for i, (lo, hi) in enumerate(pairwise(plan.pair_start)):
        np.multiply(y[:, i, None], y[:, i:], out=pairs[:, lo:hi])
    m2 = _gather(pairs.mean(axis=2), plan.m2_dense).reshape(nb, p, p)
    m3 = y @ np.swapaxes(pairs, 1, 2)
    m3 /= n
    m4 = pairs @ np.swapaxes(pairs, 1, 2)
    m4 /= n
    sixth = _sixth(y, pairs, plan) if need_z3 else None
    return _moment_values(m2, m3, m4, sixth, n, statistics)


def _along_every_axis(tensor: np.ndarray, matrix: np.ndarray) -> np.ndarray:
    """The tensor with ``matrix`` applied to each of its indices."""
    for _ in range(tensor.ndim):
        # contracts the leading index and appends the new one last
        tensor = np.tensordot(tensor, matrix, axes=(0, 1))
    return tensor


def evaluate_population_batch(
    m2, m3, m4, m6=None, statistics=ALL_STATISTICS
) -> dict[StatisticId, np.ndarray]:
    """Large-n limits of statistics from (B, p, ..., p) stacks of dense
    central moment tensors, one population per item; ``m6`` is needed only
    for z3 statistics.  Returns one (B,) array per requested statistic.

    Each item's tensors are whitened by the Cholesky factor of its
    covariance m2, found as ``evaluate_batch`` finds a sample's, so that the
    whitened m2 is the identity up to roundoff.  They are then read at the
    distinct coordinates the sample path forms (m3 of each coordinate with
    each pair, m4 on pairs of pairs, m6 on pairs of triples) and go through
    its builder at ``n=None``, in one call for the whole stack.  An item's
    values do not depend on the other items.
    """
    statistics = tuple(statistics)
    m2 = np.asarray(m2, dtype=float)
    cond, whitening = equilibrated_condition(m2)
    _check_condition(cond, SingularBlockError, "population covariance is numerically singular")
    need_z3 = any(s.family == "z3" for s in statistics)
    if need_z3 and m6 is None:
        raise ValueError("z3 statistics need the sixth moments m6")

    def whitened(m):
        m = np.asarray(m, dtype=float)
        return np.stack([_along_every_axis(item, w) for item, w in zip(m, whitening)])

    nb, p = m2.shape[:2]
    pairs = _plan(p).m2_pairs
    q2 = len(pairs)
    m2 = whitened(m2)
    m3 = _gather(whitened(m3), (np.arange(p)[:, None] * p**2 + pairs).ravel()).reshape(nb, p, q2)
    m4 = _gather(whitened(m4), (pairs[:, None] * p**2 + pairs).ravel()).reshape(nb, q2, q2)
    sixth = None
    if need_z3:
        triples = np.ravel_multi_index(_sorted_indices(p, 3).T, (p,) * 3)
        q3 = len(triples)
        sixth = _gather(whitened(m6), (triples[:, None] * p**3 + triples).ravel())
        sixth = sixth.reshape(nb, q3, q3)
    return _moment_values(m2, m3, m4, sixth, None, statistics)
