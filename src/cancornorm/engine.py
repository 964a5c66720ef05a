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
round: the eigen step (``checked_factor``, ``cancor_eigs``), the term
lists of the permutation sums (``permutation_scheme``) and the sample-size
thresholds.  ``cancor_eigs`` range-checks the eigenvalues without clipping
them: this module clips them before it takes their summaries, and
``covblocks`` counts the ones it clips.  The module imports nothing from the
package but ``errors``.

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
``checked_factor``).  From y come the distinct pair products P,
(B, C(p+1, 2), n), and triple products T, (B, C(p+2, 3), n), one slab
multiply per leading index, and every higher moment is one of three batched
Gram products on them: m3 = y P^T / n (each coordinate with each pair),
m4 = P P^T / n (the pair Gram, which holds every fourth moment) and the
sixth moments on pairs of distinct triples, T T^T / n^2, so no tensor with
repeated coordinates, p^6 or otherwise, is formed.  P and T (T only when z3
statistics are requested) are formed in passes over consecutive items, each
holding at most ``PRODUCT_BUDGET`` bytes of them (``product_bytes`` per
item, one item a pass if one exceeds it) in buffers that every pass
reuses, and each pass writes its items' rows of the moments.  So the
products, once the largest temporaries, no longer grow with B.  The steps
up to y run on the whole batch.  The moments and the second step run on
consecutive items, in ceil(B ``_block_bytes`` / PRODUCT_BUDGET) block
passes of even size, each holding about PRODUCT_BUDGET bytes or fewer of
pair Grams and, for z3, sixth moments; the product passes run within each.
So the q3 x q3 blocks and their factors, q3^2 per item, no longer grow with
B either.  A check that fails in a pass names the item by its index in the
whole batch.  A batch within the budget takes one pass of each kind.  The
simulation sizes its chunks by the same budget and the same
``product_bytes``.  A population's dense moment tensors are whitened by the
same factor of its covariance, each population of a stack by its own, in one
stacked matrix product per tensor index for the whole stack, and read at
the same distinct coordinates.

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
into the map before it is applied.  The map pads each row to the longest
one; the gathers skip that padding, since the rows of each block of entries
run by descending length, and the products of two third moments are formed
on one triangle only.  The sixth moments enter as they are: each block's
sums are added to their array, which becomes b22, so no array of every
entry's sum is formed.  Each Cholesky factor's inverse is written over it.
Where the factors and the eigenvalues come from depends on p alone
(``_elementwise``): at p <= 2 every block is factored, and every eigenvalue
taken in closed form, elementwise over the batch, one numpy operation on
each matrix entry's values for the whole batch; at every larger p LAPACK
factors each item and ``eigvalsh`` takes its eigenvalues.
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
from math import comb
from typing import NamedTuple

import numpy as np

from .errors import (
    BatchItemError,
    DegenerateSampleError,
    EigenvalueRangeError,
    FunctionalDomainError,
    SampleSizeError,
    SingularBlockError,
)

CONDITION_LIMIT = 1e12
EIGENVALUE_TOL = 1e-8
UNIT_ROOT_TOL = 1e-12
# what a covariance block that fails ``checked_factor`` is said to be
_SINGULAR_BLOCK = "block is numerically singular or not positive definite"
# Bytes of distinct moment products that one pass of ``evaluate_batch`` forms
# at most; the simulation sizes its chunks by the same figure.
PRODUCT_BUDGET = 2 * 2**20

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
    forward substitution one row at a time, written over ``chol``, which is
    returned: row i of the inverse reads row i of the factor and rows < i of
    the inverse, so each row of the factor is overwritten once it is read."""
    diag = np.diagonal(chol, axis1=-2, axis2=-1)
    for i in range(chol.shape[-1]):
        chol[:, i, :i] = -(chol[:, i, None, :i] @ chol[:, :i, :i])[:, 0] / diag[:, i, None]
        chol[:, i, i] = 1.0 / diag[:, i]
    return chol


def _elementwise(p: int) -> bool:
    """Whether the blocks of dimension p are factored, and their eigenvalues
    taken, elementwise over the batch (``_entry_factor``, ``_gram_eigs``)
    rather than through LAPACK item by item.  At p <= 2 every block is at
    most 4 x 4 and every eigenproblem 2 x 2, so one numpy operation per entry
    of a whole batch costs less than a LAPACK call per item; larger p keeps
    LAPACK, and its bits."""
    return p <= 2


def _entry_factor(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """L^-1 and |L|_F^2 of each matrix of a (B, k, k) stack, a = L L^T, one
    numpy operation on the (B,) vector of an entry at a time.

    The Cholesky recurrence reads only the lower triangle of ``a``; a pivot
    that is not positive and finite is NaN, and NaN spreads to every later
    entry of its item, so the item has no finite bound.  L^-1 is then
    written over L row by row, as in ``_lower_inverse``.
    """
    nb, k, _ = a.shape
    chol = np.zeros(a.shape)
    norm = np.zeros(nb)
    with np.errstate(all="ignore"):
        for j in range(k):
            for i in range(j, k):
                s = a[:, i, j].copy()
                for c in range(j):
                    s -= chol[:, i, c] * chol[:, j, c]
                if i == j:
                    s = np.sqrt(np.where((s > 0.0) & (s < np.inf), s, np.nan))
                else:
                    s /= chol[:, j, j]
                chol[:, i, j] = s
                norm += s * s
        for i in range(k):
            for j in range(i):
                s = chol[:, i, j] * chol[:, j, j]
                for c in range(j + 1, i):
                    s += chol[:, i, c] * chol[:, c, j]
                chol[:, i, j] = -s / chol[:, i, i]
            chol[:, i, i] = 1.0 / chol[:, i, i]
    return chol, norm


def checked_factor(a: np.ndarray, error: type, label: str, elementwise: bool = False) -> np.ndarray:
    """L^-1 of each matrix of a (B, k, k) stack, a = L L^T, once every item
    is found nonsingular as its exact condition number would find it.

    cond_2(a) = (|L|_2 |L^-1|_2)^2 is at most the certified bound
    (|L|_F |L^-1|_F)^2, itself at most k^2 cond_2(a) (Higham, Accuracy and
    Stability of Numerical Algorithms, chapters 7 and 14).  An item whose
    bound is within CONDITION_LIMIT passes; only an item whose finite bound
    exceeds it pays for the exact ``np.linalg.cond``, so a well-conditioned
    stack costs no SVD.  An item with no Cholesky factor (not positive
    definite, or not finite) has no finite bound and fails.  Only the lower
    triangle of ``a`` is factored, and |L|_F^2 is taken before L^-1 is
    written over L.  ``elementwise`` (see ``_elementwise``) factors the
    stack entry by entry with ``_entry_factor``; otherwise LAPACK factors
    it.  A failure raises ``error``: its message is ``label`` with the count
    of failing items and the first of them, which is the error's ``item``.
    """
    if elementwise:
        inv, norm = _entry_factor(a)
    else:
        try:
            chol = np.linalg.cholesky(a)
        except np.linalg.LinAlgError:
            # One failure fails the whole stack; factor item by item to find it.
            chol = np.full_like(a, np.nan)
            for b, item in enumerate(a):
                try:
                    chol[b] = np.linalg.cholesky(item)
                except np.linalg.LinAlgError:
                    pass
        norm = np.einsum("bij,bij->b", chol, chol)
        inv = _lower_inverse(chol)
    bound = norm * np.einsum("bij,bij->b", inv, inv)
    suspect = np.flatnonzero(np.isfinite(bound) & (bound > CONDITION_LIMIT))
    if suspect.size:
        bound[suspect] = np.linalg.cond(a[suspect])
    bad = np.flatnonzero(~(bound <= CONDITION_LIMIT))
    if bad.size:
        raise error(f"{label} in {bad.size} batch item(s), first item {bad[0]}", item=int(bad[0]))
    return inv


def _equilibrated_factor(cov: np.ndarray, error: type, label: str) -> np.ndarray:
    """The whitening matrix L^-1 D^-1/2 of each matrix of a (B, p, p) stack,
    D = diag(cov), where D^-1/2 cov D^-1/2 = L L^T passes ``checked_factor``.

    Every statistic is invariant to rescaling a coordinate, so rank
    deficiency is judged on this equilibrated (correlation) matrix rather
    than in raw units (Higham, section 7.3).  A zero variance takes the
    scale NaN, so that its item has no finite bound and fails.
    """
    var = np.diagonal(cov, axis1=-2, axis2=-1)
    d = np.sqrt(np.where(var > 0.0, var, np.nan))
    corr = cov / (d[..., :, None] * d[..., None, :])
    return checked_factor(corr, error, label, _elementwise(cov.shape[-1])) / d[..., None, :]


def _entry_w(inv11: np.ndarray, b12: np.ndarray, inv22: np.ndarray) -> np.ndarray:
    """W = L22^-1 b21 L11^-T of each item of a stack, from the (B, p, p)
    and (B, q, q) lower-triangular inverses and the (B, p, q) b12, as a
    (q, p, B) array: one numpy operation on the (B,) vector of an entry at a
    time, first V = b21 L11^-T, then W, each entry a sum in index order."""
    nb, p, q = b12.shape
    v = np.empty((q, p, nb))
    for s in range(q):
        for r in range(p):
            np.multiply(b12[:, 0, s], inv11[:, r, 0], out=v[s, r])
            for t in range(1, r + 1):
                v[s, r] += b12[:, t, s] * inv11[:, r, t]
    w = np.empty((q, p, nb))
    for i in range(q):
        np.multiply(inv22[:, i, 0], v[0], out=w[i])
        for s in range(1, i + 1):
            w[i] += inv22[:, i, s] * v[s]
    return w


# Veltkamp's splitter for doubles: x * (2^27 + 1) splits x into two halves of
# at most 26 significant bits each, whose products are exact (``_gram_eigs``).
_SPLITTER = 2.0**27 + 1.0


def _halves(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The high and low halves of each entry of x, x = high + low exactly."""
    scaled = x * _SPLITTER
    high = scaled - (scaled - x)
    return high, x - high


def _gram_eigs(w: np.ndarray) -> np.ndarray:
    """The (B, p) eigenvalues of W^T W, descending, for a (q, p, B) array W
    with p <= 2, in closed form, one numpy operation on the (B,) vectors of
    a few entries at a time.

    At p = 1 the one eigenvalue is |W|^2.  At p = 2, W^T W = [[a, b], [b, c]]
    has the larger eigenvalue (a + c)/2 + hypot((a - c)/2, b), a sum of two
    nonnegative terms.  The smaller is det/larger, clamped to at most the
    larger, where det is the sum of the squared 2 x 2 minors of W
    (Cauchy-Binet), so the cancellation of ac - b^2 is never formed.  A
    minor u_i v_j - u_j v_i cancels when the columns u and v are nearly
    parallel, so each is summed from the exact products of the halves of
    its entries (Dekker, Numer. Math. 18, 1971), the leading products
    first, whose difference is then exact: both eigenvalues keep a few
    units of roundoff relative to themselves, however far apart they are.
    """
    q, p, nb = w.shape
    sq = np.zeros((p, nb))
    for i in range(q):
        sq += w[i] * w[i]
    if p == 1:
        return sq.T.copy()
    u, v = w[:, 0], w[:, 1]
    cross = np.zeros(nb)
    for i in range(q):
        cross += u[i] * v[i]
    (uh, ul), (vh, vl) = _halves(u), _halves(v)
    det = np.zeros(nb)
    for i in range(q):
        for j in range(i + 1, q):
            minor = uh[i] * vh[j] - uh[j] * vh[i]
            minor += (uh[i] * vl[j] + ul[i] * vh[j]) - (uh[j] * vl[i] + ul[j] * vh[i])
            minor += ul[i] * vl[j] - ul[j] * vl[i]
            det += minor * minor
    eigs = np.zeros((nb, 2))
    larger, smaller = eigs[:, 0], eigs[:, 1]
    np.add((sq[0] + sq[1]) / 2, np.hypot((sq[0] - sq[1]) / 2, cross), out=larger)
    np.divide(det, larger, out=smaller, where=larger > 0.0)
    np.minimum(smaller, larger, out=smaller)
    return eigs


def cancor_eigs(inv11: np.ndarray, b12: np.ndarray, b22: np.ndarray) -> np.ndarray:
    """Squared canonical correlations of a (B, ...) stack of block triples,
    given b11 as its ``checked_factor`` L11^-1, so that families sharing a
    b11 factor it once.

    b22 is checked and factored by ``checked_factor`` too.  The eigenproblem
    b11^-1 b12 b22^-1 b21 then becomes W^T W with W = L22^-1 b21 L11^-T,
    symmetric positive semidefinite by construction, so no inverse or
    general solve is formed.  At p <= 2 (``_elementwise``) b22 is factored
    and the eigenvalues are taken elementwise over the batch
    (``_gram_eigs``); otherwise LAPACK does both.  Returns the (B, p)
    eigenvalues, sorted descending and checked to lie in [0, 1] within
    EIGENVALUE_TOL, but not clipped: the caller clips them, and may first
    count the ones outside.
    """
    elementwise = _elementwise(inv11.shape[-1])
    inv22 = checked_factor(b22, SingularBlockError, f"b22 (moment) {_SINGULAR_BLOCK}", elementwise)
    if elementwise:
        eigs = _gram_eigs(_entry_w(inv11, b12, inv22))
    else:
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


def required_sample_size(statistic: StatisticId, p: int) -> int:
    if statistic.family == "z2":
        return second_order_threshold(p)
    if statistic.family == "z3":
        return third_order_threshold(p)
    return p + 1  # classical statistics only need a nonsingular covariance


def check_sample_size(statistics, n: int, p: int) -> None:
    """Raise ``SampleSizeError`` unless every statistic is defined at (n, p)."""
    for sid in statistics:
        need = required_sample_size(sid, p)
        if n < need:
            raise SampleSizeError(f"{sid.name} needs n >= {need} for p={p}, got n={n}")


def product_bytes(n: int, p: int, z3: bool) -> int:
    """Bytes of the distinct pair products of one sample of size n, and of
    its distinct triple products when ``z3`` statistics are evaluated:
    8 n C(p+1, 2), plus 8 n C(p+2, 3) for z3."""
    return 8 * n * (comb(p + 1, 2) + (comb(p + 2, 3) if z3 else 0))


def _block_bytes(p: int, z3: bool) -> int:
    """Bytes of the Grams a block pass keeps per sample, by which the passes
    are sized: the pair Gram, 8 C(p+1, 2)^2, plus the sixth moments on pairs
    of triples, 8 C(p+2, 3)^2, when ``z3`` statistics are evaluated.  The
    block stage's temporaries are not counted; at p = 2, with all twelve
    statistics, they peak at about 3.6 times as much."""
    return 8 * (comb(p + 1, 2) ** 2 + (comb(p + 2, 3) ** 2 if z3 else 0))


def _in_batch(exc: BatchItemError, first: int) -> BatchItemError:
    """``exc``, raised on the items of a batch from item ``first`` on, with
    the item it names, in ``item`` and in its message, counted in the whole
    batch."""
    item = exc.item + first
    return type(exc)(str(exc).replace(f"item {exc.item}", f"item {item}", 1), item=item)


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
    # int8 coordinates, boolean masks and np.add.at: with int64 ones, np.nonzero
    # or np.bincount, a (100, 5) calibration, whose parent builds this map before
    # its pool forks, peaked 0.1-0.3 MB higher
    c = np.concatenate([triples[a], triples[b]], axis=-1).astype(np.int8)
    row = np.arange(len(c))
    triple_of, quad_of = _sorted_position(p, 3), _sorted_position(p, 4)
    q4 = len(_sorted_indices(p, 4))
    unit = q4 + q3 * q3

    def coords(slots):
        idx = np.sort(c[:, slots], axis=-1)
        return np.ravel_multi_index(np.moveaxis(idx, -1, 0), (p,) * slots.shape[-1])

    def same(pairs):
        return (c[:, pairs[..., 0]] == c[:, pairs[..., 1]]).all(axis=-1)

    rows, cols, classes = [], [], []

    def add(mask, col, w):
        rows.append(np.broadcast_to(row[:, None], mask.shape)[mask])
        cols.append(np.broadcast_to(col, mask.shape)[mask])
        classes.append(np.full(mask.sum(), w))

    # each label's terms at once, one (rows, terms) array per slot group
    for w, label in ((0, "sum15_pair"), (1, "sum9_pair")):
        pair, rest = (np.array(g) for g in zip(*permutation_scheme(label)))
        add(same(pair[:, None]), quad_of[coords(rest)], w)
    for w, label in ((0, "sum10_triple"), (1, "sum9_triple")):
        t1, t2 = (np.array(g) for g in zip(*permutation_scheme(label)))
        col = q4 + triple_of[coords(t1)] * q3 + triple_of[coords(t2)]
        add(np.ones(col.shape, dtype=bool), col, w)
    for w, label in ((0, "sum15_matching"), (2, "sum6_matching")):
        add(same(np.array(permutation_scheme(label))), unit, w)

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
    The z3 term map is read in the blocks of ``_z3_blocks``, which skip its
    padding, and with the product m3[t2] m3[t1], t1 < t2, of a column read
    as m3[t1] m3[t2], which rounds the same, so that only the products on
    t1 <= t2 (in ``np.triu_indices(q3)`` order) are formed.
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
    z3_coef: np.ndarray  # ``_z3_term_map`` coef, in its row order
    z3_rows: np.ndarray  # term-map rows in ``_z3_blocks`` order
    z3_cols: np.ndarray  # their columns over [k4 (q4), m3 m3 on t1 <= t2, 1]
    z3_blocks: tuple  # (lo, slot ends, lower, strict, upper) of each block, see ``_z3_blocks``


# Most entries of the z3 b22 in one block of ``_z3_b22`` (see ``_z3_blocks``):
# at B = 256 a block's gathers, scalings and sums, 2^15 values, stay in cache.
_Z3_BLOCK_ENTRIES = 128


def _z3_blocks(terms: list[int], q3: int) -> tuple[np.ndarray, tuple]:
    """The rows of the z3 term map, with ``terms`` terms each, in the blocks
    that ``_z3_b22`` sums them in.

    A block is whole rows a of the lower triangle of b22 (map rows
    a (a + 1) / 2 on), at most ``_Z3_BLOCK_ENTRIES`` entries unless one row
    a alone has more, and its map rows are ordered by descending term count,
    ties in map order, so that each slot of the map runs over a prefix of
    the block and its padding is never gathered.  Returns that order of the
    map rows and, per block, (lo, ends, lower, strict, upper): its first map
    row, the end of each nonempty slot's prefix in that order, the flat
    index a q3 + b in b22 of the entry (a, b) of each of its map rows, the
    positions in the block of the rows off the diagonal, a > b, and the
    flat index b q3 + a of their mirrors.
    """
    # Python lists, not numpy sorts and counts, which would page in code that
    # nothing else a run does uses (~0.4 MB of resident memory).
    start = [a * (a + 1) // 2 for a in range(q3 + 1)]
    entry = [(a, b) for a in range(q3) for b in range(a + 1)]  # of each map row
    order, blocks = [], []
    a0 = 0
    while a0 < q3:
        a1 = a0 + 1
        while a1 < q3 and start[a1 + 1] - start[a0] <= _Z3_BLOCK_ENTRIES:
            a1 += 1
        lo, hi = start[a0], start[a1]
        rows = sorted(range(lo, hi), key=lambda r: -terms[r])
        ends = tuple(lo + sum(terms[r] > slot for r in rows) for slot in range(terms[rows[0]]))
        pairs = [entry[r] for r in rows]
        lower = [a * q3 + b for a, b in pairs]
        strict = [k for k, (a, b) in enumerate(pairs) if a > b]
        upper = [b * q3 + a for a, b in (pairs[k] for k in strict)]
        order += rows
        index = (np.array(i, dtype=np.intp) for i in (lower, strict, upper))
        blocks.append((lo, ends, *index))
        a0 = a1
    return np.array(order), tuple(blocks)


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
    # the row of ``_z3_b22``'s input table of each term-map column
    q3, q4 = len(triples), len(a)
    t1, t2 = np.triu_indices(q3)
    product_of = np.empty((q3, q3), dtype=np.intp)
    product_of[t1, t2] = product_of[t2, t1] = np.arange(len(t1))
    column_of = np.concatenate([np.arange(q4), q4 + product_of.ravel(), [q4 + len(t1)]])
    # a row's padding, coef 0 in every class, follows its terms
    rows, blocks = _z3_blocks((coef != 0).any(axis=0).sum(axis=1).tolist(), q3)
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
        z3_coef=coef,
        z3_rows=rows,
        z3_cols=column_of[cols[rows]],
        z3_blocks=blocks,
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
    distinct coordinates.  The block is built in ``sixth`` (in a copy of it
    if it is not C-contiguous) and returned.

    The products of two third moments are formed on t1 <= t2 only, one
    slab per t1.  Each entry's sum starts at +0.0 and is gathered slot by
    slot in its row's column order, block by block (``_z3_blocks``); a
    block's sums are added to their entries of both triangles of ``sixth``,
    each entry once, so no array of every entry's sum is formed.
    """
    nb, q3 = m3d.shape
    q4 = k4.shape[1]
    # one C-contiguous row per input, so that each gathered row is one copy
    inputs = np.empty((q4 + q3 * (q3 + 1) // 2 + 1, nb))
    inputs[:q4] = k4.T
    m3t = m3d.T
    lo = q4
    for t in range(q3):
        np.multiply(m3t[t], m3t[t:], out=inputs[lo:lo + q3 - t])
        lo += q3 - t
    inputs[-1] = 1.0
    cols = plan.z3_cols
    weights = np.tensordot(weights, plan.z3_coef, 1)[plan.z3_rows]
    size = max(len(lower) for _, _, lower, *_ in plan.z3_blocks)
    gathered, summed = np.empty((size, nb)), np.empty((size, nb))
    flat = sixth.reshape(nb, q3 * q3)
    # the indices are in range, and mode "clip" only spares ``take`` a
    # buffered copy of ``out``
    for lo, ends, lower, strict, upper in plan.z3_blocks:
        block = summed[:len(lower)]
        block.fill(0.0)
        for slot, end in enumerate(ends):
            part = gathered[:end - lo]
            np.take(inputs, cols[lo:end, slot], axis=0, out=part, mode="clip")
            part *= weights[lo:end, slot, None]
            block[:len(part)] += part
        # the entries (a, b), a >= b, and the mirrors (b, a) of those off the
        # diagonal, each indexed once, so each gets one addition
        flat[:, lower] += block.T
        flat[:, upper] += block[strict].T
    return flat.reshape(nb, q3, q3)


def _blocks(m2, m3, m4, sixth, n: int | None, families) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """The (b12, b22) covariance blocks of each family in ``families`` from
    whitened moments on the distinct coordinates: the (B, p, p) m2, the
    (B, p, q2) m3 of every coordinate with every pair, the (B, q2, q2) pair
    Gram m4, and for z3 the (B, q3, q3) ``sixth``, the sixth moments on
    pairs of triples over n (over 1 in the limit), which the z3 b22 is
    built in: ``sixth`` is consumed.

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
            del ik, jl, il, jk  # not held while the z3 blocks are built
        blocks["z2"] = (m3 / scale, b22)
    if "z3" in families:
        ab, cd, ac, bd, ad, bc = (_gather(m2, index) for index in plan.k4_m2)
        k4 = _gather(m4, plan.k4_m4) - (ab * cd + ac * bd + ad * bc)
        del ab, cd, ac, bd, ad, bc
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
    Only the requested summaries of a family's eigenvalues are taken, so
    the domain check of the ratio trace fails only a request that names it.
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
    inv11 = checked_factor(m2 / (1 if n is None else n), SingularBlockError,
                           f"b11 (mean) {_SINGULAR_BLOCK}", _elementwise(m2.shape[1]))
    for family, (b12, b22) in _blocks(m2, m3, m4, sixth, n, families).items():
        eigs = np.clip(cancor_eigs(inv11, b12, b22), 0.0, 1.0)
        for sid in statistics:
            if sid.family == family:
                out[sid] = _FUNCTIONALS[sid.functional](eigs)
    return out


def _sixth(y: np.ndarray, pairs: np.ndarray, plan: _Plan, triples: np.ndarray, out: np.ndarray):
    """The Gram matrix of the distinct triple products of one pass of
    whitened samples, into ``out``.  The products are formed in ``triples``,
    the (B, q3, n) buffer that every pass reuses, as y_i times the pair
    products from ``pair_start[i]`` on."""
    for i, (lo, hi) in enumerate(pairwise(plan.triple_start)):
        np.multiply(y[:, i, None], pairs[:, plan.pair_start[i]:], out=triples[:, lo:hi])
    np.matmul(triples, np.swapaxes(triples, 1, 2), out=out)


def _moments(y: np.ndarray, plan: _Plan, z3: bool):
    """The m2, m3, m4 and, when ``z3`` is set, ``sixth`` (else None) of
    ``_blocks`` from a (B, p, n) stack y of whitened samples.

    The distinct pair products (and, for z3, triple products) are formed in
    passes over consecutive items, each pass holding at most PRODUCT_BUDGET
    bytes of them in buffers that every pass reuses, and each pass writes
    its items' rows of the moments.  So the products take no more memory
    for a larger B, and every item's products take the path they would take
    alone.  The buffers are freed on return.
    """
    nb, p, n = y.shape
    step = max(1, PRODUCT_BUDGET // product_bytes(n, p, z3))
    q2, q3 = plan.pair_start[-1], plan.triple_start[-1]
    mean2, m3, m4 = np.empty((nb, q2)), np.empty((nb, p, q2)), np.empty((nb, q2, q2))
    sixth = np.empty((nb, q3, q3)) if z3 else None
    pairs = np.empty((min(step, nb), q2, n))
    triples = np.empty((len(pairs), q3, n)) if z3 else None
    for lo in range(0, nb, step):
        part = slice(lo, lo + step)
        yp = y[part]
        pp = pairs[:len(yp)]
        for i, (a, b) in enumerate(pairwise(plan.pair_start)):
            np.multiply(yp[:, i, None], yp[:, i:], out=pp[:, a:b])
        np.mean(pp, axis=2, out=mean2[part])
        np.matmul(yp, np.swapaxes(pp, 1, 2), out=m3[part])
        np.matmul(pp, np.swapaxes(pp, 1, 2), out=m4[part])
        if z3:
            _sixth(yp, pp, plan, triples[:len(yp)], sixth[part])
    m3 /= n
    m4 /= n
    if z3:
        sixth /= n * n
    return _gather(mean2, plan.m2_dense).reshape(nb, p, p), m3, m4, sixth


def evaluate_batch(data: np.ndarray, statistics=ALL_STATISTICS) -> dict[StatisticId, np.ndarray]:
    """Evaluate statistics on a (B, n, p) stack of samples.

    Returns one (B,) array per requested statistic (empty when B = 0).
    Results are independent of how replications are grouped into batches.
    The stack is dropped once it is copied, observation-major, so a caller
    that passes it on without keeping it frees it then.  A check of the
    block stage that fails names the first failing item of the first block
    pass that fails, by its index in the stack, and counts the failing items
    of that pass.
    """
    data = np.asarray(data, dtype=float)
    if data.ndim != 3 or data.shape[2] < 1:
        raise ValueError(f"evaluate_batch expects a (batch, n, p) array, p >= 1, got {data.shape}")
    nb, n, p = data.shape
    statistics = tuple(statistics)
    check_sample_size(statistics, n, p)
    need_z3 = any(s.family == "z3" for s in statistics)
    if nb == 0:
        return {sid: np.empty(0) for sid in statistics}
    plan = _plan(p)

    # Observation-major from here on: every reduction and product runs along
    # rows of n contiguous values.
    xc = np.empty((nb, p, n))
    xc[...] = np.swapaxes(data, 1, 2)
    del data
    xc -= xc.mean(axis=2, keepdims=True)
    # Each column in units of the power of two at its largest |value|: exact,
    # so the equilibrated covariance and y keep their bits, and the products
    # of xc xc^T can neither overflow nor underflow whatever the data's units.
    # The buffer then holds y, so that the scaling allocates no array.
    buf = np.abs(xc)
    np.ldexp(xc, -np.frexp(buf.max(axis=2))[1][:, :, None], out=xc)
    cov = xc @ np.swapaxes(xc, 1, 2) / n
    whitening = _equilibrated_factor(cov, DegenerateSampleError, "rank-deficient sample covariance")
    y = np.matmul(whitening, xc, out=buf)
    del xc, buf
    # The moments and the blocks, in passes of even size over consecutive
    # items that each hold about PRODUCT_BUDGET bytes or fewer of pair Grams
    # and sixth moments.
    passes = -(-nb * _block_bytes(p, need_z3) // PRODUCT_BUDGET)
    step = -(-nb // passes)
    out = {sid: np.empty(nb) for sid in statistics}
    for lo in range(0, nb, step):
        try:
            values = _moment_values(*_moments(y[lo:lo + step], plan, need_z3), n, statistics)
        except BatchItemError as exc:
            if lo == 0 or exc.item is None:
                raise
            raise _in_batch(exc, lo) from exc
        for sid in statistics:
            out[sid][lo:lo + step] = values[sid]
    return out


def evaluate_population_batch(
    m2, m3, m4, m6=None, statistics=ALL_STATISTICS
) -> dict[StatisticId, np.ndarray]:
    """Large-n limits of statistics from (B, p, ..., p) stacks of dense
    central moment tensors, one population per item; ``m6`` is needed only
    for z3 statistics.  Returns one (B,) array per requested statistic
    (empty when B = 0).

    Each item's tensors are whitened by the Cholesky factor of its
    covariance m2, found as ``evaluate_batch`` finds a sample's, so that the
    whitened m2 is the identity up to roundoff: one ``matmul`` per tensor
    index for the whole stack, which hands each item's product the operand
    layouts of ``np.tensordot`` and so its bits.  They are then read at the
    distinct coordinates the sample path forms (m3 of each coordinate with
    each pair, m4 on pairs of pairs, m6 on pairs of triples) and go through
    its builder at ``n=None``, in one call for the whole stack.  An item's
    values do not depend on the other items.
    """
    statistics = tuple(statistics)
    m2 = np.asarray(m2, dtype=float)
    if m2.ndim != 3 or m2.shape[1] < 1 or m2.shape[1] != m2.shape[2]:
        raise ValueError(
            f"evaluate_population_batch expects a (batch, p, p) covariance, p >= 1, got {m2.shape}"
        )
    whitening = _equilibrated_factor(
        m2, SingularBlockError, "population covariance is numerically singular"
    )
    need_z3 = any(s.family == "z3" for s in statistics)
    if need_z3 and m6 is None:
        raise ValueError("z3 statistics need the sixth moments m6")
    nb, p = m2.shape[:2]
    if nb == 0:
        return {sid: np.empty(0) for sid in statistics}

    def whitened(m):
        m = np.asarray(m, dtype=float)
        shape = m.shape
        for _ in range(m.ndim - 1):
            # contracts each item's leading index and appends the new one last
            lead_last = np.ascontiguousarray(np.swapaxes(m.reshape(nb, p, -1), 1, 2))
            m = (lead_last @ np.swapaxes(whitening, 1, 2)).reshape(shape)
        return m

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
