"""Evaluation of the twelve statistics over batches of samples, and of
their large-n limits from population moments.

This is the one numerical path from moments to statistic values: null
calibration and power studies call ``evaluate_batch`` on (B, n, p) stacks,
the per-sample functions in ``stats`` call it on a stack of one, and the
population values call ``evaluate_population_batch`` on a stack of
alternatives (one alternative is a stack of one).  All moment
tensors and covariance blocks are built as batched array operations, and
the squared canonical correlations come from the kernel in ``cancor``.

There are two steps.  The first makes whitened moment tensors.  Every
sample is centered and whitened before any moment is formed.  Each centered
column is first scaled by the power of two at its largest magnitude, which
is exact, so that its cross products neither overflow nor underflow in any
units and every later bit is what the unscaled column would give.  The
covariance is then equilibrated to a correlation matrix D^-1/2 cov D^-1/2 =
L L^T, and the data are multiplied by L^-1 D^-1/2, so its second moments m2
are the identity up to roundoff.  The same Cholesky factor certifies that
the sample is not degenerate (see ``equilibrated_condition``).  A
population's moment tensors are whitened by the same factor of its
covariance, each population of a stack by its own.  The second step builds
the covariance blocks of both families from the whitened tensors, under the
weights of a sample size n or of the large-n limit.  The third-order block
relies on m2 = I: every m2 factor in its permutation sums is a Kronecker
delta, so those sums are fixed linear combinations of the fourth cumulants,
of products of two third moments and of constants.  They are precompiled,
per dimension p, into one term map derived from the very same term lists
that ``covblocks`` uses, so there is a single source of truth for the
combinatorics: each entry of b22 is a short weighted sum of at most eleven
inputs (p <= 6), applied with numpy gathers, slot by slot; the 1/n, 1/(n-1)
and n/((n-1)(n-2)) weights (all 1 in magnitude in the limit) are folded
into the map before it is applied.  The sixth moments enter only on pairs
of distinct index triples: for a sample as the Gram matrix of the distinct
triple products, so no p^6 tensor is formed.  Every other block is a
sub-array of a moment tensor, read with the distinct pairs or triples as
indices: the second-order b12 is m3 over the distinct pairs and the
third-order b12 is k4 over the distinct triples.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .cancor import (
    CONDITION_LIMIT,
    FUNCTIONAL_NAMES,
    batch_functionals,
    cancor_eigs,
    whitening_factor,
)
from .covblocks import (
    permutation_scheme,
    second_order_threshold,
    third_order_threshold,
)
from .errors import DegenerateSampleError, SampleSizeError, SingularBlockError
from .moments import triple_indices

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


def equilibrated_condition(cov: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Condition figure of D^-1/2 cov D^-1/2, D = diag(cov), per matrix of a
    (B, p, p) stack, and the whitening matrix L^-1 D^-1/2 that comes with it.

    Every statistic is invariant to rescaling a coordinate, so rank
    deficiency is judged on this equilibrated (correlation) matrix rather
    than in raw units (Higham, Accuracy and Stability of Numerical
    Algorithms, section 7.3).  The figure is the certified upper bound
    (|L|_F |L^-1|_F)^2 on its condition number from its Cholesky factor L,
    with the exact ``np.linalg.cond`` computed instead for the items whose
    bound exceeds CONDITION_LIMIT (``cancor.whitening_factor``), so comparing
    it with the limit decides as the exact condition number does.  A zero
    variance, or a matrix with no Cholesky factor, gives inf.
    """
    var = np.diagonal(cov, axis1=-2, axis2=-1)
    live = np.all(var > 0.0, axis=-1)
    d = np.sqrt(np.where(live[..., None], var, 1.0))
    inv, figure = whitening_factor(cov / (d[..., :, None] * d[..., None, :]))
    return np.where(live, figure, np.inf), inv / d[..., None, :]


@lru_cache(maxsize=None)
def _z3_term_map(p: int) -> tuple[np.ndarray, np.ndarray]:
    """The permutation sums of the third-order b22 block as one term map.

    The rows stand for the entries (a, b) of the lower triangle of b22,
    a >= b in ``np.tril_indices(q3)`` order (b22 is symmetric, and only its
    lower triangle is factored), a and b indexing the distinct triples
    (``triple_indices`` order); the six coordinates of a row are
    c = triples[a] + triples[b].  Columns index the inputs [k4 (p^4, flattened),
    m3 (x) m3 over distinct triples (q3^2 flat), 1].  Since m2 = I, a factor
    m2[c_x, c_y] is 1 when c_x == c_y and 0 otherwise: a pair term selects
    one k4 entry or vanishes, and a matching is a constant on the unit
    input.  Each term of each ``covblocks`` list adds 1 to coef[w] at its
    (row, column), w being the weight of its sum in b22: 0 for -1/n, 1 for
    1/(n-1), 2 for n/((n-1)(n-2)) (-1, 1 and 1 in the large-n limit).
    Returns the (rows, K) input columns of each row, ascending and padded to
    the longest row with the unit input, and the (3, rows, K) coef, 0 on the
    padding; this is the engine's only per-p state.
    """
    triples = np.array(triple_indices(p))
    q3 = len(triples)
    a, b = np.tril_indices(q3)
    c = np.concatenate([triples[a], triples[b]], axis=-1)
    row = np.arange(len(c))
    everywhere = np.ones(row.shape, dtype=bool)
    tri_index = np.zeros(p**3, dtype=np.intp)
    tri_index[np.ravel_multi_index(triples.T, (p,) * 3)] = np.arange(q3)
    n_k4, unit = p**4, p**4 + q3 * q3

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
        for pair, rest in permutation_scheme(label).terms:
            add(same([pair]), coords(rest), w)
    for w, label in ((0, "sum10_triple"), (1, "sum9_triple")):
        for t1, t2 in permutation_scheme(label).terms:
            add(everywhere, n_k4 + tri_index[coords(t1)] * q3 + tri_index[coords(t2)], w)
    for w, label in ((0, "sum15_matching"), (2, "sum6_matching")):
        for match in permutation_scheme(label).terms:
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


def _z3_gram(y: np.ndarray, t2: np.ndarray) -> np.ndarray:
    """The sixth moments of a batch of whitened samples on pairs of distinct
    triples, times 1/n: the Gram matrix of the distinct triple products over
    n^2.  A function of its own so that the (B, n, q3) triple products, the
    largest temporary, are freed on return."""
    nb, n, p = y.shape
    i, j, k = np.array(triple_indices(p)).T
    t3 = np.take(t2, i * p + j, axis=2)
    t3 *= np.take(y, k, axis=2)
    return (np.swapaxes(t3, 1, 2) @ t3) / (n * n)


def _z3_b22(sixth: np.ndarray, m3: np.ndarray, k4: np.ndarray, weights) -> np.ndarray:
    """The third-order b22 block: ``sixth`` plus the permutation sums of
    ``_z3_term_map``, each sum class weighted by its entry of ``weights``.

    The sums are gathered input by input over the lower triangle and
    mirrored.
    """
    nb, p = m3.shape[:2]
    i, j, k = np.array(triple_indices(p)).T
    q3 = len(i)
    m3d = m3[:, i, j, k].T
    inputs = np.concatenate(
        [k4.reshape(nb, p**4).T, (m3d[:, None] * m3d[None, :]).reshape(q3 * q3, nb),
         np.ones((1, nb))]
    )
    cols, coef = _z3_term_map(p)
    weights = np.tensordot(weights, coef, 1)
    terms = np.zeros((len(cols), nb))
    gathered = np.empty_like(terms)
    for slot in range(cols.shape[1]):
        np.take(inputs, cols[:, slot], axis=0, out=gathered)
        gathered *= weights[:, slot, None]
        terms += gathered
    b22 = np.empty((nb, q3, q3))
    a, b = np.tril_indices(q3)
    b22[:, a, b] = b22[:, b, a] = terms.T
    b22 += sixth
    return b22


def _cancor_values(m2, m3, m4, sixth, n: int | None, statistics) -> dict[StatisticId, np.ndarray]:
    """The z2 and z3 statistics among ``statistics`` from (B, p, ...) stacks
    of whitened moment tensors.

    ``sixth`` is the z3 family's sixth-order term on pairs of distinct
    triples (None when no z3 statistic is asked for).  ``n`` is the sample
    size, which sets the weights of the blocks: 1/n on every block and the
    small-sample corrections of the z2 b22 and of the three z3 permutation
    sum classes, (-1/n, 1/(n-1), n/((n-1)(n-2))).  ``n=None`` gives the
    large-n limit: the common scale, which cancels in the eigenproblem, is
    1, the z2 correction vanishes and the z3 weights are (-1, 1, 1).
    """
    scale = 1 if n is None else n
    p = m2.shape[1]
    k4 = m4 - (
        m2[:, :, :, None, None] * m2[:, None, None, :, :]
        + m2[:, :, None, :, None] * m2[:, None, :, None, :]
        + m2[:, :, None, None, :] * m2[:, None, :, :, None]
    )
    # Each block is gathered with advanced indices only, the row coordinate
    # included, so that the batch axis stays fastest in memory: the eigen
    # step's matrix products round differently on another layout.
    rows = np.arange(p)[:, None]
    blocks = {}

    if any(s.family == "z2" for s in statistics):
        u, v = np.triu_indices(p)
        # entry (a, b) of b22 belongs to the pairs (i, j) = (u[a], v[a]) and (k, l) = (u[b], v[b])
        i, k = np.meshgrid(u, u, indexing="ij")
        j, l = np.meshgrid(v, v, indexing="ij")
        b22 = (m4[:, i, j, k, l] - m2[:, i, j] * m2[:, k, l]) / scale
        if n is not None:
            b22 += (m2[:, i, k] * m2[:, j, l] + m2[:, i, l] * m2[:, j, k]) / (n * (n - 1))
        blocks["z2"] = (m3[:, rows, u, v] / scale, b22)

    if any(s.family == "z3" for s in statistics):
        i, j, k = np.array(triple_indices(p)).T
        if n is None:
            weights = (-1.0, 1.0, 1.0)
        else:
            weights = (-1.0 / n, 1.0 / (n - 1), n / ((n - 1) * (n - 2)))
        blocks["z3"] = (k4[:, rows, i, j, k] / scale, _z3_b22(sixth, m3, k4, weights))

    out = {}
    for family, (b12, b22) in blocks.items():
        vals = batch_functionals(cancor_eigs(m2 / scale, b12, b22)[0])
        for sid in statistics:
            if sid.family == family:
                out[sid] = vals[sid.functional]
    return out


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
    need_mardia = any(s.family.startswith("mardia") for s in statistics)
    if need_z2 and n < second_order_threshold(p):
        raise SampleSizeError(
            f"z2 statistics need n >= {second_order_threshold(p)} for p={p}, got n={n}"
        )
    if need_z3 and n < third_order_threshold(p):
        raise SampleSizeError(
            f"z3 statistics need n >= {third_order_threshold(p)} for p={p}, got n={n}"
        )

    xc = data - data.mean(axis=1, keepdims=True)
    # Each column in units of the power of two at its largest |value|: exact,
    # so the equilibrated covariance and y keep their bits, and the products
    # of xc^T xc can neither overflow nor underflow whatever the data's units.
    # The largest values are read from a (B, p, n) buffer, whose reductions
    # run along contiguous rows (several times faster than along axis 1 of
    # xc); the buffer then holds y, so that the scaling allocates no array.
    buf = np.empty((nb, p, n))
    np.abs(np.swapaxes(xc, 1, 2), out=buf)
    np.ldexp(xc, -np.frexp(buf.max(axis=2))[1][:, None, :], out=xc)
    cov = np.swapaxes(xc, 1, 2) @ xc / n
    cond, whitening = equilibrated_condition(cov)
    bad = np.flatnonzero(~(cond <= CONDITION_LIMIT))
    if bad.size:
        raise DegenerateSampleError(
            f"rank-deficient sample covariance in {bad.size} batch item(s), "
            f"first item {bad[0]}",
            item=int(bad[0]),
        )
    y = np.matmul(xc, np.swapaxes(whitening, 1, 2), out=buf.reshape(nb, n, p))

    out: dict[StatisticId, np.ndarray] = {}

    if need_mardia:
        r = np.sum(y * y, axis=2)
        if StatisticId("mardia_kurt") in statistics:
            out[StatisticId("mardia_kurt")] = ((n - 1) / n) ** 2 * np.mean(r * r, axis=1)

    t2 = (y[:, :, :, None] * y[:, :, None, :]).reshape(nb, n, p * p)
    m2 = t2.mean(axis=1).reshape(nb, p, p)
    m3 = (np.swapaxes(t2, 1, 2) @ y).reshape(nb, p, p, p) / n

    if StatisticId("mardia_skew") in statistics:
        out[StatisticId("mardia_skew")] = ((n - 1) / n) ** 3 * np.sum(m3 * m3, axis=(1, 2, 3))

    if need_z2 or need_z3:
        m4 = (np.swapaxes(t2, 1, 2) @ t2).reshape(nb, p, p, p, p) / n
        sixth = _z3_gram(y, t2) if need_z3 else None
        out.update(_cancor_values(m2, m3, m4, sixth, n, statistics))
    return out


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
    whitened m2 is the identity up to roundoff.  The two Mardia values are
    then the sum of the squared whitened third moments and the trace of the
    whitened fourth moments, and the z2 and z3 families go through the
    sample path's block builder at ``n=None``, in one call for the whole
    stack, with the whitened m6 on pairs of distinct triples as the
    sixth-order term.  An item's values do not depend on the other items.
    """
    statistics = tuple(statistics)
    m2 = np.asarray(m2, dtype=float)
    cond, whitening = equilibrated_condition(m2)
    bad = np.flatnonzero(~(cond <= CONDITION_LIMIT))
    if bad.size:
        raise SingularBlockError(
            f"population covariance is numerically singular in {bad.size} batch item(s), "
            f"first item {bad[0]}",
            item=int(bad[0]),
        )
    need_z3 = any(s.family == "z3" for s in statistics)
    if need_z3 and m6 is None:
        raise ValueError("z3 statistics need the sixth moments m6")

    def whitened(m):
        m = np.asarray(m, dtype=float)
        return np.stack([_along_every_axis(item, w) for item, w in zip(m, whitening)])

    m2, m3, m4 = whitened(m2), whitened(m3), whitened(m4)
    out = {}
    if StatisticId("mardia_skew") in statistics:
        out[StatisticId("mardia_skew")] = np.sum(m3 * m3, axis=(1, 2, 3))
    if StatisticId("mardia_kurt") in statistics:
        out[StatisticId("mardia_kurt")] = np.einsum("biijj->b", m4)
    sixth = None
    if need_z3:
        i, j, k = np.array(triple_indices(m2.shape[1])).T
        sixth = whitened(m6)[:, i[:, None], j[:, None], k[:, None], i, j, k]
    out.update(_cancor_values(m2, m3, m4, sixth, None, statistics))
    return out
