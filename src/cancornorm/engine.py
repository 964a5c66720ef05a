"""Evaluation of the twelve statistics over batches of samples.

This is the one numerical path from data to statistic values: null
calibration and power studies call it on (B, n, p) stacks, and the
per-sample functions in ``stats`` call it on a stack of one.  All moment
tensors and covariance blocks are built as batched array operations, and
the squared canonical correlations come from the kernel in ``cancor``.

Every sample is centered and whitened by the Cholesky factor of its own
covariance before any moment is formed, so its second moments m2 are the
identity up to roundoff (L^-1 m2 L^-T = I).  The third-order block relies
on this: every m2 factor in its permutation sums is a Kronecker delta, so
those sums are fixed linear combinations of the fourth cumulants, of
products of two third moments and of constants.  They are precompiled, per
dimension p, into one sparse map derived from the very same term lists that
``covblocks`` uses, so there is a single source of truth for the
combinatorics; the 1/n, 1/(n-1) and n/((n-1)(n-2)) weights are folded into
the map before it is applied.  The sixth moments enter only on pairs of
distinct index triples, as the Gram matrix of the distinct triple products,
so no p^6 tensor is formed.  The second-order blocks are gathered from the
moment tensors with precompiled index arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING

import numpy as np

from .cancor import CONDITION_LIMIT, FUNCTIONAL_NAMES, batch_functionals, cancor_eigs
from .covblocks import (
    permutation_scheme,
    second_order_threshold,
    third_order_threshold,
)
from .errors import DegenerateSampleError, SampleSizeError
from .moments import pair_indices, triple_indices

if TYPE_CHECKING:
    from scipy.sparse import csr_array


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


def equilibrated_condition(cov: np.ndarray) -> np.ndarray:
    """Condition number of D^-1/2 cov D^-1/2, D = diag(cov), per matrix of a stack.

    Every statistic is invariant to rescaling a coordinate, so rank
    deficiency is judged on this equilibrated (correlation) matrix rather
    than in raw units (Higham, Accuracy and Stability of Numerical
    Algorithms, section 7.3).  A zero variance gives inf.
    """
    var = np.diagonal(cov, axis1=-2, axis2=-1)
    live = np.all(var > 0.0, axis=-1)
    d = np.sqrt(np.where(live[..., None], var, 1.0))
    cond = np.linalg.cond(cov / (d[..., :, None] * d[..., None, :]))
    return np.where(live, cond, np.inf)


@dataclass(frozen=True)
class _Program:
    """Gather-index arrays and constant term maps for one dimension p."""

    p: int
    k4_pairs: np.ndarray        # (p^4, 3, 2) flat2 indices for the pair contractions
    l12: np.ndarray             # (p, q2) flat3
    l22_m4: np.ndarray          # (q2, q2) flat4
    l22_prod: np.ndarray        # (q2, q2, 3, 2) flat2: (ij,kl), (ik,jl), (il,jk)
    s12: np.ndarray             # (p, q3) flat4
    m3_distinct: np.ndarray     # (q3,) flat3 of the distinct third-order products
    z3_map: csr_array           # (q3^2, p^4 + q3^2 + 1) pattern of the z3 term map
    z3_coef: np.ndarray         # (3, nnz) term counts weighted by -1/n, 1/(n-1), n/((n-1)(n-2))


def _flat(p: int, idx):
    """Row-major flat index of a coordinate tuple; given a stack of
    coordinate arrays it returns an array of flat indices."""
    out = 0
    for i in idx:
        out = out * p + i
    return out


def _z3_term_map(p: int, triples: np.ndarray) -> tuple[csr_array, np.ndarray]:
    """The permutation sums of the third-order b22 block as one sparse map.

    Row a * q3 + b stands for entry (a, b), whose six coordinates are
    c = triples[a] + triples[b].  Columns index the inputs [k4f (p^4 flat),
    m3 (x) m3 over distinct triples (q3^2 flat), 1].  Since m2 = I, a factor
    m2[c_x, c_y] is 1 when c_x == c_y and 0 otherwise: a pair term selects
    one k4f entry or vanishes, and a matching is a constant on the unit
    input.  Each term of each ``covblocks`` list adds 1 to coef[w] at its
    (row, column), w being the weight of its sum in b22: 0 for -1/n, 1 for
    1/(n-1), 2 for n/((n-1)(n-2)).  Returns the CSR pattern and coef.
    """
    q3 = len(triples)
    c = np.concatenate(np.broadcast_arrays(triples[:, None], triples[None, :]), axis=-1)
    row = np.arange(q3 * q3).reshape(q3, q3)
    everywhere = np.ones(row.shape, dtype=bool)
    tri_index = np.zeros(p**3, dtype=np.intp)
    tri_index[_flat(p, triples.T)] = np.arange(q3)
    n_k4, unit = p**4, p**4 + q3 * q3

    def coords(slots):
        return _flat(p, np.moveaxis(np.sort(c[..., list(slots)], axis=-1), -1, 0))

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
    indptr = np.searchsorted(key_rows, np.arange(q3 * q3 + 1))
    # Imported here, not at module level, so that only a z3 evaluation pays
    # for it; a pool forked after this call inherits the import.
    from scipy.sparse import csr_array

    return csr_array((coef[0], key_cols, indptr), shape=(q3 * q3, unit + 1)), coef


@lru_cache(maxsize=None)
def _program(p: int) -> _Program:
    pairs = pair_indices(p)
    triples = triple_indices(p)
    q2 = len(pairs)

    k4_pairs = np.empty((p**4, 3, 2), dtype=np.intp)
    for e in range(p**4):
        l = e % p
        k = (e // p) % p
        j = (e // p**2) % p
        i = e // p**3
        k4_pairs[e] = [
            (_flat(p, (i, j)), _flat(p, (k, l))),
            (_flat(p, (i, k)), _flat(p, (j, l))),
            (_flat(p, (i, l)), _flat(p, (j, k))),
        ]

    l12 = np.array([[_flat(p, (i,) + jk) for jk in pairs] for i in range(p)], dtype=np.intp)
    l22_m4 = np.empty((q2, q2), dtype=np.intp)
    l22_prod = np.empty((q2, q2, 3, 2), dtype=np.intp)
    for a, (i, j) in enumerate(pairs):
        for b, (k, l) in enumerate(pairs):
            l22_m4[a, b] = _flat(p, (i, j, k, l))
            l22_prod[a, b] = [
                (_flat(p, (i, j)), _flat(p, (k, l))),
                (_flat(p, (i, k)), _flat(p, (j, l))),
                (_flat(p, (i, l)), _flat(p, (j, k))),
            ]

    s12 = np.array([[_flat(p, (i,) + t) for t in triples] for i in range(p)], dtype=np.intp)
    tri = np.array(triples, dtype=np.intp)
    z3_map, z3_coef = _z3_term_map(p, tri)

    return _Program(
        p=p, k4_pairs=k4_pairs, l12=l12, l22_m4=l22_m4, l22_prod=l22_prod, s12=s12,
        m3_distinct=_flat(p, tri.T), z3_map=z3_map, z3_coef=z3_coef,
    )


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

    prog = _program(p)
    xc = data - data.mean(axis=1, keepdims=True)
    m2 = np.swapaxes(xc, 1, 2) @ xc / n
    cond = equilibrated_condition(m2)
    if np.any(~np.isfinite(cond)) or np.any(cond > CONDITION_LIMIT):
        raise DegenerateSampleError(
            f"rank-deficient sample covariance in {int(np.sum(~(cond <= CONDITION_LIMIT)))} "
            "batch item(s)"
        )
    try:
        chol = np.linalg.cholesky(m2)
    except np.linalg.LinAlgError as exc:
        raise DegenerateSampleError(f"rank-deficient sample in batch: {exc}") from exc
    y = np.swapaxes(np.linalg.solve(chol, np.swapaxes(xc, 1, 2)), 1, 2)

    out: dict[StatisticId, np.ndarray] = {}

    if need_mardia:
        r = np.sum(y * y, axis=2)
        if StatisticId("mardia_kurt") in statistics:
            out[StatisticId("mardia_kurt")] = ((n - 1) / n) ** 2 * np.mean(r * r, axis=1)

    t2 = (y[:, :, :, None] * y[:, :, None, :]).reshape(nb, n, p * p)
    m2f = t2.mean(axis=1)
    m3f = (np.swapaxes(t2, 1, 2) @ y).reshape(nb, p**3) / n

    if StatisticId("mardia_skew") in statistics:
        out[StatisticId("mardia_skew")] = ((n - 1) / n) ** 3 * np.sum(m3f * m3f, axis=1)

    if not (need_z2 or need_z3):
        return out

    m4f = (np.swapaxes(t2, 1, 2) @ t2).reshape(nb, p**4) / n
    kp = prog.k4_pairs
    k4f = m4f - (
        m2f[:, kp[:, 0, 0]] * m2f[:, kp[:, 0, 1]]
        + m2f[:, kp[:, 1, 0]] * m2f[:, kp[:, 1, 1]]
        + m2f[:, kp[:, 2, 0]] * m2f[:, kp[:, 2, 1]]
    )

    if need_z2:
        b11 = m2f.reshape(nb, p, p) / n
        b12 = m3f[:, prog.l12] / n
        lp = prog.l22_prod
        b22 = (m4f[:, prog.l22_m4] - m2f[:, lp[..., 0, 0]] * m2f[:, lp[..., 0, 1]]) / n + (
            m2f[:, lp[..., 1, 0]] * m2f[:, lp[..., 1, 1]]
            + m2f[:, lp[..., 2, 0]] * m2f[:, lp[..., 2, 1]]
        ) / (n * (n - 1))
        vals = batch_functionals(cancor_eigs(b11, b12, b22)[0])
        for sid in statistics:
            if sid.family == "z2":
                out[sid] = vals[sid.functional]

    if need_z3:
        q3 = len(prog.m3_distinct)
        # distinct triple products y_i y_j y_k: column (i, j) of t2 times column k of y
        t3 = t2[:, :, prog.m3_distinct // p] * y[:, :, prog.m3_distinct % p]
        m3d = m3f[:, prog.m3_distinct].T
        inputs = np.concatenate(
            [k4f.T, (m3d[:, None] * m3d[None, :]).reshape(q3 * q3, nb), np.ones((1, nb))]
        )
        term_map = prog.z3_map.copy()
        term_map.data = np.array([-1.0 / n, 1.0 / (n - 1), n / ((n - 1) * (n - 2))]) @ prog.z3_coef
        b22 = (np.swapaxes(t3, 1, 2) @ t3) / (n * n) + (term_map @ inputs).T.reshape(nb, q3, q3)
        b11 = m2f.reshape(nb, p, p) / n
        b12 = k4f[:, prog.s12] / n
        vals = batch_functionals(cancor_eigs(b11, b12, b22)[0])
        for sid in statistics:
            if sid.family == "z3":
                out[sid] = vals[sid.functional]

    return out
