"""Reference population moments: every sorted multi-index evaluated on its
own, by the construction's expansion over that index's slots.

``covblocks.population_moments`` evaluates one rule per count pattern
instead.  It must reproduce this table bit for bit on the shared-factor
kinds, whose arithmetic per pattern is the same, and within rounding on the
Gaussian kinds, where an index and the pattern's representative sum their
slot subsets in different orders.
"""

from itertools import combinations
from math import comb

import numpy as np

from cancornorm.alternatives import (
    AlternativeSpec,
    _central_from_raw,
    _exp_weight,
    _gamma_raw,
    _isserlis,
    _lognormal_raw,
    _normal_raw,
    _ratio_moment,
    equicorrelation,
)
from cancornorm.covblocks import MomentTable, sorted_multi_indices


def table_from_function(p: int, max_order: int, f) -> MomentTable:
    """Build a table by evaluating ``f(index)`` on every sorted multi-index."""
    vals = {}
    for order in range(2, max_order + 1):
        for idx in sorted_multi_indices(p, order):
            vals[idx] = float(f(idx))
    return MomentTable(p=p, max_order=max_order, values=vals)


def _shifted_gaussian_moment(delta: float, sigma: np.ndarray, indices: tuple[int, ...]) -> float:
    """E of a product of (delta + G_i) factors for constant scalar shift delta."""
    slots = range(len(indices))
    total = 0.0
    for size in range(0, len(indices) + 1, 2):
        for subset in combinations(slots, size):
            gauss = _isserlis(sigma, tuple(indices[s] for s in subset))
            total += delta ** (len(indices) - size) * gauss
    return total


def _shared_factor_moment(counts: tuple[int, ...], spec: AlternativeSpec) -> float:
    """Central moment for one count pattern of a shared-factor construction."""
    kind = spec.kind
    if kind == "shared_product":
        raw = _lognormal_raw(spec.param("factor_logvar"))
        a = raw[1] * raw[1]
        total = 0.0
        for kvec in np.ndindex(*[c + 1 for c in counts]):
            coeff = raw[sum(kvec)]
            for c, k in zip(counts, kvec):
                coeff *= comb(c, k) * raw[k] * (-a) ** (c - k)
            total += coeff
        return total
    if kind == "shared_add":
        sign = spec.param("sign")
        cent0 = _central_from_raw(_gamma_raw(spec.param("shape0"), spec.param("scale0")))
        centx = _central_from_raw(_gamma_raw(spec.param("shape"), spec.param("scale")))
        total = 0.0
        for kvec in np.ndindex(*[c + 1 for c in counts]):
            ksum = sum(kvec)
            coeff = sign**ksum * cent0[ksum]
            for c, k in zip(counts, kvec):
                coeff *= comb(c, k) * centx[c - k]
            total += coeff
        return total
    if kind == "laplace_product":
        nraw = _normal_raw()
        total = 0.0
        for kvec in np.ndindex(*[c + 1 for c in counts]):
            coeff = nraw[sum(kvec)]
            for c, k in zip(counts, kvec):
                coeff *= comb(c, k) * nraw[k] * nraw[c - k] ** 2
            total += coeff
        return total
    if kind == "gamma_ratio":
        return _ratio_moment(spec.param("alpha"), spec.param("beta"), counts)
    raise ValueError(f"kind {kind!r} has no shared-factor moments")


def population_moments_reference(spec: AlternativeSpec, max_order: int = 6) -> MomentTable:
    kind = spec.kind
    if kind == "normal":
        eye = np.eye(spec.p)
        return table_from_function(spec.p, max_order, lambda idx: _isserlis(eye, idx))
    if kind == "iid_exp":
        cent = _central_from_raw(_gamma_raw(1.0, 1.0))

        def mu_iid(idx):
            out = 1.0
            for coord in set(idx):
                out *= cent[idx.count(coord)]
            return out

        return table_from_function(spec.p, max_order, mu_iid)
    if kind in ("shared_product", "shared_add", "laplace_product", "gamma_ratio"):

        def mu_shared(idx):
            counts = tuple(sorted(idx.count(c) for c in set(idx)))
            return _shared_factor_moment(counts, spec)

        return table_from_function(spec.p, max_order, mu_shared)
    if kind == "asym_laplace":
        sigma = equicorrelation(spec.p, spec.param("corr"))
        shift = spec.param("shift")

        def mu_al(idx):
            slots = range(len(idx))
            total = 0.0
            for size in range(0, len(idx) + 1, 2):
                for subset in combinations(slots, size):
                    gauss = _isserlis(sigma, tuple(idx[s] for s in subset))
                    if gauss == 0.0 and size > 0:
                        continue
                    total += (
                        shift ** (len(idx) - size)
                        * _exp_weight(len(idx) - size, size // 2)
                        * gauss
                    )
            return total

        return table_from_function(spec.p, max_order, mu_al)
    if kind == "normal_mixture":
        w = spec.param("weight")
        shift = spec.param("shift")
        sigma = equicorrelation(spec.p, spec.param("corr"))
        eye = np.eye(spec.p)
        delta_base = -(1.0 - w) * shift
        delta_cont = w * shift

        def mu_mix(idx):
            return w * _shifted_gaussian_moment(delta_base, eye, idx) + (
                1.0 - w
            ) * _shifted_gaussian_moment(delta_cont, sigma, idx)

        return table_from_function(spec.p, max_order, mu_mix)
    raise ValueError(f"unknown alternative kind {kind!r}")
