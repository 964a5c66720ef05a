"""Reference sampler: one sample per call, drawn with numpy's own
distributions (``normal``, ``gamma``, ``chisquare``) and transformed per
sample.

``alternatives.generate_group`` must reproduce it byte for byte, sample by
sample, over any sequence of generators, for one alternative or for a group
that shares its draws.
"""

from math import sqrt

import numpy as np

from cancornorm.alternatives import AlternativeSpec, _mixing_factor


def generate_reference(spec: AlternativeSpec, n: int, g: np.random.Generator) -> np.ndarray:
    p = spec.p
    kind = spec.kind
    if kind == "normal":
        return g.standard_normal((n, p))
    if kind == "iid_exp":
        return g.standard_exponential((n, p))
    if kind == "shared_product":
        sd = sqrt(spec.param("factor_logvar"))
        x0 = np.exp(g.normal(0.0, sd, size=n))
        x = np.exp(g.normal(0.0, sd, size=(n, p)))
        return x0[:, None] * x
    if kind == "shared_add":
        x0 = g.gamma(spec.param("shape0"), spec.param("scale0"), size=n)
        x = g.gamma(spec.param("shape"), spec.param("scale"), size=(n, p))
        return x + spec.param("sign") * x0[:, None]
    if kind == "laplace_product":
        x0 = g.standard_normal(n)
        z1 = g.standard_normal((n, p))
        z2 = g.standard_normal((n, p))
        z3 = g.standard_normal((n, p))
        return x0[:, None] * z1 + z2 * z3
    if kind == "gamma_ratio":
        x = g.gamma(spec.param("alpha"), 1.0, size=(n, p))
        x0 = g.gamma(spec.param("beta"), 1.0, size=n)
        return x / (x + x0[:, None])
    if kind == "student_t":
        z = g.standard_normal((n, p))
        w = g.chisquare(spec.param("dof"), size=n)
        return z / np.sqrt(w / spec.param("dof"))[:, None]
    if kind == "asym_laplace":
        chol = _mixing_factor(p, spec.param("corr"))
        w = g.standard_exponential(n)
        z = g.standard_normal((n, p))
        return w[:, None] * spec.param("shift") + np.sqrt(w)[:, None] * (z @ chol.T)
    if kind == "normal_mixture":
        chol = _mixing_factor(p, spec.param("corr"))
        pick = g.random(n) < spec.param("weight")
        z = g.standard_normal((n, p))
        contaminated = spec.param("shift") + z @ chol.T
        return np.where(pick[:, None], z, contaminated)
    raise ValueError(f"unknown alternative kind {kind!r}")
