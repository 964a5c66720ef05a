"""Random-variate generators and population moments for the simulation study.

Two groups of alternatives are provided.  The first builds dependent vectors
with prescribed marginals from a shared factor X0: products of lognormals,
differences and sums of gammas, gamma ratios (beta marginals) and a product
construction with Laplace marginals.  The second group is purely
multivariate: the t distribution with 2 degrees of freedom, the asymmetric
multivariate Laplace family, and contaminated normal mixtures.

Population central moments up to order six are computed in closed form
wherever the construction is polynomial in independent factors (conditioning
on the shared factor makes the coordinates independent); the gamma-ratio
rows reduce to a single adaptive quadrature over the shared factor, with the
conditional moments in closed form through the confluent hypergeometric U
function.  The heavy-tailed t(2) has no moments of the orders needed here
and population quantities raise ``MomentsUndefinedError``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from math import comb, exp, factorial, gamma, sqrt
from operator import index

import numpy as np

from .covblocks import _matchings
from .moments import MomentTable


class MomentsUndefinedError(ValueError):
    """The alternative has no finite population moments of the needed order."""


@dataclass(frozen=True)
class RngStream:
    """A reproducible random stream: a root seed plus a branch path.

    Distinct (seed, path) pairs yield statistically independent Philox
    streams; equal pairs reproduce identical draws regardless of scheduling,
    which is what makes parallel Monte Carlo runs worker-count independent.
    """

    seed: int
    path: tuple[int, ...] = ()

    def __post_init__(self):
        # SeedSequence takes non-negative integers only; checked here so that
        # a bad seed fails before any work, not inside a pool worker.
        try:
            seed = index(self.seed)
            path = tuple(index(i) for i in self.path)
        except TypeError:
            raise ValueError(
                f"seed and stream path must be integers, got {self.seed!r}, {self.path!r}"
            ) from None
        if seed < 0 or any(i < 0 for i in path):
            raise ValueError(
                f"seed and stream path must be non-negative, got {seed}, {path}"
            )
        object.__setattr__(self, "seed", seed)
        object.__setattr__(self, "path", path)

    def child(self, *indices: int) -> "RngStream":
        return RngStream(self.seed, self.path + tuple(indices))

    def generator(self) -> np.random.Generator:
        seq = np.random.SeedSequence(entropy=self.seed, spawn_key=self.path)
        return np.random.Generator(np.random.Philox(seq))


# numpy.random.SeedSequence's hash constants (pool of four uint32 words).
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_MASK32 = 0xFFFFFFFF


def _hasher(const: int, mult: int):
    """SeedSequence's word hash: each call uses, then advances, its constant."""

    def hash_words(value):
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * mult & _MASK32
        value = value * np.uint32(const)
        return value ^ (value >> 16)

    return hash_words


def _uint32_words(value: int) -> list[int]:
    """The little-endian uint32 words SeedSequence makes of an integer."""
    words = [value & _MASK32]
    while value > _MASK32:
        value >>= 32
        words.append(value & _MASK32)
    return words


def stream_keys(rng: RngStream, context: int, start: int, count: int) -> np.ndarray:
    """Philox keys, shape (count, 2) uint64, of ``rng.child(context, r)`` for
    r = start .. start + count - 1.

    Row i equals ``SeedSequence(entropy=seed, spawn_key=path + (context,
    start + i)).generate_state(2, np.uint64)`` bit for bit: SeedSequence's
    entropy mixing, with the replication index as the one word that varies.
    """
    if not (start >= 0 and count >= 0 and start + count <= 2**32):
        raise ValueError(f"replication indices {start}..{start + count - 1} must fit in uint32")
    seed = _uint32_words(rng.seed)
    seed += [0] * (4 - len(seed))  # a spawned SeedSequence pads its seed to the pool
    words = seed + [w for i in rng.path + (context,) for w in _uint32_words(i)]
    entropy = [np.full(count, w, dtype=np.uint32) for w in words]
    entropy.append(np.arange(start, start + count, dtype=np.uint64).astype(np.uint32))
    hashmix = _hasher(_INIT_A, _MULT_A)

    def mix(x, y):
        out = _MIX_L * x - _MIX_R * y
        return out ^ (out >> 16)

    pool = [hashmix(w) for w in entropy[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for w in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(w))
    output = _hasher(_INIT_B, _MULT_B)
    state = [output(word).astype(np.uint64) for word in pool]
    return np.stack([state[0] | state[1] << 32, state[2] | state[3] << 32], axis=1)


def stream_generators(rng: RngStream, context: int, start: int, count: int):
    """Yield, for r = start .. start + count - 1, a Generator in the state
    ``rng.child(context, r).generator()`` starts in.

    One Generator is re-keyed in place before each yield (counter 0, empty
    buffer: a freshly seeded Philox), so use each before taking the next.
    """
    bitgen = np.random.Philox(0)
    g = np.random.Generator(bitgen)
    zeros = np.zeros(4, dtype=np.uint64)
    for key in stream_keys(rng, context, start, count):
        bitgen.state = {
            "bit_generator": "Philox",
            "state": {"counter": zeros, "key": key},
            "buffer": zeros,
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }
        yield g


def equicorrelation(p: int, r: float) -> np.ndarray:
    """Covariance matrix with unit variances and common correlation r."""
    if not -1.0 / max(p - 1, 1) < r < 1.0:
        raise ValueError(f"correlation {r} does not give a positive definite matrix for p={p}")
    return np.full((p, p), r) + (1.0 - r) * np.eye(p)


@lru_cache(maxsize=None)
def _mixing_factor(p: int, r: float) -> np.ndarray:
    """Cholesky factor of ``equicorrelation(p, r)``, built once per (p, r)."""
    chol = np.linalg.cholesky(equicorrelation(p, r))
    chol.flags.writeable = False
    return chol


@dataclass(frozen=True)
class AlternativeSpec:
    """One sampling distribution of the study, fully determined by its name
    and the dimension p."""

    name: str
    p: int
    kind: str
    label: str
    params: tuple[tuple[str, float], ...] = ()

    def param(self, key: str) -> float:
        return dict(self.params)[key]

    def __str__(self) -> str:
        return self.name


def _spec(name, p, kind, label, **params) -> AlternativeSpec:
    return AlternativeSpec(
        name=name, p=p, kind=kind, label=label,
        params=tuple(sorted((k, float(v)) for k, v in params.items())),
    )


_MIXTURES = [
    ("mix90_m1_r0", 0.9, 1.0, 0.0),
    ("mix90_m2_r0", 0.9, 2.0, 0.0),
    ("mix90_m0_r05", 0.9, 0.0, 0.5),
    ("mix90_m1_r05", 0.9, 1.0, 0.5),
    ("mix90_m2_r05", 0.9, 2.0, 0.5),
    ("mix75_m1_r0", 0.75, 1.0, 0.0),
    ("mix75_m2_r0", 0.75, 2.0, 0.0),
    ("mix75_m0_r05", 0.75, 0.0, 0.5),
    ("mix75_m1_r05", 0.75, 1.0, 0.5),
    ("mix75_m2_r05", 0.75, 2.0, 0.5),
]


def _registry(p: int) -> dict[str, AlternativeSpec]:
    specs = [
        _spec("normal", p, "normal", "Normal"),
        _spec("indep_exp", p, "iid_exp", "Indep. Exp(1)"),
        # Product of two i.i.d. lognormal factors with the stated log-variance;
        # the marginal log-variance is twice that.  The scale sequence is
        # 1, 1/16, 1/256 (each factor's log-sd is the square of the nominal
        # scale parameter 1, 0.5, 0.25 in the row labels).
        _spec("logn_2", p, "shared_product", "LogN(0,2)", factor_logvar=1.0),
        _spec("logn_1", p, "shared_product", "LogN(0,1)", factor_logvar=0.0625),
        _spec("logn_05", p, "shared_product", "LogN(0,0.5)", factor_logvar=0.25**4),
        _spec("laplace1", p, "shared_add", "Laplace(0,1) type I",
              sign=-1.0, shape0=1.0, scale0=1.0, shape=1.0, scale=1.0),
        _spec("laplace2", p, "laplace_product", "Laplace(0,1) type II"),
        _spec("beta11", p, "gamma_ratio", "Beta(1,1)", alpha=1.0, beta=1.0),
        _spec("beta12", p, "gamma_ratio", "Beta(1,2)", alpha=1.0, beta=2.0),
        _spec("beta22", p, "gamma_ratio", "Beta(2,2)", alpha=2.0, beta=2.0),
        _spec("chisq2", p, "shared_add", "Chi-square(2)",
              sign=1.0, shape0=0.5, scale0=2.0, shape=0.5, scale=2.0),
        _spec("chisq8", p, "shared_add", "Chi-square(8)",
              sign=1.0, shape0=2.0, scale0=2.0, shape=2.0, scale=2.0),
        _spec("t2", p, "student_t", "t(2)", dof=2.0),
        _spec("al0_r0", p, "asym_laplace", "AL(0, S_0)", shift=0.0, corr=0.0),
        _spec("al1_r0", p, "asym_laplace", "AL(1, S_0)", shift=1.0, corr=0.0),
        _spec("al3_r0", p, "asym_laplace", "AL(3, S_0)", shift=3.0, corr=0.0),
        _spec("al1_r05", p, "asym_laplace", "AL(1, S_0.5)", shift=1.0, corr=0.5),
        _spec("al1_r09", p, "asym_laplace", "AL(1, S_0.9)", shift=1.0, corr=0.9),
    ]
    for name, w, m, r in _MIXTURES:
        frac = "9/10" if w == 0.9 else "3/4"
        rest = "1/10" if w == 0.9 else "1/4"
        sig = "S_0" if r == 0.0 else f"S_{r:g}"
        specs.append(
            _spec(name, p, "normal_mixture",
                  f"{frac} N(0,S_0) + {rest} N({m:g},{sig})",
                  weight=w, shift=m, corr=r)
        )
    return {s.name: s for s in specs}


# The marginal-construction rows, then the purely multivariate rows, in the
# order the study tables list them.
TABLE1_NAMES = (
    "indep_exp", "logn_2", "logn_1", "logn_05", "laplace1", "laplace2",
    "beta11", "beta12", "beta22", "chisq2", "chisq8",
)
TABLE2_NAMES = (
    "t2", "al0_r0", "al1_r0", "al3_r0", "al1_r05", "al1_r09",
) + tuple(name for name, *_ in _MIXTURES)
ALL_ALTERNATIVE_NAMES = TABLE1_NAMES + TABLE2_NAMES


def available_alternatives() -> tuple[str, ...]:
    return ("normal",) + ALL_ALTERNATIVE_NAMES


def alternative(name: str, p: int) -> AlternativeSpec:
    reg = _registry(p)
    if name not in reg:
        known = ", ".join(sorted(reg))
        raise ValueError(f"unknown alternative {name!r}; valid names: {known}")
    return reg[name]


# ---------------------------------------------------------------------------
# sampling


def generate(spec: AlternativeSpec, n: int, rng: RngStream | np.random.Generator) -> np.ndarray:
    """Draw n i.i.d. p-vectors; a fixed draw sequence per (spec, n, stream).

    ``rng`` is a stream, or a Generator already in the stream's starting
    state (see ``stream_generators``).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    g = rng if isinstance(rng, np.random.Generator) else rng.generator()
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


# ---------------------------------------------------------------------------
# population moments

# Raw moments E[X^k], k = 0..6.


def _lognormal_raw(logvar: float) -> list[float]:
    return [exp(k * k * logvar / 2.0) for k in range(7)]


def _gamma_raw(shape: float, scale: float) -> list[float]:
    out = [1.0]
    for k in range(1, 7):
        out.append(out[-1] * scale * (shape + k - 1))
    return out


def _normal_raw() -> list[float]:
    # (k-1)!! for even k, 0 for odd.
    return [1.0, 0.0, 1.0, 0.0, 3.0, 0.0, 15.0]


def _central_from_raw(raw: list[float]) -> list[float]:
    mean = raw[1]
    return [
        sum(comb(s, k) * raw[k] * (-mean) ** (s - k) for k in range(s + 1))
        for s in range(7)
    ]


def _isserlis(sigma: np.ndarray, indices: tuple[int, ...]) -> float:
    """Central moment of a zero-mean Gaussian with covariance sigma."""
    if len(indices) % 2 == 1:
        return 0.0
    total = 0.0
    for match in _matchings(tuple(range(len(indices)))):
        prod = 1.0
        for a, b in match:
            prod *= sigma[indices[a], indices[b]]
        total += prod
    return total


def _shifted_gaussian_moment(delta: float, sigma: np.ndarray, indices: tuple[int, ...]) -> float:
    """E of a product of (delta + G_i) factors for constant scalar shift delta."""
    slots = range(len(indices))
    total = 0.0
    for size in range(0, len(indices) + 1, 2):
        for subset in combinations(slots, size):
            gauss = _isserlis(sigma, tuple(indices[s] for s in subset))
            total += delta ** (len(indices) - size) * gauss
    return total


def _exp_weight(j: int, h: int) -> float:
    """E[(W-1)^j W^h] for W standard exponential."""
    return sum(comb(j, l) * (-1.0) ** (j - l) * factorial(l + h) for l in range(j + 1))


@lru_cache(maxsize=None)
def _ratio_moment(alpha: float, beta: float, counts: tuple[int, ...]) -> float:
    """Central moment of a gamma-ratio pattern.

    Conditioning on the shared denominator factor X0 = t makes the
    coordinates independent, and the conditional moments have the closed
    form E[(X/(X+t))^k] = t^alpha Gamma(alpha+k)/Gamma(alpha) U(alpha+k,
    alpha+1, t) with U the Tricomi confluent hypergeometric function, so a
    single adaptive integral over t remains.
    """
    import warnings

    from scipy.integrate import IntegrationWarning, quad
    from scipy.special import hyperu

    mean = alpha / (alpha + beta)
    coef = [gamma(alpha + k) / gamma(alpha) for k in range(7)]

    def integrand(t):
        # E[(X/(X+t))^k | t] for k = 0 .. max(counts), shared by every count
        power = [1.0] + [
            coef[k] * t**alpha * hyperu(alpha + k, alpha + 1.0, t)
            for k in range(1, max(counts) + 1)
        ]
        out = t ** (beta - 1.0) * np.exp(-t) / gamma(beta)
        for c in counts:
            out = out * sum(comb(c, j) * (-mean) ** (c - j) * power[j] for j in range(c + 1))
        return out

    with warnings.catch_warnings():
        # near machine precision quad reports roundoff; accuracy is verified
        # against exact beta marginals in the test suite
        warnings.simplefilter("ignore", IntegrationWarning)
        value, _ = quad(integrand, 0.0, np.inf, epsabs=1e-12, epsrel=1e-11, limit=400)
    return value


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


def population_moments(spec: AlternativeSpec, max_order: int = 6) -> MomentTable:
    """Exact (or quadrature-grade) population central moments of an alternative."""
    if not 2 <= max_order <= 6:
        raise ValueError("max_order must be in 2..6")
    kind = spec.kind
    if kind == "student_t":
        raise MomentsUndefinedError(
            f"{spec.name} has no finite moments of order >= 2 at {int(spec.param('dof'))} "
            "degrees of freedom"
        )

    if kind == "normal":
        eye = np.eye(spec.p)
        return MomentTable.from_function(
            spec.p, max_order, lambda idx: _isserlis(eye, idx)
        )
    if kind == "iid_exp":
        cent = _central_from_raw(_gamma_raw(1.0, 1.0))

        def mu_iid(idx):
            out = 1.0
            for coord in set(idx):
                out *= cent[idx.count(coord)]
            return out

        return MomentTable.from_function(spec.p, max_order, mu_iid)
    if kind in ("shared_product", "shared_add", "laplace_product", "gamma_ratio"):

        def mu_shared(idx):
            counts = tuple(sorted(idx.count(c) for c in set(idx)))
            return _shared_factor_moment(counts, spec)

        return MomentTable.from_function(spec.p, max_order, mu_shared)
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

        return MomentTable.from_function(spec.p, max_order, mu_al)
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

        return MomentTable.from_function(spec.p, max_order, mu_mix)
    raise ValueError(f"unknown alternative kind {kind!r}")
