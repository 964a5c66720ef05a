"""Random-variate generators and population moments for the simulation study.

Two groups of alternatives are provided.  The first builds dependent vectors
with prescribed marginals from a shared factor X0: products of lognormals,
differences and sums of gammas, gamma ratios (beta marginals) and a product
construction with Laplace marginals.  The second group is purely
multivariate: the t distribution with 2 degrees of freedom, the asymmetric
multivariate Laplace family, and contaminated normal mixtures.

Samples are drawn a chunk at a time (``generate_chunk``): every replication
draws its raw standard variates from its own generator into buffers shared
by the chunk, and the construction's transform then runs once over the
chunk.  ``generate`` is the one-sample case.

Every alternative is exchangeable in its coordinates, so a population
central moment depends only on the sorted multiplicities of its index, its
count pattern.  Each alternative has one rule, count pattern -> moment, by
one of two constructions.  Coordinates independent given a shared factor
(lognormal products, gamma sums and differences, Laplace products; i.i.d.
exponentials with a zero factor) expand binomially into powers of the factor
and of their own parts.  The gamma ratios take that expectation over the
factor by a fixed double-exponential rule whose nodes serve every pattern of
the row, the conditional moments at each node coming from three-term
recurrences.  Gaussians given a scalar (the normal, the asymmetric Laplace
family, the normal mixtures) sum Isserlis moments over the even subsets of
the index's slots, weighted by the scalar's moments.  The heavy-tailed t(2)
has no moments of the orders needed here and population quantities raise
``MomentsUndefinedError``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import combinations, product
from math import comb, exp, factorial, gamma, pi, sqrt
from numbers import Integral
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
    if not (isinstance(p, Integral) and p >= 1):
        raise ValueError(f"p must be an integer >= 1, got {p!r}")
    reg = _registry(int(p))
    if name not in reg:
        known = ", ".join(sorted(reg))
        raise ValueError(f"unknown alternative {name!r}; valid names: {known}")
    return reg[name]


# ---------------------------------------------------------------------------
# sampling


def generate(spec: AlternativeSpec, n: int, rng: RngStream | np.random.Generator) -> np.ndarray:
    """Draw n i.i.d. p-vectors; a fixed draw sequence per (spec, n, stream).

    ``rng`` is a stream, or a Generator already in the stream's starting
    state (see ``stream_generators``).  This is the one-sample case of
    ``generate_chunk``.
    """
    g = rng if isinstance(rng, np.random.Generator) else rng.generator()
    return generate_chunk(spec, n, (g,), 1)[0]


def _raw_draws(generators, count: int, *plan) -> list[np.ndarray]:
    """Raw variates of ``count`` samples, one (count, *shape) buffer per plan
    entry (Generator method, shape, *args).

    Each generator in turn fills its slice of every buffer, in plan order, so
    sample i holds what the plan's calls, made in that order on the i-th
    generator with ``size=shape``, would return.
    """
    bufs = [np.empty((count, *shape)) for _, shape, *_ in plan]
    calls = [
        (getattr(np.random.Generator, method), buf, args)
        for (method, _, *args), buf in zip(plan, bufs)
    ]
    drawn = 0
    for i, g in zip(range(count), generators):
        for method, buf, args in calls:
            method(g, *args, out=buf[i])
        drawn += 1
    if drawn != count:
        raise ValueError(f"{count} samples requested but only {drawn} generators given")
    return bufs


def generate_chunk(spec: AlternativeSpec, n: int, generators, count: int) -> np.ndarray:
    """Draw ``count`` samples of n i.i.d. p-vectors, shape (count, n, p);
    sample i comes from the i-th of ``generators``.

    The generators may be one Generator re-keyed in place between samples,
    as ``stream_generators`` yields them.  Each draws its sample's raw
    variates (standard normal, exponential, gamma and uniform) into
    preallocated buffers; the kind's transform then runs once over the whole
    chunk.  Sample i is bit-identical to drawing it alone from the i-th
    generator: ``normal(0, s)`` is ``s * standard_normal``, ``gamma(k, t)``
    is ``t * standard_gamma(k)`` and ``chisquare(d)`` is
    ``2 * standard_gamma(d / 2)``, computed by numpy in the same order.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    p = spec.p
    kind = spec.kind
    prm = dict(spec.params)
    vec, mat = (n,), (n, p)
    if kind == "normal":
        (z,) = _raw_draws(generators, count, ("standard_normal", mat))
        return z
    if kind == "iid_exp":
        (e,) = _raw_draws(generators, count, ("standard_exponential", mat))
        return e
    if kind == "shared_product":
        sd = sqrt(prm["factor_logvar"])
        z0, z = _raw_draws(
            generators, count, ("standard_normal", vec), ("standard_normal", mat)
        )
        return np.exp(sd * z0)[..., None] * np.exp(sd * z)
    if kind == "shared_add":
        g0, g = _raw_draws(
            generators, count,
            ("standard_gamma", vec, prm["shape0"]), ("standard_gamma", mat, prm["shape"]),
        )
        return prm["scale"] * g + prm["sign"] * (prm["scale0"] * g0)[..., None]
    if kind == "laplace_product":
        x0, z1, z2, z3 = _raw_draws(
            generators, count, ("standard_normal", vec), *[("standard_normal", mat)] * 3
        )
        return x0[..., None] * z1 + z2 * z3
    if kind == "gamma_ratio":
        x, x0 = _raw_draws(
            generators, count,
            ("standard_gamma", mat, prm["alpha"]), ("standard_gamma", vec, prm["beta"]),
        )
        return x / (x + x0[..., None])
    if kind == "student_t":
        dof = prm["dof"]
        z, g = _raw_draws(
            generators, count, ("standard_normal", mat), ("standard_gamma", vec, dof / 2.0)
        )
        return z / np.sqrt(2.0 * g / dof)[..., None]
    if kind == "asym_laplace":
        chol = _mixing_factor(p, prm["corr"])
        w, z = _raw_draws(
            generators, count, ("standard_exponential", vec), ("standard_normal", mat)
        )
        return w[..., None] * prm["shift"] + np.sqrt(w)[..., None] * (z @ chol.T)
    if kind == "normal_mixture":
        chol = _mixing_factor(p, prm["corr"])
        u, z = _raw_draws(generators, count, ("random", vec), ("standard_normal", mat))
        contaminated = prm["shift"] + z @ chol.T
        return np.where((u < prm["weight"])[..., None], z, contaminated)
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


@lru_cache(maxsize=None)
def _slot_matchings(k: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """The perfect matchings of the slots 0 .. k-1, built once per k."""
    return tuple(_matchings(tuple(range(k))))


def _isserlis(sigma: np.ndarray, indices: tuple[int, ...]) -> float:
    """Central moment of a zero-mean Gaussian with covariance sigma."""
    if len(indices) % 2 == 1:
        return 0.0
    total = 0.0
    for match in _slot_matchings(len(indices)):
        prod = 1.0
        for a, b in match:
            prod *= sigma[indices[a], indices[b]]
        total += prod
    return total


def _exp_weight(j: int, h: int) -> float:
    """E[(W-1)^j W^h] for W standard exponential."""
    return sum(comb(j, l) * (-1.0) ** (j - l) * factorial(l + h) for l in range(j + 1))


# The gamma-ratio integral over the shared factor t uses the exp-sinh
# (double-exponential) substitution t = exp(pi/2 sinh s) and the trapezoidal
# rule in s with step 1/16 over [-4, 2]: t runs from 2e-19 to 3e2, beyond
# which the gamma weight is below 1e-120.
_DE_STEP = 1.0 / 16
_DE_RANGE = (-64, 32)  # s = _DE_STEP * i for i in this range, ends included
# Start of the backward recurrence for t > 1; its truncation error is about
# exp(-4 sqrt(t * depth)), below 1e-20 at t = 1.
_MILLER_DEPTH = 150
_EULER_GAMMA = 0.5772156649015329


def _conditional_powers(alpha: int, t: np.ndarray, kmax: int) -> np.ndarray:
    """E[(X/(X+t))^k] for k = 0 .. kmax, X ~ Gamma(alpha, 1), per t > 0.

    These are (alpha)_k t^alpha U(alpha+k, alpha+1, t) with U the Tricomi
    confluent hypergeometric function (DLMF 13.4.4), and DLMF 13.3.7 makes
    R_k = E[(X/(X+t))^k] satisfy

        (alpha+k-1) R_{k-1} = (alpha+2k+t-1) R_k - k R_{k+1},  R_0 = 1.

    R_k is its minimal solution, so for t > 1 it is run backward from
    k = _MILLER_DEPTH and normalized by R_0 = 1 (Miller's algorithm).  For
    t <= 1, where that start would have to lie much deeper, R_k is expanded
    in J_j = E[(X+t)^-j]: J_1 = e^t E_1(t) by its power series,
    J_{j+1} = (t^-j - J_j)/j for X ~ Gamma(1), and each unit step of alpha
    by J^(a+1)_j = (J^(a)_{j-1} - t J^(a)_j)/a.  These forward recurrences
    lose a factor of about t in accuracy per step, which is harmless only
    for t <= 1.
    """
    out = np.empty((kmax + 1, len(t)))
    small = t <= 1.0
    ts = t[small]
    k = np.arange(1, 25)  # the last term is below 1e-25 at t = 1
    series = np.sum((-ts[:, None]) ** k / (k * np.cumprod(k.astype(float))), axis=1)
    neg_moments = [np.ones_like(ts), np.exp(ts) * (-_EULER_GAMMA - np.log(ts) - series)]
    for j in range(1, kmax):
        neg_moments.append((ts**-j - neg_moments[j]) / j)
    for a in range(1, alpha):
        neg_moments[1:] = [
            (neg_moments[j - 1] - ts * neg_moments[j]) / a for j in range(1, kmax + 1)
        ]
    for power in range(kmax + 1):
        out[power, small] = sum(
            comb(power, j) * (-ts) ** j * neg_moments[j] for j in range(power + 1)
        )

    tl = t[~small]
    after, current = np.zeros_like(tl), np.ones_like(tl)
    for power in range(_MILLER_DEPTH, 0, -1):
        before = ((alpha + 2 * power + tl - 1) * current - power * after) / (alpha + power - 1)
        after, current = current, before
        if power <= kmax + 1:
            out[power - 1, ~small] = current
    out[:, ~small] /= out[0, ~small]
    return out


@lru_cache(maxsize=None)
def _ratio_rule(alpha: float, beta: float) -> tuple[np.ndarray, np.ndarray]:
    """The weights of the gamma-ratio rule over the shared factor and, at its
    nodes, the conditional central powers E[(Y - mean)^c | t], c = 0 .. 6,
    of one coordinate Y = X/(X + t), X ~ Gamma(alpha, 1)."""
    if alpha != int(alpha) or alpha < 1:
        raise ValueError(f"gamma-ratio moments need a positive integer alpha, got {alpha}")
    s = _DE_STEP * np.arange(_DE_RANGE[0], _DE_RANGE[1] + 1)
    t = np.exp(pi / 2 * np.sinh(s))
    # dt = pi/2 cosh(s) t ds, times the Gamma(beta, 1) density of the factor
    weights = _DE_STEP * pi / 2 * np.cosh(s) * t**beta * np.exp(-t) / gamma(beta)
    mean = alpha / (alpha + beta)
    powers = _conditional_powers(int(alpha), t, 6)
    central = [
        sum(comb(c, j) * (-mean) ** (c - j) * powers[j] for j in range(c + 1)) for c in range(7)
    ]
    return weights, np.array(central)


def _ratio_moment(alpha: float, beta: float, counts: tuple[int, ...]) -> float:
    """Central moment of a gamma-ratio pattern.

    Conditioning on the shared denominator factor X0 = t makes the
    coordinates independent, so the moment is the integral over t of a
    product of conditional central powers, one per count.  Every pattern of
    a row is summed over the same nodes of ``_ratio_rule``.  For each of
    the three (alpha, beta) of the registry, all 28 count patterns of orders
    2-6 are within 2e-16 absolute of a 30-digit evaluation of the same
    integral.
    """
    weights, central = _ratio_rule(alpha, beta)
    return float(np.prod(central[list(counts)], axis=0) @ weights)


def _factor_rule(factor, own):
    """The rule of coordinates independent given a shared factor: the sum over
    k <= counts of ``factor[sum(k)] * prod own(c_i, k_i)``.  A coordinate's
    c-th power expands into k powers of its shared part, whose expectation is
    ``factor[k]``, and c - k of its own, which ``own(c, k)`` gives times the
    binomial coefficient.
    """
    table = [[own(c, k) for k in range(c + 1)] for c in range(7)]

    def rule(counts):
        total = 0.0
        for ks in product(*(range(c + 1) for c in counts)):
            term = factor[sum(ks)]
            for c, k in zip(counts, ks):
                term *= table[c][k]
            total += term
        return total

    return rule


def _gaussian_rule(atoms):
    """The rule of a mixture of atoms with coordinates D + sqrt(V) G_i, where
    G ~ N(0, sigma) is independent of the scalars (D, V): each even subset of
    the index's slots, 2h slots given to G and j to D, adds ``coef(j, h) =
    E[D^j V^h]`` times its Gaussian moment (Isserlis) to an atom's sum.
    """

    def rule(counts):
        slots = [coord for coord, c in enumerate(counts) for _ in range(c)]
        total = 0.0
        for weight, coef, sigma in atoms:
            part = 0.0
            for size in range(0, len(slots) + 1, 2):
                for subset in combinations(slots, size):
                    part += coef(len(slots) - size, size // 2) * _isserlis(sigma, subset)
            total += weight * part
        return total

    return rule


def _moment_rule(spec: AlternativeSpec):
    """The rule counts -> central moment of one alternative."""
    kind = spec.kind
    prm = dict(spec.params)
    if kind == "student_t":
        raise MomentsUndefinedError(
            f"{spec.name} has no finite moments of order >= 2 at {int(prm['dof'])} "
            "degrees of freedom"
        )
    if kind == "iid_exp":  # no shared factor: its central powers are 1, 0, 0, ...
        cent = _central_from_raw(_gamma_raw(1.0, 1.0))
        return _factor_rule([1.0] + [0.0] * 6, lambda c, k: comb(c, k) * cent[c - k])
    if kind == "shared_product":
        raw = _lognormal_raw(prm["factor_logvar"])
        a = raw[1] * raw[1]
        return _factor_rule(raw, lambda c, k: comb(c, k) * raw[k] * (-a) ** (c - k))
    if kind == "shared_add":
        cent0 = _central_from_raw(_gamma_raw(prm["shape0"], prm["scale0"]))
        centx = _central_from_raw(_gamma_raw(prm["shape"], prm["scale"]))
        return _factor_rule(
            [prm["sign"] ** j * cent0[j] for j in range(7)], lambda c, k: comb(c, k) * centx[c - k]
        )
    if kind == "laplace_product":
        nraw = _normal_raw()
        return _factor_rule(nraw, lambda c, k: comb(c, k) * nraw[k] * nraw[c - k] ** 2)
    if kind == "gamma_ratio":
        return partial(_ratio_moment, prm["alpha"], prm["beta"])
    if kind == "normal":
        return _gaussian_rule([(1.0, lambda j, h: float(j == 0), np.eye(spec.p))])
    if kind == "asym_laplace":  # D = shift (W - 1), V = W, W standard exponential
        shift = prm["shift"]
        sigma = equicorrelation(spec.p, prm["corr"])
        return _gaussian_rule([(1.0, lambda j, h: shift**j * _exp_weight(j, h), sigma)])
    if kind == "normal_mixture":  # constant D: each component's mean less the mixture's
        w, shift = prm["weight"], prm["shift"]
        sigma = equicorrelation(spec.p, prm["corr"])
        return _gaussian_rule([
            (w, lambda j, h: (-(1.0 - w) * shift) ** j, np.eye(spec.p)),
            (1.0 - w, lambda j, h: (w * shift) ** j, sigma),
        ])
    raise ValueError(f"unknown alternative kind {kind!r}")


def population_moments(spec: AlternativeSpec, max_order: int = 6) -> MomentTable:
    """Population central moments of an alternative, orders 2 .. max_order:
    its rule (see the module docstring), evaluated once per count pattern.
    Exact for the closed forms, quadrature-grade for the gamma ratios."""
    if not 2 <= max_order <= 6:
        raise ValueError("max_order must be in 2..6")
    rule = _moment_rule(spec)
    by_pattern = {}

    def mu(idx):
        counts = tuple(sorted(idx.count(c) for c in set(idx)))
        if counts not in by_pattern:
            by_pattern[counts] = rule(counts)
        return by_pattern[counts]

    return MomentTable.from_function(spec.p, max_order, mu)
