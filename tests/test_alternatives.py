"""Generator and population-moment tests for the study's alternatives.

Closed-form population moments are cross-checked against Monte Carlo
estimates of the same constructions; dependence structure is checked against
correlations derived by hand from the shared-factor representations.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import comb, exp, sqrt

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from cancornorm.alternatives import (
    ALL_ALTERNATIVE_NAMES,
    MomentsUndefinedError,
    RngStream,
    alternative,
    available_alternatives,
    equicorrelation,
    generate,
    generate_chunk,
    population_moments,
    stream_generators,
    stream_keys,
    _ratio_moment,
)
from cancornorm.moments import sorted_multi_indices
from population_oracle import population_moments_reference
from sampling_oracle import generate_reference


def test_registry_and_parsing():
    assert len(ALL_ALTERNATIVE_NAMES) == 27
    assert len(available_alternatives()) == 28
    for name in available_alternatives():
        spec = alternative(name, 2)
        assert spec.name == name
        assert str(spec) == name
    with pytest.raises(ValueError, match="valid names"):
        alternative("cauchy", 2)


@pytest.mark.parametrize("p", [0, -1, 2.0, 2.5, "3", None])
def test_alternative_rejects_bad_dimension(p):
    with pytest.raises(ValueError, match="p must be an integer >= 1"):
        alternative("normal", p)


def test_equicorrelation_validity():
    s = equicorrelation(3, 0.5)
    assert_array_equal(np.diag(s), np.ones(3))
    assert np.all(np.linalg.eigvalsh(s) > 0)
    with pytest.raises(ValueError):
        equicorrelation(3, -0.6)


def test_reproducibility_bit_identical():
    spec = alternative("al1_r05", 3)
    a = generate(spec, 100, RngStream(7, (3,)))
    b = generate(spec, 100, RngStream(7, (3,)))
    assert_array_equal(a, b)
    c = generate(spec, 100, RngStream(7, (4,)))
    assert not np.array_equal(a, c)


def test_child_streams_differ():
    r = RngStream(5)
    a = r.child(0, 1).generator().standard_normal(4)
    b = r.child(0, 2).generator().standard_normal(4)
    assert not np.array_equal(a, b)


@pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**32, 2**64 + 5, 2**40 + 3])
@pytest.mark.parametrize("path", [(), (3,), (2**32, 7), (2**40 + 1,)])
def test_stream_keys_match_seed_sequence(seed, path):
    rng = RngStream(seed, path)
    for context, start in ((0, 0), (1, 256), (2**33, 2**32 - 4)):
        keys = stream_keys(rng, context, start, 4)
        expected = [
            np.random.SeedSequence(
                entropy=seed, spawn_key=path + (context, start + i)
            ).generate_state(2, np.uint64)
            for i in range(4)
        ]
        assert keys.dtype == np.uint64
        assert_array_equal(keys, expected)


def test_stream_keys_need_uint32_replication_indices():
    with pytest.raises(ValueError, match="uint32"):
        stream_keys(RngStream(0), 0, 2**32 - 1, 2)
    with pytest.raises(ValueError, match="uint32"):
        stream_keys(RngStream(0), 0, -1, 2)


def test_stream_generators_reproduce_child_streams():
    specs = {}
    for name in available_alternatives():
        spec = alternative(name, 3)
        specs.setdefault(spec.kind, spec)
    assert len(specs) == 9
    rng = RngStream(11, (1, 20))
    for spec in specs.values():
        for start in (0, 256):
            chunk = [generate(spec, 20, g) for g in stream_generators(rng, 1, start, 16)]
            for i, x in enumerate(chunk):
                assert_array_equal(x, generate(spec, 20, rng.child(1, start + i)), err_msg=spec.kind)


@pytest.mark.parametrize("name", available_alternatives())
def test_chunk_sampler_matches_per_sample_oracle(name):
    # A full chunk and a ragged one, byte for byte against the reference
    # sampler run on each replication's generator in turn.
    rng = RngStream(17, (1, 50))
    for p, n in product((2, 3, 5), (20, 50, 100)):
        spec = alternative(name, p)
        for start, count in ((0, 256), (256, 232)):
            chunk = generate_chunk(spec, n, stream_generators(rng, 1, start, count), count)
            expected = np.stack(
                [generate_reference(spec, n, g) for g in stream_generators(rng, 1, start, count)]
            )
            assert chunk.shape == expected.shape == (count, n, p)
            assert chunk.tobytes() == expected.tobytes(), (p, n, start)
        stream = rng.child(1, 7)
        one = generate(spec, n, stream)
        assert one.tobytes() == generate_reference(spec, n, stream.generator()).tobytes()


def test_chunk_sampler_needs_a_generator_per_sample():
    spec = alternative("normal", 2)
    with pytest.raises(ValueError, match="only 3 generators"):
        generate_chunk(spec, 20, stream_generators(RngStream(1), 0, 0, 3), 4)
    with pytest.raises(ValueError, match="n must be"):
        generate_chunk(spec, 0, stream_generators(RngStream(1), 0, 0, 3), 3)


@pytest.mark.parametrize("seed, path", [(-1, ()), (0, (2, -1)), (1.5, ()), (0, (1.0,)), ("3", ())])
def test_stream_rejects_negative_or_non_integer_entries(seed, path):
    with pytest.raises(ValueError, match="seed and stream path"):
        RngStream(seed, path)


def test_stream_normalizes_integer_types():
    rng = RngStream(np.int64(4), [np.uint8(1)]).child(np.int32(2))
    assert rng == RngStream(4, (1, 2))
    assert type(rng.seed) is int and all(type(i) is int for i in rng.path)
    with pytest.raises(ValueError):
        rng.child(-3)


def test_generated_shapes():
    for name in available_alternatives():
        spec = alternative(name, 2)
        x = generate(spec, 50, RngStream(1))
        assert x.shape == (50, 2)
        assert np.all(np.isfinite(x))


def test_normal_marginals():
    x = generate(alternative("normal", 2), 100_000, RngStream(2))
    assert np.max(np.abs(x.mean(axis=0))) < 0.02
    assert np.max(np.abs(np.cov(x, rowvar=False) - np.eye(2))) < 0.02


def test_laplace1_marginal_moments():
    # difference of two unit exponentials: mean 0, variance 2, symmetric,
    # fourth central moment 24 (kurtosis 6)
    x = generate(alternative("laplace1", 2), 400_000, RngStream(3))
    xc = x[:, 0]
    assert abs(xc.mean()) < 0.02
    assert abs(xc.var() - 2.0) < 0.05
    assert abs(np.mean((xc - xc.mean()) ** 3)) < 0.15
    assert abs(np.mean((xc - xc.mean()) ** 4) - 24.0) < 1.5


def test_laplace2_marginal_is_laplace():
    x = generate(alternative("laplace2", 2), 400_000, RngStream(4))
    xc = x[:, 0]
    assert abs(xc.mean()) < 0.02
    assert abs(xc.var() - 2.0) < 0.05
    assert abs(np.mean(xc**4) / xc.var() ** 2 - 6.0) < 0.3


def test_beta12_marginal_mean():
    x = generate(alternative("beta12", 2), 200_000, RngStream(5))
    assert abs(x[:, 0].mean() - 1.0 / 3.0) < 0.01
    assert np.all((x > 0) & (x < 1))


def test_chisq_marginal_moments():
    x = generate(alternative("chisq2", 2), 200_000, RngStream(6))
    assert abs(x[:, 0].mean() - 2.0) < 0.05   # chi-square(2)
    assert abs(x[:, 0].var() - 4.0) < 0.2
    y = generate(alternative("chisq8", 2), 200_000, RngStream(7))
    assert abs(y[:, 0].mean() - 8.0) < 0.1
    assert abs(y[:, 0].var() - 16.0) < 0.6


def test_lognormal_marginal_matches_construction():
    spec = alternative("logn_1", 2)
    h = spec.param("factor_logvar")
    x = generate(spec, 400_000, RngStream(8))
    mean = exp(2 * h / 2)  # product of two factors, each exp(h/2)
    var = exp(2 * h) * (exp(2 * h) - 1)
    assert abs(x[:, 0].mean() - mean) < 4 * x[:, 0].std() / sqrt(len(x))
    assert abs(x[:, 0].var() - var) / var < 0.05


def test_t2_samples_heavy_tailed():
    x = generate(alternative("t2", 3), 100_000, RngStream(9))
    assert x.shape == (100_000, 3)
    assert np.max(np.abs(x)) > 50  # 2 degrees of freedom: wild tails


def test_dependence_signs():
    # shared-factor rows correlate positively, except the multiplicative
    # Laplace construction (zero correlation) and the i.i.d. exponential row
    expected_positive = ["logn_2", "logn_1", "logn_05", "laplace1", "beta11",
                         "beta12", "beta22", "chisq2", "chisq8"]
    for name in expected_positive:
        x = generate(alternative(name, 2), 200_000, RngStream(10))
        r = np.corrcoef(x, rowvar=False)[0, 1]
        assert r > 0.05, name
    x = generate(alternative("laplace2", 2), 400_000, RngStream(11))
    assert abs(np.corrcoef(x, rowvar=False)[0, 1]) < 0.01
    x = generate(alternative("indep_exp", 2), 400_000, RngStream(12))
    assert abs(np.corrcoef(x, rowvar=False)[0, 1]) < 0.01


def test_laplace1_correlation_is_half():
    # cov = var(X0) = 1, var = 2
    x = generate(alternative("laplace1", 2), 400_000, RngStream(13))
    assert abs(np.corrcoef(x, rowvar=False)[0, 1] - 0.5) < 0.01


def test_chisq_correlation_is_half():
    x = generate(alternative("chisq2", 2), 400_000, RngStream(14))
    assert abs(np.corrcoef(x, rowvar=False)[0, 1] - 0.5) < 0.01


def test_mixture_component_frequency():
    spec = alternative("mix75_m2_r0", 2)
    x = generate(spec, 200_000, RngStream(15))
    # contaminated component has mean 2 per coordinate; classify by distance
    frac_far = np.mean(x.sum(axis=1) > 2.0)
    # P(sum > 2) = 0.75 * P(N(0,2) > 2) + 0.25 * P(N(4,2) > 2)
    from scipy.stats import norm

    expected = 0.75 * norm.sf(2.0, 0.0, sqrt(2.0)) + 0.25 * norm.sf(2.0, 4.0, sqrt(2.0))
    assert abs(frac_far - expected) < 0.005


def test_al_mean_and_cov():
    spec = alternative("al1_r05", 2)
    x = generate(spec, 400_000, RngStream(16))
    assert_allclose(x.mean(axis=0), [1.0, 1.0], atol=0.02)
    # cov = mm' + Sigma_r
    expected = np.ones((2, 2)) + equicorrelation(2, 0.5)
    assert_allclose(np.cov(x, rowvar=False), expected, atol=0.05)


# ---------------------------------------------------------------------------
# population moments


MOMENT_DEFINED = [name for name in available_alternatives() if name != "t2"]
FACTOR_KINDS = {"iid_exp", "shared_product", "shared_add", "laplace_product", "gamma_ratio"}


@pytest.mark.parametrize("name", MOMENT_DEFINED)
def test_population_moments_match_per_index_oracle(name):
    # the shared-factor kinds do the oracle's arithmetic per count pattern;
    # the Gaussian kinds sum a pattern's slot subsets in another order
    for p in range(1, 5):
        spec = alternative(name, p)
        got = population_moments(spec, 6).values
        expected = population_moments_reference(spec, 6).values
        assert got.keys() == expected.keys()
        for index, v in expected.items():
            if spec.kind in FACTOR_KINDS:
                assert got[index] == v, (p, index)
            else:
                assert abs(got[index] - v) <= 1e-13 * max(abs(v), 1.0), (p, index)


@pytest.mark.parametrize("name", MOMENT_DEFINED)
def test_population_moments_depend_only_on_count_pattern(name):
    for p in range(1, 5):
        by_pattern = {}
        for index, v in population_moments(alternative(name, p), 6).values.items():
            pattern = tuple(sorted(index.count(c) for c in set(index)))
            first = by_pattern.setdefault(pattern, (index, v))
            assert v == first[1], (p, index, first[0])


def test_exp_population_moments_closed_form():
    m = population_moments(alternative("indep_exp", 2), 6)
    # Exp(1) central moments: 1, 2, 9, 44, 265
    assert_allclose(
        [m.mu(0, 0), m.mu(0, 0, 0), m.mu(0, 0, 0, 0),
         m.mu(0, 0, 0, 0, 0), m.mu(0, 0, 0, 0, 0, 0)],
        [1.0, 2.0, 9.0, 44.0, 265.0],
        rtol=1e-12,
    )
    # cross moments factorize; anything with a single occurrence vanishes
    assert m.mu(0, 1) == 0.0
    assert m.mu(0, 0, 1) == 0.0
    assert_allclose(m.mu(0, 0, 1, 1), 1.0)
    assert_allclose(m.mu(0, 0, 0, 1, 1, 1), 4.0)


def test_normal_population_moments_isserlis():
    m = population_moments(alternative("normal", 3), 6)
    assert m.mu(0, 0, 1) == 0.0
    assert m.mu(0, 1, 2, 0, 1) == 0.0
    assert_allclose(m.mu(0, 0, 0, 0), 3.0)
    assert_allclose(m.mu(0, 0, 1, 1), 1.0)
    assert_allclose(m.mu(0, 0, 0, 0, 0, 0), 15.0)
    assert_allclose(m.mu(0, 0, 0, 0, 1, 1), 3.0)
    assert_allclose(m.mu(0, 0, 1, 1, 2, 2), 1.0)


def test_t2_population_moments_undefined():
    with pytest.raises(MomentsUndefinedError):
        population_moments(alternative("t2", 2), 4)


@pytest.mark.parametrize(
    "name", ["logn_1", "laplace1", "laplace2", "beta11", "beta22",
             "al1_r05", "al3_r0", "mix75_m2_r05", "mix90_m1_r0"]
)
def test_population_moments_match_monte_carlo(name):
    spec = alternative(name, 2)
    m = population_moments(spec, 6)
    x = generate(spec, 1_000_000, RngStream(1234))
    xc = x - x.mean(axis=0)
    for idx in [(0, 0), (0, 1), (0, 0, 1), (0, 1, 1, 1), (0, 0, 0, 1),
                (0, 0, 1, 1, 1, 1), (0, 0, 0, 0, 1, 1)]:
        prod = np.ones(len(xc))
        for i in idx:
            prod = prod * xc[:, i]
        se = prod.std() / sqrt(len(xc))
        assert abs(prod.mean() - m.mu(*idx)) < 4.5 * se + 1e-9, (name, idx)


def test_beta_population_moments_exact_marginals():
    # every coordinate of the gamma-ratio rows is Beta(alpha, beta); its raw
    # moments are the products of (alpha + i) / (alpha + beta + i)
    for name, a, b in [("beta11", 1, 1), ("beta12", 1, 2), ("beta22", 2, 2)]:
        m = population_moments(alternative(name, 2), 6)
        raw = [Fraction(1)]
        for i in range(6):
            raw.append(raw[-1] * Fraction(a + i, a + b + i))
        mean = raw[1]
        for s in range(2, 7):
            exact = sum(comb(s, k) * raw[k] * (-mean) ** (s - k) for k in range(s + 1))
            assert_allclose(m.mu(*([0] * s)), float(exact), rtol=1e-12, atol=1e-15,
                            err_msg=f"{name} order {s}")


def test_beta_population_moments_match_mpmath_oracle():
    # The same one-dimensional integral over the shared factor t, at 20
    # digits: the conditional powers E[(X/(X+t))^k] from J_1 = e^t E_1(t),
    # the recurrence J_{j+1} = (t^-j - J_j)/j and, for alpha = 2, the lift
    # J_j <- J_{j-1} - t J_j.
    import mpmath as mp

    cases = {(0, 1, 1, 1, 1, 1): (1, 5), (0, 0, 0, 1, 1, 1): (3, 3), (0, 0, 1, 1, 2, 2): (2, 2, 2)}
    with mp.workdps(20):
        for name, a, b in [("beta11", 1, 1), ("beta12", 1, 2), ("beta22", 2, 2)]:
            mean = mp.mpf(a) / (a + b)

            @lru_cache(maxsize=None)
            def central(t):
                jm = [mp.mpf(1), mp.exp(t) * mp.e1(t)]
                for j in range(1, 5):
                    jm.append((t**-j - jm[j]) / j)
                if a == 2:
                    jm = [jm[0]] + [jm[j - 1] - t * jm[j] for j in range(1, 6)]
                power = [sum(comb(k, j) * (-t) ** j * jm[j] for j in range(k + 1))
                         for k in range(6)]
                return [sum(comb(c, j) * (-mean) ** (c - j) * power[j] for j in range(c + 1))
                        for c in range(6)]

            def integrand(t, counts):
                out = t ** (b - 1) * mp.exp(-t) / mp.gamma(b)
                for c in counts:
                    out *= central(t)[c]
                return out

            m = population_moments(alternative(name, 3), 6)
            for idx, counts in cases.items():
                exact = mp.quad(lambda t: integrand(t, counts), [0, 1, mp.inf])
                assert abs(m.mu(*idx) - float(exact)) <= 1e-13, (name, counts)


def test_ratio_moments_need_integer_alpha():
    with pytest.raises(ValueError, match="integer alpha"):
        _ratio_moment(1.5, 2.0, (2,))


def test_shared_sum_population_moments_exact_oracle():
    # independent derivation: central gamma moments by numerical integration,
    # then the conditional-independence expansion typed out directly
    from itertools import product as iproduct

    from scipy.integrate import quad
    from scipy.stats import gamma as gamma_dist

    shape, scale = 0.5, 2.0
    mean = shape * scale
    dist = gamma_dist(shape, scale=scale)
    cent = [
        quad(lambda x, s=s: (x - mean) ** s * dist.pdf(x), 0, np.inf,
             epsabs=1e-12, epsrel=1e-12, limit=300)[0]
        for s in range(7)
    ]
    m = population_moments(alternative("chisq2", 3), 6)
    for idx in [(0, 0), (0, 1), (0, 0, 1), (0, 0, 0, 0, 1, 1), (0, 0, 1, 1, 2, 2),
                (0, 1, 2), (0, 0, 0, 1, 1, 1)]:
        counts = [idx.count(c) for c in sorted(set(idx))]
        expected = 0.0
        for kvec in iproduct(*[range(c + 1) for c in counts]):
            # the shared factor contributes its sum(kvec)-th central moment,
            # each coordinate's own factor the complementary one
            term = cent[sum(kvec)]
            for c, k in zip(counts, kvec):
                term *= comb(c, k) * cent[c - k]
            expected += term
        assert_allclose(m.mu(*idx), expected, rtol=1e-8, atol=1e-10)


def test_beta11_cross_moment_high_precision():
    # E[(Y1 - 1/2)(Y2 - 1/2)] for the unit-exponential ratio construction,
    # via the exponential-integral closed form of E[X/(X+t)]
    import mpmath as mp

    mp.mp.dps = 25
    g1 = lambda t: 1 - t * mp.e**t * mp.e1(t)  # E[X/(X+t)], X ~ Exp(1)
    exact = float(mp.quad(lambda t: (g1(t) - mp.mpf(1) / 2) ** 2 * mp.e**-t, [0, mp.inf]))
    m = population_moments(alternative("beta11", 2), 2)
    assert_allclose(m.mu(0, 1), exact, rtol=1e-9)


def test_population_moments_index_symmetric():
    m = population_moments(alternative("al1_r05", 3), 6)
    assert m.mu(0, 1, 2, 0, 1, 2) == m.mu(2, 2, 1, 1, 0, 0)
    for order in range(2, 7):
        for idx in sorted_multi_indices(3, order):
            assert np.isfinite(m.mu(*idx))
