"""Covariance-block tests.

The third-order block formula mixes sums over prescribed sets of index
permutations; the oracle (``covblocks_oracle``) rebuilds every term set from
scratch by enumerating all 6! slot permutations of the base pattern,
canonicalizing and deduplicating, and then re-assembles the full matrix
entry directly from the displayed formula.  The production code must agree
to 1e-12.
"""

from itertools import combinations_with_replacement

import numpy as np
import pytest
from numpy.testing import assert_allclose

from cancornorm.covblocks import (
    CovBlocks,
    MomentTable,
    centered_fourth,
    lambda_blocks,
    pair_indices,
    population_moments,
    psi_blocks,
    sixth_order_term,
    triple_indices,
)
from cancornorm.engine import permutation_scheme, second_order_threshold, third_order_threshold
from cancornorm.errors import SampleSizeError

from covblocks_oracle import (
    oracle_cross_matchings,
    oracle_lambda_blocks,
    oracle_matchings_all,
    oracle_pairs_quad_all,
    oracle_pairs_quad_restricted,
    oracle_third_cov,
    oracle_triple_pairs_all,
    oracle_triple_pairs_restricted,
)
from population_oracle import table_from_function

# ---------------------------------------------------------------------------
# term lists against the 6! enumeration


def _canon_pair_quad(term):
    (a, b), rest = term
    return (frozenset((a, b)), frozenset(rest))


def _canon_triples(term):
    t1, t2 = term
    return frozenset((frozenset(t1), frozenset(t2)))


def _canon_matching(term):
    return frozenset(frozenset(pair) for pair in term)


def test_scheme_cardinalities_and_terms():
    cases = [
        ("sum15_pair", 15, _canon_pair_quad, oracle_pairs_quad_all()),
        ("sum9_pair", 9, _canon_pair_quad, oracle_pairs_quad_restricted()),
        ("sum10_triple", 10, _canon_triples, oracle_triple_pairs_all()),
        ("sum9_triple", 9, _canon_triples, oracle_triple_pairs_restricted()),
        ("sum15_matching", 15, _canon_matching, oracle_matchings_all()),
        ("sum6_matching", 6, _canon_matching, oracle_cross_matchings()),
    ]
    for label, count, canon, expected in cases:
        terms = permutation_scheme(label)
        assert len(terms) == count, label
        canonical = {canon(t) for t in terms}
        assert len(canonical) == count, f"{label} has duplicate terms"
        assert canonical == expected, label


def test_unknown_scheme_rejected():
    with pytest.raises(ValueError):
        permutation_scheme("sum42_everything")


# ---------------------------------------------------------------------------
# random and Gaussian moment tables


def random_table(p, seed, max_order=6):
    rng = np.random.default_rng(seed)
    vals = {}
    for order in range(2, max_order + 1):
        for idx in combinations_with_replacement(range(p), order):
            vals[idx] = float(rng.uniform(0.5, 2.0))
    return MomentTable(p=p, max_order=max_order, values=vals)


def isserlis_table(p, seed, max_order=6):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((p, p))
    sigma = a @ a.T + p * np.eye(p)

    def matchings(slots):
        if not slots:
            return [()]
        a0, rest = slots[0], slots[1:]
        out = []
        for i, b in enumerate(rest):
            for sub in matchings(rest[:i] + rest[i + 1 :]):
                out.append(((a0, b),) + sub)
        return out

    def mu(idx):
        if len(idx) % 2:
            return 0.0
        return sum(
            np.prod([sigma[idx[x], idx[y]] for x, y in m])
            for m in matchings(tuple(range(len(idx))))
        )

    return table_from_function(p, max_order, mu), sigma


@pytest.mark.parametrize("seed", range(10))
def test_psi22_matches_permutation_oracle_p2(seed):
    m = random_table(2, seed)
    blocks = psi_blocks(m, 25)
    triples = triple_indices(2)
    oracle = np.array(
        [[oracle_third_cov(m, t1, t2, 25) for t2 in triples] for t1 in triples]
    )
    scale = max(np.max(np.abs(oracle)), 1.0)
    assert np.max(np.abs(blocks.b22 - oracle)) <= 1e-12 * scale
    assert np.max(np.abs(blocks.b22 - blocks.b22.T)) <= 1e-12 * scale


@pytest.mark.parametrize("seed", range(3))
def test_psi22_matches_permutation_oracle_p3(seed):
    m = random_table(3, 100 + seed)
    blocks = psi_blocks(m, 40)
    triples = triple_indices(3)
    oracle = np.array(
        [[oracle_third_cov(m, t1, t2, 40) for t2 in triples] for t1 in triples]
    )
    scale = max(np.max(np.abs(oracle)), 1.0)
    assert np.max(np.abs(blocks.b22 - oracle)) <= 1e-12 * scale


def test_prime_valued_table_oracle():
    # distinct primes for every canonical index: catches any index mix-up
    primes = iter(
        [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67,
         71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137, 139,
         149, 151, 157, 163, 167, 173, 179, 181, 191, 193, 197, 199, 211, 223,
         227, 229, 233, 239, 241, 251, 257, 263, 269, 271, 277, 281, 283, 293,
         307, 311, 313, 317, 331, 337, 347, 349, 353, 359, 367, 373, 379, 383,
         389, 397, 401, 409]
    )
    vals = {}
    for order in range(2, 7):
        for idx in combinations_with_replacement(range(2), order):
            vals[idx] = float(next(primes))
    m = MomentTable(p=2, max_order=6, values=vals)
    blocks = psi_blocks(m, 30)
    triples = triple_indices(2)
    oracle = np.array(
        [[oracle_third_cov(m, t1, t2, 30) for t2 in triples] for t1 in triples]
    )
    assert_allclose(blocks.b22, oracle, rtol=1e-13)


def test_sixth_order_term_gaussian_null():
    for seed in range(5):
        for p in (2, 3):
            m, _ = isserlis_table(p, seed)
            scale = m.mu(0, 0) ** 3
            for c in combinations_with_replacement(range(p), 6):
                assert abs(sixth_order_term(m, c)) <= 1e-12 * max(scale, 1.0)


def test_gaussian_cross_blocks_vanish():
    for p in (2, 3):
        m, sigma = isserlis_table(p, 11 + p)
        lam = lambda_blocks(m, 50)
        psi = psi_blocks(m, 50)
        assert_allclose(lam.b12, 0.0, atol=1e-12 * np.max(np.abs(sigma)) ** 2)
        assert_allclose(psi.b12, 0.0, atol=1e-12 * np.max(np.abs(sigma)) ** 3)


# ---------------------------------------------------------------------------
# second-order blocks


def test_lambda_blocks_match_formula_oracle():
    m = random_table(2, 55, max_order=4)
    blocks = lambda_blocks(m, 12)
    b11, b12, b22 = oracle_lambda_blocks(m, 12)
    assert_allclose(blocks.b11, b11, rtol=1e-14)
    assert_allclose(blocks.b12, b12, rtol=1e-14)
    assert_allclose(blocks.b22, b22, rtol=1e-14)


def test_lambda_blocks_gaussian_population():
    from cancornorm.alternatives import alternative

    m = population_moments(alternative("normal", 2), 4)
    blocks = lambda_blocks(m, 10)
    assert_allclose(blocks.b11, np.eye(2) / 10)
    assert_allclose(blocks.b12, 0.0, atol=1e-15)


def test_lambda_blocks_univariate_formula():
    m = random_table(1, 77, max_order=4)
    n = 9
    blocks = lambda_blocks(m, n)
    mu2, mu4 = m.mu(0, 0), m.mu(0, 0, 0, 0)
    expected = (mu4 - mu2**2) / n + 2 * mu2**2 / (n * (n - 1))
    assert_allclose(blocks.b22[0, 0], expected, rtol=1e-14)


def test_thresholds_enforced():
    m2 = random_table(2, 1, max_order=4)
    with pytest.raises(SampleSizeError):
        lambda_blocks(m2, second_order_threshold(2) - 1)
    m6 = random_table(2, 2)
    with pytest.raises(SampleSizeError):
        psi_blocks(m6, third_order_threshold(2) - 1)
    assert second_order_threshold(3) == 9
    assert third_order_threshold(3) == 13


def test_psi12_is_centered_fourth():
    m = random_table(2, 91)
    n = 20
    blocks = psi_blocks(m, n)
    triples = triple_indices(2)
    for i in range(2):
        for t, (r, s, u) in enumerate(triples):
            assert_allclose(blocks.b12[i, t], centered_fourth(m, i, r, s, u) / n, rtol=1e-14)


def test_univariate_psi22_matches_ratio_denominator():
    # the variance of the third sample moment must be consistent with the
    # denominator of the univariate kurtosis-correlation statistic
    m = random_table(1, 13)
    n = 17
    psi = psi_blocks(m, n)
    m2, m3, m4, m6 = m.mu(0, 0), m.mu(0, 0, 0), m.mu(0, 0, 0, 0), m.mu(0, 0, 0, 0, 0, 0)
    skew2 = m3**2 / m2**3
    kurt = m4 / m2**2 - 3.0
    sixth = m6 / m2**3 - 15.0 * kurt - 10.0 * skew2 - 15.0
    denom = sixth + 9.0 * n / (n - 1) * (kurt + skew2) + 6.0 * n**2 / ((n - 1) * (n - 2))
    assert_allclose(n * psi.b22[0, 0] / m2**3, denom, rtol=1e-12)


def test_relabeling_consistency():
    m = random_table(3, 201)
    perm = (2, 0, 1)  # new coordinate k holds old coordinate perm[k]

    relabeled = table_from_function(
        3, 6, lambda idx: m.mu(*(perm[i] for i in idx))
    )
    for maker in (lambda t: lambda_blocks(t, 30), lambda t: psi_blocks(t, 30)):
        b_orig = maker(m)
        b_new = maker(relabeled)
        groups = pair_indices(3) if b_orig.order == 2 else triple_indices(3)
        col_map = [groups.index(tuple(sorted(perm[i] for i in g))) for g in groups]
        row_map = [perm[i] for i in range(3)]
        assert_allclose(
            b_new.b11, b_orig.b11[np.ix_(row_map, row_map)], rtol=1e-13
        )
        assert_allclose(
            b_new.b12, b_orig.b12[np.ix_(row_map, col_map)], rtol=1e-13
        )
        assert_allclose(
            b_new.b22, b_orig.b22[np.ix_(col_map, col_map)], rtol=1e-13
        )


def test_covblocks_validates_symmetry():
    with pytest.raises(ValueError):
        CovBlocks(
            order=2,
            b11=np.array([[1.0, 0.5], [0.4, 1.0]]),
            b12=np.zeros((2, 3)),
            b22=np.eye(3),
            n=10,
            p=2,
        )
