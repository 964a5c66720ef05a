"""Test oracles for the covariance blocks and their canonical correlations.

The third-order block mixes sums over prescribed sets of index
permutations.  The oracle here rebuilds every term set from scratch by
enumerating all 6! slot permutations of the base pattern, canonicalizing
and deduplicating, and then assembles a full matrix entry directly from the
displayed formula (``oracle_third_cov``); ``oracle_lambda_blocks`` does the
same for the second-order blocks.  The package's term lists, its scalar
block builders and the engine's block builder are all compared with them.

The package evaluates the five summaries on (B, k) stacks of eigenvalues
(``engine._FUNCTIONALS``); ``functional_value``/``functionals`` read
them one at a time from a ``CanCorSq``, the result type of the scalar
reference path (``covblocks.lambda_blocks``/``psi_blocks`` then
``covblocks.cancor_sq``), so that path can be compared with the engine
statistic by statistic.
"""

from functools import cache
from itertools import permutations

import numpy as np

from cancornorm.covblocks import CanCorSq, centered_fourth, pair_indices
from cancornorm.engine import _FUNCTIONALS, FUNCTIONAL_NAMES


def functional_value(c: CanCorSq, name: str) -> float:
    """One scalar summary of the squared canonical correlations."""
    if name not in _FUNCTIONALS:
        raise ValueError(f"unknown functional {name!r}")
    return float(_FUNCTIONALS[name](c.values[None])[0])


def functionals(c: CanCorSq) -> dict[str, float]:
    """All five summaries: trace, product, ratio trace, largest and smallest."""
    return {name: functional_value(c, name) for name in FUNCTIONAL_NAMES}


# ---------------------------------------------------------------------------
# term sets from full 6! enumeration, each built once


@cache
def oracle_pairs_quad_all():
    """All distinct mu_ab * (mu_cdef - pairings) terms: 15."""
    terms = set()
    for perm in permutations(range(6)):
        terms.add((frozenset(perm[:2]), frozenset(perm[2:])))
    return frozenset(terms)


@cache
def oracle_triple_pairs_all():
    """All distinct mu_abc * mu_def terms: 10."""
    terms = set()
    for perm in permutations(range(6)):
        terms.add(frozenset((frozenset(perm[:3]), frozenset(perm[3:]))))
    return frozenset(terms)


@cache
def oracle_matchings_all():
    """All distinct mu_ab mu_cd mu_ef terms: 15."""
    terms = set()
    for perm in permutations(range(6)):
        terms.add(
            frozenset((frozenset(perm[0:2]), frozenset(perm[2:4]), frozenset(perm[4:6])))
        )
    return frozenset(terms)


@cache
def oracle_pairs_quad_restricted():
    """The 9-term pair sum: first slot swaps within {0,1,2}, second within {3,4,5}."""
    terms = set()
    for a in (0, 1, 2):
        for b in (3, 4, 5):
            rest = frozenset(s for s in range(6) if s not in (a, b))
            terms.add((frozenset((a, b)), rest))
    return frozenset(terms)


@cache
def oracle_triple_pairs_restricted():
    """All two-triple splits except the {0,1,2}|{3,4,5} one: 9."""
    full = oracle_triple_pairs_all()
    identity = frozenset((frozenset((0, 1, 2)), frozenset((3, 4, 5))))
    return full - {identity}


@cache
def oracle_cross_matchings():
    """Matchings that pair each of {0,1,2} with one of {3,4,5}: 6."""
    return frozenset(
        m
        for m in oracle_matchings_all()
        if all(len(pair & {0, 1, 2}) == 1 for pair in m)
    )


# ---------------------------------------------------------------------------
# block entries


def oracle_third_cov(m, ijk, rst, n):
    """Entry (ijk, rst) of the third-order b22 at sample size n (None: the
    large-n limit), from the enumerated term sets."""
    c = tuple(ijk) + tuple(rst)

    def k4(slots):
        return centered_fourth(m, *(c[s] for s in slots))

    def lam():
        total = m.mu(*c)
        for term in oracle_pairs_quad_all():
            (pair, rest) = term
            a, b = tuple(pair)
            total -= m.mu(c[a], c[b]) * k4(tuple(rest))
        for term in oracle_triple_pairs_all():
            t1, t2 = tuple(term)
            total -= m.mu(*(c[s] for s in t1)) * m.mu(*(c[s] for s in t2))
        for match in oracle_matchings_all():
            prod = 1.0
            for pair in match:
                a, b = tuple(pair)
                prod *= m.mu(c[a], c[b])
            total -= prod
        return total

    pair9 = 0.0
    for term in oracle_pairs_quad_restricted():
        (pair, rest) = term
        a, b = tuple(pair)
        pair9 += m.mu(c[a], c[b]) * k4(tuple(rest))
    triple9 = 0.0
    for term in oracle_triple_pairs_restricted():
        t1, t2 = tuple(term)
        triple9 += m.mu(*(c[s] for s in t1)) * m.mu(*(c[s] for s in t2))
    match6 = 0.0
    for match in oracle_cross_matchings():
        prod = 1.0
        for pair in match:
            a, b = tuple(pair)
            prod *= m.mu(c[a], c[b])
        match6 += prod
    if n is None:
        return lam() + pair9 + triple9 + match6
    return lam() / n + (pair9 + triple9) / (n - 1) + match6 * n / ((n - 1) * (n - 2))


def oracle_lambda_blocks(m, n):
    """The second-order (b11, b12, b22) at sample size n, entry by entry
    from the displayed formula."""
    p = m.p
    pairs = pair_indices(p)
    b11 = np.array([[m.mu(i, j) / n for j in range(p)] for i in range(p)])
    b12 = np.array([[m.mu(i, j, k) / n for (j, k) in pairs] for i in range(p)])
    b22 = np.zeros((len(pairs), len(pairs)))
    for a, (i, j) in enumerate(pairs):
        for b, (k, l) in enumerate(pairs):
            b22[a, b] = (m.mu(i, j, k, l) - m.mu(i, j) * m.mu(k, l)) / n + (
                m.mu(i, k) * m.mu(j, l) + m.mu(i, l) * m.mu(j, k)
            ) / (n * (n - 1))
    return b11, b12, b22
