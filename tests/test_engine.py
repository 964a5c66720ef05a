import hashlib
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from cancornorm import engine, montecarlo
from cancornorm.alternatives import (
    RngStream,
    _count_patterns,
    alternative,
    generate_group,
    stream_generators,
)
from cancornorm.covblocks import (
    MomentTable,
    cancor_sq,
    central_moments,
    centered_fourth,
    lambda_blocks,
    pair_indices,
    psi_blocks,
    sorted_multi_indices,
    triple_indices,
)
from cancornorm.engine import (
    CONDITION_LIMIT,
    _blocks,
    _entry_factor,
    _lower_inverse,
    _plan,
    _z3_b22,
    _z3_term_map,
    cancor_eigs,
    checked_factor,
    evaluate_batch,
    evaluate_population_batch,
    permutation_scheme,
)
from cancornorm.errors import (
    DegenerateSampleError,
    FunctionalDomainError,
    SampleSizeError,
    SingularBlockError,
)
from cancornorm.montecarlo import calibrate
from cancornorm.stats import ALL_STATISTICS, StatisticId, compute_statistics

from covblocks_oracle import functionals, oracle_lambda_blocks, oracle_third_cov


def oracle_statistics(x):
    """All twelve statistics of one sample without the engine: the sample is
    whitened with numpy, the covariance blocks are built from its moment
    table, and the Mardia statistics are the direct double sums over pairs
    of observations."""
    n, p = x.shape
    xc = x - x.mean(axis=0)
    white = np.linalg.solve(np.linalg.cholesky(xc.T @ xc / n), xc.T).T
    out = {}
    for family, build, order in (("z2", lambda_blocks, 4), ("z3", psi_blocks, 6)):
        values = functionals(cancor_sq(build(central_moments(white, order), n)))
        out.update({StatisticId(family, f): v for f, v in values.items()})
    g = xc @ np.linalg.inv(np.atleast_2d(np.cov(x, rowvar=False))) @ xc.T
    out[StatisticId("mardia_skew")] = np.mean(g**3)
    out[StatisticId("mardia_kurt")] = np.mean(np.diag(g) ** 2)
    return out


def test_engine_matches_per_sample_path():
    rng = np.random.default_rng(1)
    for n, p, size in [(20, 2, 8), (25, 3, 8), (40, 1, 8), (30, 4, 2), (40, 5, 2)]:
        data = rng.standard_normal((size, n, p)) + 0.3 * rng.standard_exponential((size, n, p))
        batch = evaluate_batch(data)
        for b in range(size):
            single = oracle_statistics(data[b])
            for sid in ALL_STATISTICS:
                assert_allclose(
                    batch[sid][b], single[sid], rtol=1e-9, atol=1e-12,
                    err_msg=f"{sid.name} at (n={n}, p={p})",
                )


def test_engine_batch_grouping_irrelevant():
    rng = np.random.default_rng(2)
    # a study-size chunk of a heavy-tailed alternative, with a stack of one
    logn = generate_group(
        (alternative("logn_2", 2),), 20, stream_generators(RngStream(2), 1, 0, 1000), 1000
    )
    for data, splits in [
        (rng.standard_normal((12, 20, 2)), (5, 7)),
        (rng.standard_normal((12, 40, 5)), (5, 7)),
        # products in two passes of the whole batch and in one of each part
        (rng.standard_normal((12, 600, 5)), (5, 7)),
        # blocks in two passes of 128 and in one of each part
        (rng.standard_normal((256, 40, 5)), (100, 200)),
        (logn, (1, 8)),
    ]:
        whole = evaluate_batch(data)
        parts = [evaluate_batch(part) for part in np.split(data, splits)]
        for sid in ALL_STATISTICS:
            stitched = np.concatenate([part[sid] for part in parts])
            assert_array_equal(whole[sid], stitched, err_msg=f"{sid.name} at {data.shape}")


def test_engine_peak_memory_one_chunk_p6():
    # A p^6 sixth-moment tensor for a (256, 100, 6) chunk would take 96 MB on
    # its own.  The distinct pair and triple products are formed in passes of
    # at most PRODUCT_BUDGET bytes, so at large n the peak is a few copies of
    # the (B, n, p) input, however large the products of the whole batch
    # would be (98 MiB at (64, 4000, 5)).  The moments and blocks are built in
    # passes of about PRODUCT_BUDGET bytes of pair Grams and sixth moments,
    # 2 x 128 at (256, 100, 5) and 4 x 64 at (256, 100, 6), so the z3 b22
    # stage no longer grows with the chunk: the peaks are 4.8 and 5.5 MiB
    # (7.2 and 16.7 MiB with the whole chunk in one pass).
    rng = np.random.default_rng(9)
    for shape, limit in [
        ((256, 100, 6), 8 * 2**20),
        ((64, 4000, 5), 3 * 64 * 4000 * 5 * 8),
        ((256, 100, 5), 5.5 * 2**20),
    ]:
        data = rng.standard_normal(shape)
        evaluate_batch(data[:2])  # builds the per-p program outside the traced call
        tracemalloc.start()
        try:
            evaluate_batch(data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < limit, f"peak {peak / 2**20:.0f} MB at {shape}"


def test_engine_empty_batch_gives_empty_values():
    for statistics in (ALL_STATISTICS, (StatisticId.parse("mardia_kurt"),)):
        out = evaluate_batch(np.zeros((0, 30, 3)), statistics)
        assert list(out) == list(statistics)
        for values in out.values():
            assert values.shape == (0,) and values.dtype == np.float64
    # the shape and sample-size checks come first
    with pytest.raises(SampleSizeError):
        evaluate_batch(np.zeros((0, 10, 3)))
    with pytest.raises(ValueError, match="batch, n, p"):
        evaluate_batch(np.zeros((0, 30)))


def test_engine_subset_of_statistics():
    rng = np.random.default_rng(3)
    data = rng.standard_normal((4, 20, 2))
    subset = (StatisticId.parse("mardia_kurt"), StatisticId.parse("z2_w"))
    out = evaluate_batch(data, subset)
    assert set(out) == set(subset)


def test_engine_threshold_errors():
    rng = np.random.default_rng(4)
    with pytest.raises(SampleSizeError, match=r"^z2_hl needs n >= 5 for p=2, got n=4$"):
        evaluate_batch(rng.standard_normal((2, 4, 2)))
    # Mardia's statistics need n >= p + 1: at n = p the rule says so before
    # the covariance is found singular
    with pytest.raises(SampleSizeError, match=r"^mardia_kurt needs n >= 3 for p=2, got n=2$"):
        evaluate_batch(rng.standard_normal((2, 2, 2)), (StatisticId.parse("mardia_kurt"),))
    with pytest.raises(SampleSizeError):
        evaluate_batch(
            rng.standard_normal((2, 10, 3)),
            (StatisticId.parse("z3_hl"),),
        )
    # classical statistics alone only need an invertible covariance
    out = evaluate_batch(
        rng.standard_normal((2, 4, 2)),
        (StatisticId.parse("mardia_kurt"),),
    )
    assert out[StatisticId.parse("mardia_kurt")].shape == (2,)


def test_engine_degenerate_batch_errors():
    good = np.random.default_rng(5).standard_normal((20, 2))
    flat = np.column_stack([np.arange(20.0), np.arange(20.0)])
    with pytest.raises(DegenerateSampleError, match="first item 1") as info:
        evaluate_batch(np.stack([good, flat, good, flat]))
    assert info.value.item == 1
    constant = good.copy()
    constant[:, 0] = 3.0
    with pytest.raises(DegenerateSampleError, match="first item 2") as info:
        evaluate_batch(np.stack([good, good, constant]))
    assert info.value.item == 2
    # a non-finite sample has no finite condition bound, so it is named too
    missing = good.copy()
    missing[7, 1] = np.nan
    with pytest.raises(DegenerateSampleError, match=r"in 1 batch item\(s\), first item 1$") as info:
        evaluate_batch(np.stack([good, missing, good]))
    assert info.value.item == 1


def failing_in_pass(fail_pass, fail_item):
    """A ``checked_factor`` that zeroes item ``fail_item`` of the (35, 35) z3
    b22 blocks of p = 5 in the ``fail_pass``-th block pass (from 0), so that
    the real check fails it as a singular block, and is the real one
    otherwise; and the list of the sizes of the passes it has seen, counted
    by their b11 blocks."""
    passes = []

    def checked(block, error, label):
        if label.startswith("b11"):
            passes.append(len(block))
        if len(passes) == fail_pass + 1 and block.shape[-1] == 35:
            block = block.copy()
            block[fail_item] = 0.0
        return checked_factor(block, error, label)

    return checked, passes


def test_block_pass_failure_names_its_batch_item(monkeypatch):
    # Real data does not fail the block stage (the small-sample correction
    # keeps even a two-valued column's z2 b22 regular), so item 72 of the
    # second pass of a (256, 100, 5) batch, its item 200, is failed by hand.
    checked, passes = failing_in_pass(1, 72)
    monkeypatch.setattr(engine, "checked_factor", checked)
    data = np.random.default_rng(6).standard_normal((256, 100, 5))
    with pytest.raises(SingularBlockError, match=r"in 1 batch item\(s\), first item 200$") as info:
        evaluate_batch(data)
    assert info.value.item == 200
    assert passes == [128, 128]


def test_block_pass_failure_names_its_replication(monkeypatch):
    # A serial calibration at (100, 5) runs chunks of 256 in block passes of
    # 128; item 72 of the fourth pass is item 200 of the second chunk.
    checked, passes = failing_in_pass(3, 72)
    monkeypatch.setattr(engine, "checked_factor", checked)
    statistics = (StatisticId.parse("mardia_kurt"), StatisticId.parse("z3_w"))
    with pytest.raises(SingularBlockError) as info:
        calibrate(statistics, 100, 5, 1000, RngStream(8, (1,)))
    assert (
        "first item 200: alternative normal at n=100, replication r=456 of seed=8, path=(1,), "
        f"context={montecarlo.CALIBRATION_CONTEXT};"
    ) in str(info.value)
    assert info.value.__cause__.item == 200
    assert passes == [128] * 4


def equilibrated_condition_exact(x):
    xc = x - x.mean(axis=0)
    cov = xc.T @ xc / len(x)
    d = np.sqrt(np.diag(cov))
    return np.linalg.cond(cov / np.outer(d, d))


def near_singular_sample(cond, n=40, seed=0):
    """A (n, 3) sample whose equilibrated covariance has condition number
    ``cond``: its third column is the first plus eps times noise, and
    cond grows as eps^-2, so two rescalings of eps hit the target."""
    z = np.random.default_rng(seed).standard_normal((n, 3))

    def sample(eps):
        return np.column_stack([z[:, 0], z[:, 1], z[:, 0] + eps * z[:, 2]])

    eps = 1e-4
    for _ in range(2):
        eps *= np.sqrt(equilibrated_condition_exact(sample(eps)) / cond)
    x = sample(eps)
    assert abs(np.log10(equilibrated_condition_exact(x) / cond)) < 0.01
    return x


@pytest.mark.parametrize("cond, accepted", [(1e11, True), (8e11, True), (2e12, False), (1e13, False)])
def test_degeneracy_decision_at_condition_limit(cond, accepted):
    # Decided as the exact condition number decides, on both sides of the
    # limit and under column scales 1e14 apart.  At 8e11 the certified
    # bound exceeds the limit, so the acceptance comes from the exact
    # fallback.
    x = near_singular_sample(cond)
    chol = np.linalg.cholesky(np.corrcoef(x, rowvar=False))
    bound = (np.linalg.norm(chol) * np.linalg.norm(np.linalg.inv(chol))) ** 2
    assert (bound > CONDITION_LIMIT) == (cond > 6.7e11)
    for scale in ([1.0, 1.0, 1.0], [1.0, 1e7, 1e-7]):
        data = np.stack([np.random.default_rng(1).standard_normal((40, 3)), x * scale])
        if accepted:
            out = evaluate_batch(data)
            assert all(np.all(np.isfinite(v)) for v in out.values())
        else:
            with pytest.raises(DegenerateSampleError, match="first item 1"):
                evaluate_batch(data)


def test_well_conditioned_batch_needs_no_svd_or_general_solve(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("SVD or general solve on well-conditioned data")

    for name in ("cond", "svd", "solve", "inv", "pinv", "lstsq"):
        monkeypatch.setattr(np.linalg, name, forbidden)
    rng = np.random.default_rng(8)
    for n, p in [(20, 2), (40, 4)]:
        evaluate_batch(rng.standard_normal((3, n, p)) + rng.standard_exponential((3, n, p)))


def dense_term_map(p):
    """Reference for the z3 term map: every term of the covblocks lists, row
    by row over the lower triangle of b22, added with np.add.at into a dense
    (weight class, row, input) array."""
    triples = triple_indices(p)
    q3 = len(triples)
    position = {t: a for a, t in enumerate(triples)}
    quad_position = {t: a for a, t in enumerate(sorted_multi_indices(p, 4))}
    q4 = len(quad_position)
    unit = q4 + q3 * q3
    classes = {"sum15_pair": 0, "sum9_pair": 1, "sum10_triple": 0, "sum9_triple": 1,
               "sum15_matching": 0, "sum6_matching": 2}
    entries = []
    for row, (a, b) in enumerate(zip(*np.tril_indices(q3))):
        c = triples[a] + triples[b]

        def sort(slots):
            return tuple(sorted(c[s] for s in slots))

        for label, w in classes.items():
            for term in permutation_scheme(label):
                if label.endswith("_pair"):
                    (x, y), rest = term
                    if c[x] == c[y]:
                        entries.append((w, row, quad_position[sort(rest)]))
                elif label.endswith("_triple"):
                    t1, t2 = term
                    entries.append((w, row, q4 + position[sort(t1)] * q3 + position[sort(t2)]))
                elif all(c[x] == c[y] for x, y in term):
                    entries.append((w, row, unit))
    dense = np.zeros((3, q3 * (q3 + 1) // 2, unit + 1))
    np.add.at(dense, tuple(np.array(entries).T), 1.0)
    return dense


@pytest.mark.parametrize("p", [1, 2, 3, 4])
def test_z3_term_map_matches_term_lists(p):
    cols, coef = _z3_term_map(p)
    reference = dense_term_map(p)
    unit = reference.shape[2] - 1
    assert cols.shape == coef.shape[1:] == (reference.shape[1], cols.shape[1])
    # each row lists its inputs in ascending order, then pads with the unit input
    padding = coef.sum(axis=0) == 0
    assert_array_equal(padding, np.arange(cols.shape[1]) >= (~padding).sum(axis=1)[:, None])
    assert np.all(cols[padding] == unit)
    assert np.all(np.diff(cols, axis=1)[~padding[:, 1:]] > 0)
    dense = np.zeros_like(reference)
    rows = np.broadcast_to(np.arange(len(cols))[:, None], cols.shape)
    for w in range(3):
        np.add.at(dense[w], (rows, cols), coef[w])
    assert_array_equal(dense, reference)


# SHA-256 prefixes of the integer structures the population and z3 paths read,
# taken before their builders were vectorized: the term map's cols (as <i8)
# and coef (as <f8) bytes, and the count patterns and dense-entry inverse of
# orders 2, 3, 4 and 6.  Pure combinatorics, so they do not depend on BLAS.
STRUCTURE_DIGESTS = {
    1: ("40a9936d8c33f21b", "922d19364b4e6504"),
    2: ("687f246b6d5bb1ce", "aacbb39385ccc9a7"),
    3: ("b6faee4cddd385dd", "a3825e9ce41edddf"),
    4: ("eaa93fc9ec105304", "9e839ab6bf11ddb5"),
    5: ("f328043968453f64", "8b0ad96e9c024347"),
    6: ("a29215e84ab5ef58", "1932cbd26704ca8c"),
}


@pytest.mark.parametrize("p", sorted(STRUCTURE_DIGESTS))
def test_term_map_and_count_patterns_are_pinned(p):
    cols, coef = _z3_term_map(p)
    assert (cols.dtype, coef.dtype) == (np.intp, np.float64)
    term_map = hashlib.sha256(cols.astype("<i8").tobytes() + coef.astype("<f8").tobytes())
    patterns = hashlib.sha256()
    for order in (2, 3, 4, 6):
        counts, inverse = _count_patterns(p, order)
        assert inverse.dtype == np.intp and inverse.shape == (p,) * order
        patterns.update(repr(counts).encode() + inverse.astype("<i8").tobytes())
    got = (term_map.hexdigest()[:16], patterns.hexdigest()[:16])
    assert got == STRUCTURE_DIGESTS[p]


def forward_substitution(chol):
    """Inverse of each lower-triangular matrix of a stack, row by row into a
    separate buffer."""
    inv = np.zeros_like(chol)
    diag = np.diagonal(chol, axis1=-2, axis2=-1)
    for i in range(chol.shape[-1]):
        inv[:, i, :i] = -(chol[:, i, None, :i] @ inv[:, :i, :i])[:, 0] / diag[:, i, None]
        inv[:, i, i] = 1.0 / diag[:, i]
    return inv


def assert_same_bits(actual, desired):
    """Equal bit for bit: +0.0 and -0.0 differ, and so do NaN payloads."""
    assert actual.shape == desired.shape and actual.dtype == desired.dtype
    assert_array_equal(actual.view(np.uint64), desired.view(np.uint64))


@pytest.mark.parametrize("nb, k", [(1, 1), (1, 35), (7, 10), (256, 35), (3, 56)])
def test_lower_inverse_in_place_matches_a_separate_buffer(nb, k):
    rng = np.random.default_rng(k)
    a = rng.standard_normal((nb, k, 2 * k))
    chol = np.linalg.cholesky(a @ np.swapaxes(a, 1, 2))
    expected = forward_substitution(chol)
    work = chol.copy()
    inv = _lower_inverse(work)
    assert inv is work
    assert_same_bits(inv, expected)
    assert_allclose(inv @ chol, np.broadcast_to(np.eye(k), chol.shape), atol=1e-10)


def spd_stack(nb, k, seed):
    """A (B, k, k) stack of random symmetric positive definite matrices."""
    x = np.random.default_rng(seed).standard_normal((nb, k, 2 * k))
    return x @ np.swapaxes(x, 1, 2)


def small_engine_blocks(p, monkeypatch):
    """The stacks of at most 4 x 4 that ``evaluate_batch`` hands
    ``checked_factor`` on 200 exponential samples of dimension p and size
    60, one stack: the equilibrated covariances and the b11 blocks."""
    seen = []

    def recorded(a, error, label):
        if a.shape[-1] <= 4:
            seen.append(a.copy())
        return checked_factor(a, error, label)

    monkeypatch.setattr(engine, "checked_factor", recorded)
    evaluate_batch(np.random.default_rng(60 + p).standard_exponential((200, 60, p)))
    monkeypatch.undo()
    assert len(seen) == 2
    return np.concatenate(seen)


@pytest.mark.parametrize("k", [1, 2, 3, 4, "engine-p3", "engine-p4"])
def test_entry_factor_matches_lapack(k, monkeypatch):
    # The elementwise factor of the blocks of at most 4 x 4 against LAPACK's
    # Cholesky factor and ``_lower_inverse``, on random blocks of each size k
    # and on the covariance and b11 blocks of the engine at p = 3 and 4
    # ("engine-p3", "engine-p4"): L^-1 and the certified bound agree to
    # 1e-14 relative.  Only the lower triangle is read.
    a = spd_stack(500, k, 40 + k) if isinstance(k, int) else small_engine_blocks(int(k[-1]), monkeypatch)
    k = a.shape[-1]
    chol = np.linalg.cholesky(a)
    norm = np.einsum("bij,bij->b", chol, chol)
    inv = _lower_inverse(chol)
    lower = np.tril(a) + np.triu(np.full((k, k), np.nan), 1)
    got, got_norm = _entry_factor(lower)
    assert got.shape == a.shape and got.flags.c_contiguous
    assert np.all(np.triu(got, 1) == 0.0)
    dev = np.linalg.norm(got - inv, axis=(1, 2)) / np.linalg.norm(inv, axis=(1, 2))
    assert dev.max() <= 1e-14
    bound = norm * np.einsum("bij,bij->b", inv, inv)
    got_bound = got_norm * np.einsum("bij,bij->b", got, got)
    assert_allclose(got_bound, bound, rtol=1e-14, atol=0)
    assert_array_equal(checked_factor(a, SingularBlockError, "b"), got)


def raised(call):
    """The class, message and item of the error that ``call`` raises, with
    every RuntimeWarning made an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(Exception) as info:
            call()
    return type(info.value), str(info.value), getattr(info.value, "item", None)


def negative_last_pivot(k, seed):
    """A (k, k) symmetric matrix whose leading (k-1) x (k-1) block is
    positive definite and whose last Cholesky pivot is negative."""
    x = np.random.default_rng(seed).standard_normal((k, 2 * k))
    chol = np.linalg.cholesky(x @ x.T)
    a = chol @ chol.T
    a[-1, -1] -= 2.0 * chol[-1, -1] ** 2
    return a


@pytest.mark.parametrize("p", [1, 2, 3, 4, 5, 6])
def test_elementwise_failures_match_lapack(p):
    # A stack with failing items names their class, count and first item,
    # with no RuntimeWarning: a block with a negative first or last pivot,
    # a block with a NaN, and one of each, at each block size of p (the
    # covariance and b11, and both families' b22; blocks of at most 4 x 4
    # are factored elementwise, larger ones elementwise once LAPACK fails
    # the stack), and samples with a NaN, a constant column or, at p >= 2,
    # a column that is a combination of others.
    plan = engine._plan(p)
    for k in sorted({p, plan.pair_start[-1], plan.triple_start[-1]}):
        negative = {3: -np.eye(k), 0: negative_last_pivot(k, k)}
        for bad in negative.values():
            with pytest.raises(np.linalg.LinAlgError):
                np.linalg.cholesky(bad)
        # item 3 has a negative first pivot, item 0 a negative last one and
        # item 1 is NaN
        for items in ({3}, {0}, {1}, {1, 3}):
            a = spd_stack(5, k, k)
            for item in items:
                a[item] = negative.get(item, np.nan)
            first = min(items)
            assert raised(lambda: checked_factor(a, SingularBlockError, "b22")) == (
                SingularBlockError, f"b22 in {len(items)} batch item(s), first item {first}", first)
    good = np.random.default_rng(20 + p).standard_normal((80, p))
    missing, constant = good.copy(), good.copy()
    missing[7, 0] = np.nan
    constant[:, -1] = 3.0
    samples = [(missing, 1), (constant, 2)]
    if p >= 2:
        collinear = good.copy()
        collinear[:, -1] = 2.0 * good[:, 0] - 1.0 + good[:, 1:-1].sum(axis=1)
        samples.append((collinear, 0))
    for sample, item in samples:
        stack = np.stack([good] * 3)
        stack[item] = sample
        message = f"rank-deficient sample covariance in 1 batch item(s), first item {item}"
        assert raised(lambda: evaluate_batch(stack)) == (DegenerateSampleError, message, item)


def identity_blocks(w):
    """b11, b12 and b22 whose W = L22^-1 b21 L11^-T is the (B, q, p) ``w``:
    b11 = I (given as its inverse factor), b12 = w^T and b22 = I."""
    nb, q, p = w.shape
    return (np.broadcast_to(np.eye(p), (nb, p, p)).copy(), np.swapaxes(w, 1, 2).copy(),
            np.broadcast_to(np.eye(q), (nb, q, q)).copy())


def stack_with_spectrum(q, p, ratios, seed):
    """(B, q, p) stacks W = U diag(s) V^T with random orthonormal U and V and
    singular values s = (0.9, 0.9 sqrt(ratio)), one ratio of the eigenvalues
    of W^T W per item."""
    rng = np.random.default_rng(seed)
    u = np.linalg.qr(rng.standard_normal((len(ratios), q, p)))[0]
    v = np.linalg.qr(rng.standard_normal((len(ratios), p, p)))[0]
    s = 0.9 * np.sqrt(np.column_stack([np.ones(len(ratios)), ratios]))[:, :p]
    return (u * s[:, None, :]) @ np.swapaxes(v, 1, 2)


@pytest.mark.parametrize("q, p", [(1, 1), (3, 1), (3, 2), (4, 2)])
def test_closed_form_eigenvalues_match_mpmath(q, p):
    # The closed-form eigenvalues of W^T W against 50-digit eigenvalues of
    # the same float W, at eigenvalue ratios from 1 down to 1e-12, to 1e-13
    # relative; equal eigenvalues come back sorted.
    mp = pytest.importorskip("mpmath")
    ratios = np.repeat(10.0 ** -np.arange(13), 4)
    w = stack_with_spectrum(q, p, ratios, 30 + q)
    eigs = cancor_eigs(*identity_blocks(w))
    assert eigs.shape == (len(w), p) and np.all(eigs[:, :-1] >= eigs[:, 1:])
    with mp.workdps(50):
        for b, item in enumerate(w):
            m = mp.matrix(item.tolist())
            exact = sorted(mp.eigsy(m.T * m)[0], reverse=True)
            for got, want in zip(eigs[b], exact):
                assert abs(mp.mpf(float(got)) - want) <= 1e-13 * abs(want), (b, got, want)


def test_equal_eigenvalues_come_back_sorted():
    # W with orthogonal columns of equal norm in random directions: W^T W is
    # a multiple of I, and its rounded smaller eigenvalue may exceed the
    # larger unless it is clamped.
    w = stack_with_spectrum(4, 2, np.ones(2000), 50)
    eigs = cancor_eigs(*identity_blocks(w))
    assert np.all(eigs[:, 0] >= eigs[:, 1])
    assert_allclose(eigs, 0.81, rtol=1e-14)


def test_factor_path_follows_block_size(monkeypatch):
    # At every p, a block of at most 4 x 4 is factored elementwise and a
    # larger one by LAPACK; the eigenvalues are in closed form at p <= 2
    # only, where b11 is at most 2 x 2.
    calls = []

    def counted(name, real):
        def wrapper(a, *args):
            calls.append((name, a.shape[-1]))
            return real(a, *args)
        return wrapper

    for name in ("_entry_factor", "_gram_eigs"):
        monkeypatch.setattr(engine, name, counted(name, getattr(engine, name)))
    monkeypatch.setattr(np.linalg, "cholesky", counted("cholesky", np.linalg.cholesky))
    monkeypatch.setattr(np.linalg, "eigvalsh", counted("eigvalsh", np.linalg.eigvalsh))
    rng = np.random.default_rng(13)
    for p in range(1, 7):
        calls.clear()
        evaluate_batch(rng.standard_exponential((3, 80, p)))
        plan = engine._plan(p)
        sizes = {p, plan.pair_start[-1], plan.triple_start[-1]}
        factors = {(name, k) for name, k in calls if name in ("_entry_factor", "cholesky")}
        assert factors == {("_entry_factor" if k <= 4 else "cholesky", k) for k in sizes}, p
        eigens = {name for name, _ in calls} - {"_entry_factor", "cholesky"}
        assert eigens == ({"_gram_eigs"} if p <= 2 else {"eigvalsh"}), p


def test_p_up_to_2_stacks_match_their_slices_bit_for_bit():
    # The elementwise path gives each item the bits it would get alone or
    # in any slice of the stack.
    for p in (1, 2):
        data = np.concatenate([
            generate_group([alternative(name, p)], 20, stream_generators(RngStream(3), 1, 0, 100), 100)
            for name in ("normal", "logn_2", "beta22")
        ])
        whole = evaluate_batch(data)
        for lo, hi in [(0, 1), (1, 77), (77, 150), (150, 300)] + [(b, b + 1) for b in range(2, 300, 37)]:
            values = evaluate_batch(data[lo:hi])
            for sid in ALL_STATISTICS:
                assert_same_bits(values[sid], whole[sid][lo:hi])


def dense_z3_b22(sixth, m3d, k4, weights, p):
    """``sixth`` plus the z3 permutation sums, from ``_z3_term_map`` as it
    stands: every product of two third moments, every slot of every row
    (padding included) into one array of sums, then both triangles."""
    cols, coef = _z3_term_map(p)
    nb, q3 = m3d.shape
    products = (m3d.T[:, None] * m3d.T[None]).reshape(q3 * q3, nb)
    inputs = np.concatenate([k4.T, products, np.ones((1, nb))])
    scaled = np.tensordot(weights, coef, 1)
    sums = np.zeros((len(cols), nb))
    for slot in range(cols.shape[1]):
        sums += inputs[cols[:, slot]] * scaled[:, slot, None]
    a, b = np.tril_indices(q3)
    off = a != b
    out = sixth.copy()
    out[:, a, b] += sums.T
    out[:, b[off], a[off]] += sums[off].T
    return out


@pytest.mark.parametrize("p", [1, 2, 3, 4, 5, 6])
@pytest.mark.parametrize("nb", [1, 5])
def test_z3_b22_matches_the_dense_term_map_bit_for_bit(p, nb):
    rng = np.random.default_rng(10 * p + nb)
    plan = _plan(p)
    q3 = plan.triple_start[-1]
    q4 = len(plan.k4_m4)
    m3d = rng.standard_normal((nb, q3))
    k4 = rng.standard_normal((nb, q4))
    sixth = rng.standard_normal((nb, q3, q3))
    # signed zeros among the inputs, so that the sign of every zero is compared too
    m3d[:, 0], k4[:, -1], sixth[:, -1, 0] = -0.0, 0.0, -0.0
    for weights in [(-1.0 / 60, 1.0 / 59, 60 / (59 * 58)), (-1.0, 1.0, 1.0)]:
        expected = dense_z3_b22(sixth, m3d, k4, weights, p)
        assert_same_bits(_z3_b22(sixth.copy(), m3d, k4, weights, plan), expected)


def whitened_table(p, seed):
    """A moment table with m2 = I, as the engine's block builder assumes,
    and random moments of orders 3 to 6."""
    rng = np.random.default_rng(seed)
    values = {}
    for order in range(2, 7):
        for idx in sorted_multi_indices(p, order):
            values[idx] = float(idx[0] == idx[1]) if order == 2 else float(rng.uniform(0.5, 2.0))
    return MomentTable(p=p, max_order=6, values=values)


@pytest.mark.parametrize("p", [2, 3, 4])
def test_engine_blocks_match_enumeration_oracle(p):
    # The engine's blocks at a finite n, from the distinct moments of a
    # whitened table, against the z2 formula and the 6!-enumeration oracle
    # of the z3 b22, to criterion 3's tolerance.
    n = 30
    pairs, triples = pair_indices(p), triple_indices(p)
    for seed in range(2):
        m = whitened_table(p, 300 + 10 * p + seed)
        blocks = _blocks(
            np.eye(p)[None],
            np.array([[m.mu(i, *jk) for jk in pairs] for i in range(p)])[None],
            np.array([[m.mu(*ij, *kl) for kl in pairs] for ij in pairs])[None],
            np.array([[m.mu(*t1, *t2) / n for t2 in triples] for t1 in triples])[None],
            n,
            {"z2", "z3"},
        )
        _, b12, b22 = oracle_lambda_blocks(m, n)
        z3_b12 = np.array([[centered_fourth(m, i, *t) / n for t in triples] for i in range(p)])
        z3_b22 = np.array([[oracle_third_cov(m, t1, t2, n) for t2 in triples] for t1 in triples])
        for family, oracle in (("z2", (b12, b22)), ("z3", (z3_b12, z3_b22))):
            for name, block, expected in zip(("b12", "b22"), blocks[family], oracle):
                scale = max(np.max(np.abs(expected)), 1.0)
                dev = np.max(np.abs(block[0] - expected)) / scale
                assert dev <= 1e-12, f"{family} {name} at p={p}: {dev:.2e}"


def test_compute_statistics_loads_no_scipy():
    code = (
        "import sys, numpy as np; from cancornorm.stats import compute_statistics; "
        "x = np.random.default_rng(3).standard_exponential((60, 4)); "
        "assert len(compute_statistics(x)) == 12; "
        "print([m for m in sys.modules if m.startswith('scipy')])"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert proc.stdout.strip() == "[]"


def test_mixed_units_are_not_degenerate():
    # Column scales 1e7 apart once failed a condition check made in raw units.
    for seed in range(5):
        x = np.random.default_rng(seed).standard_normal((30, 3))
        scaled = x * np.array([1.0, 1.0, 1e7])
        reference = compute_statistics(x)
        single = compute_statistics(scaled)
        batch = evaluate_batch(np.stack([x, scaled]))
        for sid in ALL_STATISTICS:
            assert_allclose(single[sid], reference[sid], rtol=1e-9, atol=1e-12, err_msg=sid.name)
            assert_allclose(batch[sid][1], batch[sid][0], rtol=1e-9, atol=1e-12, err_msg=sid.name)


def test_diagonal_scaling_leaves_values_unchanged():
    rng = np.random.default_rng(10)
    x = rng.standard_normal((30, 3)) + 0.3 * rng.standard_exponential((30, 3))
    reference = compute_statistics(x)
    scales = 10.0 ** rng.uniform(-8.0, 8.0, size=(4, 3))
    batch = evaluate_batch(x[None] * scales[:, None, :])
    for k, d in enumerate(scales):
        single = compute_statistics(x * d)
        for sid in ALL_STATISTICS:
            msg = f"{sid.name} under scaling {d}"
            assert_allclose(single[sid], reference[sid], rtol=1e-9, atol=1e-12, err_msg=msg)
            assert_allclose(batch[sid][k], reference[sid], rtol=1e-9, atol=1e-12, err_msg=msg)


@pytest.mark.parametrize("factor", [1e160, 1e-160, 1e-200])
def test_extreme_units_keep_the_values(factor):
    # Every column in the same extreme units: the raw covariance would
    # overflow (1e160), fall into subnormals (1e-160) or vanish (1e-200).
    x = np.random.default_rng(11).standard_exponential((60, 3))
    reference = compute_statistics(x)
    scaled = compute_statistics(x * factor)
    for sid in ALL_STATISTICS:
        assert_allclose(scaled[sid], reference[sid], rtol=1e-13, err_msg=sid.name)


def test_power_of_two_column_units_keep_every_bit():
    rng = np.random.default_rng(12)
    x = rng.standard_normal((8, 40, 3)) + rng.standard_exponential((8, 40, 3))
    reference = evaluate_batch(x)
    for exponents in ([-700, 0, 900], [0, 0, 0], [5, -1, 3], [1000, 1000, -1000]):
        scaled = evaluate_batch(np.ldexp(x, np.array(exponents)))
        for sid in ALL_STATISTICS:
            assert_array_equal(scaled[sid], reference[sid], err_msg=f"{sid.name} at 2^{exponents}")


def test_engine_rejects_wrong_shape():
    with pytest.raises(ValueError):
        evaluate_batch(np.zeros((10, 2)))
    with pytest.raises(ValueError, match=r"p >= 1, got \(2, 20, 0\)$"):
        evaluate_batch(np.ones((2, 20, 0)))


def test_population_path_rejects_wrong_shape():
    # an unstacked covariance and p = 0 are named by their shape
    with pytest.raises(ValueError, match=r"p >= 1, got \(2, 2\)$"):
        evaluate_population_batch(np.eye(2), np.zeros((2,) * 3), np.zeros((2,) * 4))
    with pytest.raises(ValueError, match=r"p >= 1, got \(1, 0, 0\)$"):
        evaluate_population_batch(np.zeros((1, 0, 0)), np.zeros((1, 0, 0, 0)),
                                  np.zeros((1, 0, 0, 0, 0)))


def test_ratio_trace_domain_fails_only_a_request_for_it(monkeypatch):
    # a squared canonical correlation at 1 in item 1 leaves its other
    # summaries defined
    cancor_eigs = engine.cancor_eigs

    def one_at_unit(*blocks):
        eigs = cancor_eigs(*blocks)
        eigs[1, 0] = 1.0
        return eigs

    monkeypatch.setattr(engine, "cancor_eigs", one_at_unit)
    x = np.random.default_rng(12).standard_normal((2, 20, 2))
    hl, pb = StatisticId.parse("z2_hl"), StatisticId.parse("z2_pb")
    values = evaluate_batch(x, (hl,))[hl]
    assert np.all(np.isfinite(values)) and values[1] >= 1.0
    with pytest.raises(FunctionalDomainError, match="batch item 1$") as info:
        evaluate_batch(x, (pb,))
    assert info.value.item == 1


def test_population_path_rejects_singular_covariance():
    with pytest.raises(SingularBlockError, match="population covariance"):
        evaluate_population_batch(np.ones((1, 2, 2)), np.zeros((1,) + (2,) * 3),
                                  np.zeros((1,) + (2,) * 4))
    with pytest.raises(ValueError, match="m6"):
        evaluate_population_batch(np.eye(2)[None], np.zeros((1,) + (2,) * 3),
                                  np.zeros((1,) + (2,) * 4))



def test_population_path_empty_stack_gives_empty_values():
    out = evaluate_population_batch(np.zeros((0, 2, 2)), np.zeros((0,) + (2,) * 3),
                                    np.zeros((0,) + (2,) * 4), np.zeros((0,) + (2,) * 6))
    assert list(out) == list(ALL_STATISTICS)
    for values in out.values():
        assert values.shape == (0,) and values.dtype == float


def test_population_path_empty_stack_still_needs_m6_for_z3():
    with pytest.raises(ValueError, match="m6"):
        evaluate_population_batch(np.zeros((0, 2, 2)), np.zeros((0,) + (2,) * 3),
                                  np.zeros((0,) + (2,) * 4))

def test_large_gaussian_sample_statistics_vanish():
    rng = np.random.default_rng(6)
    data = rng.standard_normal((1, 200_000, 2))
    out = evaluate_batch(data)
    assert out[StatisticId.parse("z2_hl")][0] < 0.01
    assert out[StatisticId.parse("z3_hl")][0] < 0.01
    assert out[StatisticId.parse("z3_w")][0] > 0.99
    assert abs(out[StatisticId.parse("mardia_kurt")][0] - 8.0) < 0.1
    assert out[StatisticId.parse("mardia_skew")][0] < 0.01
