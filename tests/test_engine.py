import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from cancornorm.alternatives import RngStream, alternative, generate_chunk, stream_generators
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
    _z3_term_map,
    evaluate_batch,
    evaluate_population_batch,
    permutation_scheme,
)
from cancornorm.errors import DegenerateSampleError, SampleSizeError, SingularBlockError
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
    logn = generate_chunk(alternative("logn_2", 2), 20, stream_generators(RngStream(2), 1, 0, 1000), 1000)
    for data, splits in [
        (rng.standard_normal((12, 20, 2)), (5, 7)),
        (rng.standard_normal((12, 40, 5)), (5, 7)),
        (logn, (1, 8)),
    ]:
        whole = evaluate_batch(data)
        parts = [evaluate_batch(part) for part in np.split(data, splits)]
        for sid in ALL_STATISTICS:
            stitched = np.concatenate([part[sid] for part in parts])
            assert_array_equal(whole[sid], stitched, err_msg=f"{sid.name} at {data.shape}")


def test_engine_peak_memory_one_chunk_p6():
    # A (256, 100, 6) chunk must stay under 100 MB: a p^6 sixth-moment tensor
    # for it would take 96 MB on its own.
    data = np.random.default_rng(9).standard_normal((256, 100, 6))
    evaluate_batch(data[:2])  # builds the per-p program outside the traced call
    tracemalloc.start()
    try:
        evaluate_batch(data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100 * 2**20, f"peak {peak / 2**20:.0f} MB"


def test_engine_subset_of_statistics():
    rng = np.random.default_rng(3)
    data = rng.standard_normal((4, 20, 2))
    subset = (StatisticId.parse("mardia_kurt"), StatisticId.parse("z2_w"))
    out = evaluate_batch(data, subset)
    assert set(out) == set(subset)


def test_engine_threshold_errors():
    rng = np.random.default_rng(4)
    with pytest.raises(SampleSizeError):
        evaluate_batch(rng.standard_normal((2, 4, 2)))
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


def test_population_path_rejects_singular_covariance():
    with pytest.raises(SingularBlockError, match="population covariance"):
        evaluate_population_batch(np.ones((1, 2, 2)), np.zeros((1,) + (2,) * 3),
                                  np.zeros((1,) + (2,) * 4))
    with pytest.raises(ValueError, match="m6"):
        evaluate_population_batch(np.eye(2)[None], np.zeros((1,) + (2,) * 3),
                                  np.zeros((1,) + (2,) * 4))


def test_large_gaussian_sample_statistics_vanish():
    rng = np.random.default_rng(6)
    data = rng.standard_normal((1, 200_000, 2))
    out = evaluate_batch(data)
    assert out[StatisticId.parse("z2_hl")][0] < 0.01
    assert out[StatisticId.parse("z3_hl")][0] < 0.01
    assert out[StatisticId.parse("z3_w")][0] > 0.99
    assert abs(out[StatisticId.parse("mardia_kurt")][0] - 8.0) < 0.1
    assert out[StatisticId.parse("mardia_skew")][0] < 0.01
