import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from cancornorm.cancor import cancor_sq, functionals
from cancornorm.covblocks import lambda_blocks, psi_blocks
from cancornorm.engine import evaluate_batch
from cancornorm.errors import DegenerateSampleError, SampleSizeError
from cancornorm.moments import central_moments
from cancornorm.stats import ALL_STATISTICS, StatisticId, compute_statistics


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
    for n, p in [(20, 2), (40, 5)]:
        data = rng.standard_normal((12, n, p))
        whole = evaluate_batch(data)
        parts = [evaluate_batch(data[:5]), evaluate_batch(data[5:7]), evaluate_batch(data[7:])]
        for sid in ALL_STATISTICS:
            stitched = np.concatenate([part[sid] for part in parts])
            assert_array_equal(whole[sid], stitched, err_msg=f"{sid.name} at p={p}")


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
    with pytest.raises(DegenerateSampleError):
        evaluate_batch(np.stack([good, flat]))


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


def test_engine_rejects_wrong_shape():
    with pytest.raises(ValueError):
        evaluate_batch(np.zeros((10, 2)))


def test_large_gaussian_sample_statistics_vanish():
    rng = np.random.default_rng(6)
    data = rng.standard_normal((1, 200_000, 2))
    out = evaluate_batch(data)
    assert out[StatisticId.parse("z2_hl")][0] < 0.01
    assert out[StatisticId.parse("z3_hl")][0] < 0.01
    assert out[StatisticId.parse("z3_w")][0] > 0.99
    assert abs(out[StatisticId.parse("mardia_kurt")][0] - 8.0) < 0.1
    assert out[StatisticId.parse("mardia_skew")][0] < 0.01
