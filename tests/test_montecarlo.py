import os
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from cancornorm import montecarlo
from cancornorm.alternatives import RngStream, alternative, generate
from cancornorm.engine import _z3_term_map
from cancornorm.errors import SampleSizeError
from cancornorm.montecarlo import (
    MissingTableError,
    NullTable,
    TableMismatchError,
    calibrate,
    empirical_pvalues,
    population_value,
    power,
    run_test,
)
from cancornorm.stats import ALL_STATISTICS, StatisticId

Z2HL = StatisticId.parse("z2_hl")
Z2W = StatisticId.parse("z2_w")
KURT = StatisticId.parse("mardia_kurt")


@pytest.fixture(scope="module")
def small_tables():
    return calibrate(ALL_STATISTICS, 20, 2, 2000, RngStream(99))


def test_calibrate_basic_structure(small_tables):
    assert set(small_tables) == set(ALL_STATISTICS)
    for sid, table in small_tables.items():
        assert table.replications == 2000
        assert table.values.shape == (2000,)
        assert np.all(np.diff(table.values) >= 0)
        assert (table.n, table.p) == (20, 2)


def test_calibrate_deterministic_and_worker_independent(small_tables):
    again = calibrate(ALL_STATISTICS, 20, 2, 2000, RngStream(99), workers=3)
    for sid in ALL_STATISTICS:
        assert_array_equal(small_tables[sid].values, again[sid].values)


def test_calibrate_seed_changes_values(small_tables):
    other = calibrate((Z2HL,), 20, 2, 2000, RngStream(100))
    assert not np.array_equal(small_tables[Z2HL].values, other[Z2HL].values)


def test_calibrate_validates_inputs():
    with pytest.raises(ValueError):
        calibrate((Z2HL,), 20, 2, 999, RngStream(0))
    with pytest.raises(SampleSizeError):
        calibrate((StatisticId.parse("z3_hl"),), 12, 3, 1000, RngStream(0))


def test_pvalue_extremes():
    table = NullTable(
        statistic=Z2HL, n=20, p=2, replications=9, seed=0, stream=(),
        values=np.arange(1.0, 10.0), created_at="t",
    )
    # below every null value, upper tail: no evidence at all
    assert empirical_pvalues(0.5, table)[0] == 1.0
    # above every null value: smallest attainable p
    assert empirical_pvalues(50.0, table)[0] == 1.0 / 10.0
    # ties count as at least as extreme
    assert empirical_pvalues(9.0, table)[0] == 2.0 / 10.0


def test_pvalue_lower_tail():
    table = NullTable(
        statistic=Z2W, n=20, p=2, replications=9, seed=0, stream=(),
        values=np.arange(1.0, 10.0), created_at="t",
    )
    assert empirical_pvalues(0.5, table)[0] == 1.0 / 10.0
    assert empirical_pvalues(50.0, table)[0] == 1.0


def test_pvalue_two_sided_tails(monkeypatch):
    # no statistic is two sided by default, but the machinery supports it
    monkeypatch.setattr(StatisticId, "tail", property(lambda self: "two_sided"))
    table = NullTable(
        statistic=KURT, n=20, p=2, replications=9, seed=0, stream=(),
        values=np.arange(1.0, 10.0), created_at="t",
    )
    assert empirical_pvalues(0.5, table)[0] == 2.0 / 10.0
    assert empirical_pvalues(50.0, table)[0] == 2.0 / 10.0
    assert empirical_pvalues(5.0, table)[0] == 1.0


def test_run_test_round_trip(small_tables):
    rng = RngStream(5)
    x = generate(alternative("normal", 2), 20, rng)
    res = run_test(x, Z2HL, small_tables[Z2HL], alpha=0.05)
    assert 0.0 < res.p_value <= 1.0
    assert res.reject == (res.p_value <= 0.05)
    strong = generate(alternative("indep_exp", 2), 20, rng.child(1))
    # a heavily skewed sample should produce a small p-value most of the time;
    # at minimum the machinery must agree with its own decision rule
    res2 = run_test(strong, Z2HL, small_tables[Z2HL], alpha=0.05)
    assert res2.reject == (res2.p_value <= 0.05)


def test_run_test_shape_mismatch(small_tables):
    x = generate(alternative("normal", 2), 25, RngStream(6))
    with pytest.raises(TableMismatchError):
        run_test(x, Z2HL, small_tables[Z2HL])
    x = generate(alternative("normal", 3), 20, RngStream(7))
    with pytest.raises(TableMismatchError):
        run_test(x, Z2HL, small_tables[Z2HL])
    x = generate(alternative("normal", 2), 20, RngStream(8))
    with pytest.raises(TableMismatchError):
        run_test(x, Z2W, small_tables[Z2HL])


def test_power_structure_and_size(small_tables):
    report = power(
        alternative("normal", 2), ALL_STATISTICS, 20, 2, 0.05, 1000,
        small_tables, RngStream(11),
    )
    assert report.alternative == "normal"
    for cell in report.cells:
        # size under the null, 3 SE slack at both MC layers
        assert abs(cell.power - 0.05) < 0.035
        assert_allclose(cell.se, np.sqrt(cell.power * (1 - cell.power) / 1000))


def test_power_detects_strong_alternative(small_tables):
    report = power(
        alternative("indep_exp", 2), (Z2HL,), 20, 2, 0.05, 500,
        small_tables, RngStream(12),
    )
    assert report.cell(Z2HL).power > 0.6


def test_power_deterministic_across_workers(small_tables):
    a = power(alternative("chisq2", 2), (Z2HL, KURT), 20, 2, 0.05, 600,
              small_tables, RngStream(13), workers=1)
    b = power(alternative("chisq2", 2), (Z2HL, KURT), 20, 2, 0.05, 600,
              small_tables, RngStream(13), workers=4)
    for ca, cb in zip(a.cells, b.cells):
        assert ca == cb


@pytest.fixture()
def fresh_pool(monkeypatch):
    """No worker pool before the test; the test's pool is shut down after it.
    Yields the worker counts of the pools built meanwhile."""

    def drop():
        if montecarlo._pool is not None:
            montecarlo._pool.shutdown()
        montecarlo._pool = None

    built = []

    class CountingPool(ProcessPoolExecutor):
        def __init__(self, max_workers):
            built.append(max_workers)
            super().__init__(max_workers=max_workers)

    drop()
    monkeypatch.setattr(montecarlo, "ProcessPoolExecutor", CountingPool)
    yield built
    drop()


def test_one_pool_serves_successive_runs(fresh_pool, small_tables):
    calibrate((Z2HL,), 20, 2, 1000, RngStream(3), workers=2)
    for seed in (4, 5):
        power(alternative("chisq2", 2), (Z2HL,), 20, 2, 0.05, 600,
              small_tables, RngStream(seed), workers=2)
    assert fresh_pool == [2]
    # another worker count replaces the pool
    calibrate((Z2HL,), 20, 2, 1000, RngStream(3), workers=3)
    assert fresh_pool == [2, 3]


def test_shared_pool_bit_identical_across_dimensions(fresh_pool):
    # The pool forks at p = 2; at p = 3 its workers build the z3 term map
    # themselves rather than inheriting it.
    _z3_term_map.cache_clear()
    for p in (2, 3):
        one = calibrate(ALL_STATISTICS, 20, p, 1000, RngStream(21), workers=1)
        two = calibrate(ALL_STATISTICS, 20, p, 1000, RngStream(21), workers=2)
        for sid in ALL_STATISTICS:
            assert_array_equal(one[sid].values, two[sid].values)
    assert fresh_pool == [2]


def test_threads_share_the_pool_safely(fresh_pool):
    # threads asking for different worker counts take turns with the pool
    expected = calibrate((Z2HL,), 20, 2, 1000, RngStream(9), workers=1)[Z2HL].values
    with ThreadPoolExecutor(4) as threads:
        runs = [threads.submit(calibrate, (Z2HL,), 20, 2, 1000, RngStream(9), workers=w)
                for w in (2, 3, 2, 3)]
        for run in runs:
            assert_array_equal(run.result(timeout=120)[Z2HL].values, expected)
    assert 1 <= len(fresh_pool) <= 4


def test_broken_pool_is_rebuilt(fresh_pool, monkeypatch):
    expected = calibrate((Z2HL,), 20, 2, 1000, RngStream(8), workers=1)[Z2HL].values
    with monkeypatch.context() as m:
        # the pool forks after this patch, so its workers die on their first chunk
        m.setattr(montecarlo, "evaluate_batch", lambda *args: os._exit(1))
        with pytest.raises(BrokenProcessPool):
            calibrate((Z2HL,), 20, 2, 1000, RngStream(8), workers=2)
    assert montecarlo._pool is None
    again = calibrate((Z2HL,), 20, 2, 1000, RngStream(8), workers=2)[Z2HL].values
    assert_array_equal(again, expected)
    assert fresh_pool == [2, 2]


def test_power_missing_table(small_tables):
    with pytest.raises(MissingTableError):
        power(alternative("normal", 2), (Z2HL,), 20, 2, 0.05, 100,
              {}, RngStream(14))


def test_power_table_shape_mismatch(small_tables):
    with pytest.raises(TableMismatchError):
        power(alternative("normal", 2), (Z2HL,), 50, 2, 0.05, 100,
              small_tables, RngStream(15))
    with pytest.raises(ValueError):
        power(alternative("normal", 3), (Z2HL,), 20, 2, 0.05, 100,
              small_tables, RngStream(15))


def test_null_table_serves_all_normal_distributions(small_tables):
    # affine invariance: a table calibrated on the standard normal applies to
    # any normal distribution of the same shape
    rng = RngStream(33)
    chol = np.linalg.cholesky(np.array([[2.0, 1.1], [1.1, 1.5]]))
    rejections = 0
    reps = 400
    for r in range(reps):
        z = generate(alternative("normal", 2), 20, rng.child(r))
        x = z @ chol.T + np.array([5.0, -3.0])
        if run_test(x, Z2HL, small_tables[Z2HL], alpha=0.05).reject:
            rejections += 1
    assert abs(rejections / reps - 0.05) < 0.04


def test_population_value_normal_baseline():
    spec = alternative("normal", 2)
    assert population_value(spec, Z2HL) == 0.0
    assert population_value(spec, Z2W) == 1.0
    assert population_value(spec, StatisticId.parse("z3_pb")) == 0.0
    assert_allclose(population_value(spec, StatisticId.parse("mardia_skew")), 0.0, atol=1e-12)
    assert_allclose(population_value(spec, KURT), 8.0, rtol=1e-12)
    assert_allclose(
        population_value(alternative("normal", 3), KURT), 15.0, rtol=1e-12
    )


def test_population_value_reference_spot_checks():
    assert abs(population_value(alternative("logn_05", 2), Z2HL) - 0.07) < 0.01
    assert abs(
        population_value(alternative("al1_r05", 3), StatisticId.parse("z2_max")) - 0.51
    ) < 0.01


def test_null_table_validation():
    with pytest.raises(ValueError):
        NullTable(statistic=Z2HL, n=20, p=2, replications=5, seed=0, stream=(),
                  values=np.arange(4.0), created_at="t")
    with pytest.raises(ValueError):
        NullTable(statistic=Z2HL, n=20, p=2, replications=3, seed=0, stream=(),
                  values=np.array([3.0, 2.0, 1.0]), created_at="t")
