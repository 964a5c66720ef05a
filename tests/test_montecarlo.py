import gc
import multiprocessing
import os
import platform
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from functools import partial
from itertools import product
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from cancornorm import alternatives, cli, montecarlo, stats
from cancornorm.alternatives import (
    ALL_ALTERNATIVE_NAMES,
    RngStream,
    alternative,
    available_alternatives,
    generate,
    generate_group,
    population_value,
    population_values,
    stream_generators,
)
from cancornorm.covblocks import cancor_sq, lambda_blocks, population_moments, psi_blocks
from cancornorm.engine import _plan, _z3_term_map, evaluate_batch
from cancornorm.errors import DegenerateSampleError, SampleSizeError, TableMismatchError
from cancornorm.montecarlo import (
    MissingTableError,
    NullTable,
    calibrate,
    empirical_pvalues,
    power,
    power_study,
)
from cancornorm.stats import (
    ALL_STATISTICS,
    StatisticId,
    compute_statistics,
    critical_count,
    rejections,
    run_test,
    run_tests,
)

from covblocks_oracle import functional_value
from test_invariants import CASES, WORKERS

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
    # one rule and one message, whether a calibration or an evaluation asks
    z3hl = StatisticId.parse("z3_hl")
    message = r"^z3_hl needs n >= 13 for p=3, got n=12$"
    with pytest.raises(SampleSizeError, match=message):
        calibrate((z3hl,), 12, 3, 1000, RngStream(0))
    with pytest.raises(SampleSizeError, match=message):
        compute_statistics(np.random.default_rng(0).standard_normal((12, 3)), (z3hl,))


@pytest.fixture()
def no_sampling(monkeypatch):
    """Fails the test if any chunk is sampled."""

    def sample(*args):
        raise AssertionError("a chunk was sampled")

    monkeypatch.setattr(montecarlo, "generate_group", sample)


@pytest.mark.parametrize("workers", [0, -1])
def test_calibrate_and_power_need_a_worker(small_tables, no_sampling, workers):
    with pytest.raises(ValueError, match="workers must be >= 1"):
        calibrate((Z2HL,), 20, 2, 1000, RngStream(0), workers=workers)
    with pytest.raises(ValueError, match="workers must be >= 1"):
        power(alternative("normal", 2), (Z2HL,), 20, 2, 0.05, 100,
              small_tables, RngStream(0), workers=workers)


@pytest.mark.parametrize("reps, alpha, message", [
    (0, 0.05, "reps must be >= 1"),
    (-5, 0.05, "reps must be >= 1"),
    (100, 1.5, "alpha must be in"),
    (100, 0.0, "alpha must be in"),
])
def test_power_rejects_bad_reps_and_alpha(small_tables, no_sampling, reps, alpha, message):
    with pytest.raises(ValueError, match=message):
        power(alternative("normal", 2), (Z2HL,), 20, 2, alpha, reps,
              small_tables, RngStream(0))


def test_power_study_checks_every_job_before_sampling(no_sampling):
    study = dict(
        alternatives=[alternative("indep_exp", 2)], statistics=(Z2HL,), sizes=(20, 50),
        p=2, alpha=0.05, reps=100, calibration_reps=1000, rng=RngStream(0),
    )
    bad = [
        ({"alternatives": [alternative("indep_exp", 2), alternative("chisq2", 3)]}, "p=3"),
        ({"alpha": 1.5}, "alpha must be in"),
        ({"reps": 0}, "reps must be >= 1"),
        ({"calibration_reps": 999}, "replications must be"),
        ({"workers": 0}, "workers must be >= 1"),
        ({"statistics": ()}, "statistics must not be empty"),
    ]
    for change, message in bad:
        with pytest.raises(ValueError, match=message):
            list(power_study(**{**study, **change}))
    # the second sample size is too small for z3 at p = 3
    with pytest.raises(SampleSizeError):
        list(power_study(**{**study, "alternatives": [alternative("indep_exp", 3)],
                            "statistics": (StatisticId.parse("z3_hl"),), "p": 3,
                            "sizes": (20, 12)}))


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


@pytest.mark.parametrize("statistic", [Z2HL, Z2W])
def test_pvalue_one_sided_tails_match_brute_force(statistic):
    values = np.array([1.0, 2.0, 2.0, 3.0, 5.0, 5.0, 5.0, 8.0])
    table = NullTable(
        statistic=statistic, n=20, p=2, replications=8, seed=0, stream=(),
        values=values, created_at="t",
    )
    observed = np.array([0.5, 1.0, 2.0, 2.5, 5.0, 6.0, 8.0, 9.0])
    if statistic.tail == "upper":
        count = [(values >= x).sum() for x in observed]
    else:
        count = [(values <= x).sum() for x in observed]
    assert_array_equal(empirical_pvalues(observed, table), (np.array(count) + 1.0) / 9.0)


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


def test_run_tests_evaluates_once_and_matches_run_test(small_tables, monkeypatch):
    x = generate(alternative("indep_exp", 2), 20, RngStream(9))
    one_by_one = {sid: run_test(x, sid, small_tables[sid], alpha=0.1) for sid in ALL_STATISTICS}
    calls = []
    evaluate_batch = stats.evaluate_batch

    def counting(data, statistics):
        calls.append(tuple(statistics))
        return evaluate_batch(data, statistics)

    monkeypatch.setattr(stats, "evaluate_batch", counting)
    tables = {sid: small_tables[sid] for sid in reversed(ALL_STATISTICS)}
    results = run_tests(x, tables, alpha=0.1)
    assert calls == [tuple(tables)]
    assert list(results) == list(tables)  # in the mapping's order
    for sid, result in results.items():
        assert result == one_by_one[sid]


def test_run_tests_checks_before_evaluating(small_tables, monkeypatch):
    def no_evaluation(*args):
        raise AssertionError("the sample was evaluated")

    monkeypatch.setattr(stats, "evaluate_batch", no_evaluation)
    x = generate(alternative("normal", 2), 20, RngStream(10))
    z3min = StatisticId.parse("z3_min")
    with pytest.raises(ValueError, match=r"^alpha must be in \(0, 1\), got 1.5$"):
        run_tests(x, small_tables, alpha=1.5)
    with pytest.raises(TableMismatchError, match="^table holds z2_hl, not z3_min$"):
        run_tests(x, {**small_tables, z3min: small_tables[Z2HL]})
    with pytest.raises(TableMismatchError, match=r"but the data is \(n=25, p=2\)"):
        run_tests(generate(alternative("normal", 2), 25, RngStream(10)), small_tables)


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
    """Yields the worker counts of the pools built during the test, and
    checks that each pool starts its workers with ``_start_worker``."""
    built, initializers = [], []

    class CountingPool(ProcessPoolExecutor):
        def __init__(self, max_workers, initializer, **kwargs):
            built.append(max_workers)
            initializers.append(initializer)
            super().__init__(max_workers=max_workers, initializer=initializer, **kwargs)

    monkeypatch.setattr(montecarlo, "ProcessPoolExecutor", CountingPool)
    yield built
    assert all(init is montecarlo._start_worker for init in initializers)


def fork_pools(monkeypatch):
    """Make the pools that runs build from here on fork their workers, so
    that the workers inherit a fault the test patches into this process,
    whatever the default start method."""
    monkeypatch.setattr(montecarlo, "ProcessPoolExecutor", partial(
        montecarlo.ProcessPoolExecutor, mp_context=multiprocessing.get_context("fork")
    ))


def test_each_parallel_run_owns_its_pool(fresh_pool, small_tables, monkeypatch):
    # Every parallel calibrate, power and power_study builds one pool and
    # leaves no worker behind, whether it returns, raises on a worker,
    # loses a worker, or is closed by its caller.
    fork_pools(monkeypatch)
    rng = RngStream(5, (2,))
    normal, indep_exp = alternative("normal", 2), alternative("indep_exp", 2)
    runs = [  # each run, and the stream of a replication that a failing run spoils
        (lambda: calibrate((Z2HL, KURT), 20, 2, 1000, rng, workers=2),
         rng.child(montecarlo.CALIBRATION_CONTEXT, 300)),
        (lambda: power(normal, (Z2HL, KURT), 20, 2, 0.05, 600, small_tables, rng, workers=2),
         rng.child(montecarlo.POWER_CONTEXT, 300)),
        (lambda: list(power_study([normal, indep_exp], (Z2HL, KURT), (20,), 2, 0.05, 300, 1000,
                                  rng, workers=2)),
         rng.child(0, 20).child(montecarlo.CALIBRATION_CONTEXT, 300)),
    ]

    def leaves_no_worker(run, raises=None):
        built = len(fresh_pool)
        if raises is None:
            run()
        else:
            with pytest.raises(raises):
                run()
        assert len(fresh_pool) == built + 1
        assert multiprocessing.active_children() == []

    for run, spoiled in runs:
        leaves_no_worker(run)
        with monkeypatch.context() as m:
            # the pool forks after this patch, so its workers sample with it
            m.setattr(montecarlo, "generate_group",
                      constant_column_sampler(spoiled.generator(), []))
            leaves_no_worker(run, DegenerateSampleError)
        with monkeypatch.context() as m:
            m.setattr(montecarlo, "evaluate_batch", lambda *args: os._exit(1))
            leaves_no_worker(run, BrokenProcessPool)

    def close_after_first_report():
        study = power_study([normal, indep_exp], (Z2HL, KURT), (20, 50), 2, 0.05, 1000,
                            1000, rng, workers=2)
        next(study)
        study.close()

    leaves_no_worker(close_after_first_report)
    assert fresh_pool == [2] * 10


def test_shared_pool_bit_identical_across_dimensions(fresh_pool):
    # Each parallel run forks its own pool once it has built the per-p plan
    # (and the z3 term map under it), cleared here so that the run builds
    # it; the workers at p = 3 inherit it as those at p = 2 do.
    _plan.cache_clear()
    _z3_term_map.cache_clear()
    for p in (2, 3):
        one = calibrate(ALL_STATISTICS, 20, p, 1000, RngStream(21), workers=1)
        two = calibrate(ALL_STATISTICS, 20, p, 1000, RngStream(21), workers=2)
        for sid in ALL_STATISTICS:
            assert_array_equal(one[sid].values, two[sid].values)
    assert fresh_pool == [2, 2]


def test_threads_share_the_pool_safely(fresh_pool):
    # threads running at once each build and shut down a pool of their own
    expected = calibrate((Z2HL,), 20, 2, 1000, RngStream(9), workers=1)[Z2HL].values
    with ThreadPoolExecutor(4) as threads:
        runs = [threads.submit(calibrate, (Z2HL,), 20, 2, 1000, RngStream(9), workers=w)
                for w in (2, 3, 2, 3)]
        for run in runs:
            assert_array_equal(run.result(timeout=120)[Z2HL].values, expected)
    assert sorted(fresh_pool) == [2, 2, 3, 3]


def test_broken_pool_is_rebuilt(fresh_pool, monkeypatch):
    fork_pools(monkeypatch)
    expected = calibrate((Z2HL,), 20, 2, 1000, RngStream(8), workers=1)[Z2HL].values
    with monkeypatch.context() as m:
        # the pool forks after this patch, so its workers die on their first chunk
        m.setattr(montecarlo, "evaluate_batch", lambda *args: os._exit(1))
        with pytest.raises(BrokenProcessPool):
            calibrate((Z2HL,), 20, 2, 1000, RngStream(8), workers=2)
    again = calibrate((Z2HL,), 20, 2, 1000, RngStream(8), workers=2)[Z2HL].values
    assert_array_equal(again, expected)
    assert fresh_pool == [2, 2]


# Prints the minor page faults of three (256, 100, 5) normal chunks in turn
# on the one worker of a pool.
CHUNK_FAULTS_ON_A_WORKER = """
import resource
from concurrent.futures import ProcessPoolExecutor
from cancornorm import montecarlo
from cancornorm.alternatives import RngStream, alternative
from cancornorm.stats import ALL_STATISTICS

def chunk_minor_faults(start):
    job = montecarlo.SimulationJob(alternative("normal", 5), 100, RngStream(3), 0, 4096)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    montecarlo._chunk_values(ALL_STATISTICS, ((job,), start, 256))
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before

pool = ProcessPoolExecutor(1, initializer=montecarlo._start_worker)
print(*[pool.submit(chunk_minor_faults, 256 * i).result(timeout=120) for i in range(3)])
pool.shutdown()
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="mallopt is glibc's")
def test_pool_workers_reuse_their_heap():
    # A chunk's temporaries map ~3,800 fresh pages with glibc's default
    # thresholds; a worker's later chunks fault in almost none.  The pool
    # forks from a fresh interpreter: a worker forked from this one would
    # inherit the thresholds that earlier tests raised here (glibc raises
    # them as large blocks are freed), and pass without the initializer.
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    proc = subprocess.run(
        [sys.executable, "-c", CHUNK_FAULTS_ON_A_WORKER],
        env=env, capture_output=True, text=True, check=True, timeout=300,
    )
    faults = [int(f) for f in proc.stdout.split()]
    assert len(faults) == 3 and max(faults[1:]) < 200, faults


def test_pool_workers_freeze_what_they_inherit():
    # a worker's collections skip the parent's objects, so never copy their
    # pages; the parent's collector stays as it was
    frozen = gc.get_freeze_count()
    with ProcessPoolExecutor(1, initializer=montecarlo._start_worker) as pool:
        assert pool.submit(gc.get_freeze_count).result(timeout=120) > 0
    assert gc.get_freeze_count() == frozen


def _fake_libc(monkeypatch, results):
    """Make ``ctypes.CDLL(None)`` a C library whose mallopt returns RESULTS in
    turn; returns the list of (param, value) calls it receives."""
    calls = []

    def mallopt(param, value):
        calls.append((param, value))
        return results.pop(0)

    monkeypatch.setattr(montecarlo.ctypes, "CDLL", lambda name: SimpleNamespace(mallopt=mallopt))
    return calls


def test_steady_heap_sets_both_thresholds(monkeypatch):
    calls = _fake_libc(monkeypatch, [1, 1])
    assert montecarlo._steady_heap() is True
    assert calls == [(montecarlo.M_MMAP_THRESHOLD, 32 * 2**20),
                     (montecarlo.M_TRIM_THRESHOLD, 256 * 2**20)]
    # a refused mmap threshold leaves the trim threshold alone
    calls = _fake_libc(monkeypatch, [0])
    assert montecarlo._steady_heap() is False
    assert calls == [(montecarlo.M_MMAP_THRESHOLD, 32 * 2**20)]


def test_steady_heap_without_mallopt_changes_nothing(monkeypatch):
    # a C library without mallopt, then no C library at all
    monkeypatch.setattr(montecarlo.ctypes, "CDLL", lambda name: SimpleNamespace())
    assert montecarlo._steady_heap() is False

    def no_libc(name):
        raise OSError("no C library")

    monkeypatch.setattr(montecarlo.ctypes, "CDLL", no_libc)
    assert montecarlo._steady_heap() is False


def constant_column_sampler(target, failing, name="normal", fill=2.0):
    """A ``generate_group`` that gives the replication of alternative
    ``name`` drawn by the generator ``target`` a column of ``fill``, constant
    or not finite, appending that sample, as drawn, to ``failing``."""
    target_key = target.bit_generator.state["state"]["key"]

    def group_with_constant_column(specs, n, generators, count):
        hits = []

        def watched():
            for i, g in enumerate(generators):
                if np.array_equal(g.bit_generator.state["state"]["key"], target_key):
                    hits.append(i)
                yield g

        x = generate_group(specs, n, watched(), count)
        names = [spec.name for spec in specs]
        for i in hits:
            row = names.index(name) * count + i
            failing.append(x[row].copy())
            x[row, :, 1] = fill
        return x

    return group_with_constant_column


def test_failing_replication_is_named_by_its_stream(monkeypatch):
    # One replication of the second chunk gets a constant column, or one of
    # NaN; the run still aborts, with the coordinates that replay that
    # replication.  The per-sample path refuses a NaN sample as it reads it.
    rng, bad = RngStream(5, (2,)), 300
    for fill, replay_error in ((2.0, DegenerateSampleError), (np.nan, ValueError)):
        failing = []
        group_with_constant_column = constant_column_sampler(
            rng.child(montecarlo.CALIBRATION_CONTEXT, bad).generator(), failing, fill=fill
        )
        monkeypatch.setattr(montecarlo, "generate_group", group_with_constant_column)
        with pytest.raises(DegenerateSampleError) as info:
            calibrate((Z2HL, KURT), 20, 2, 1000, rng)
        message = str(info.value)
        assert f"r={bad} of seed=5, path=(2,), context={montecarlo.CALIBRATION_CONTEXT}" in message
        assert info.value.__cause__.item == bad - montecarlo.CHUNK
        replay_stream = RngStream(5, (2,)).child(montecarlo.CALIBRATION_CONTEXT, bad)
        replay = group_with_constant_column(
            (alternative("normal", 2),), 20, [replay_stream.generator()], 1
        )[0]
        assert len(failing) == 2
        assert_array_equal(failing[1], failing[0])  # the replay draws the run's sample
        with pytest.raises(replay_error):
            compute_statistics(replay)


def _job(n, p, reps):
    return montecarlo.SimulationJob(alternative("normal", p), n, RngStream(0), 0, reps)


@pytest.mark.parametrize(
    "epoch, stamp", [("0", "1970-01-01T00:00:00Z"), ("253402300799", "9999-12-31T23:59:59Z")]
)
def test_timestamp_honors_source_date_epoch_to_its_bounds(monkeypatch, epoch, stamp):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", epoch)
    assert montecarlo.timestamp() == stamp


@pytest.mark.parametrize("epoch", ["-1", "253402300800"])
def test_timestamp_rejects_epochs_beyond_four_digit_years(monkeypatch, epoch):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", epoch)
    with pytest.raises(ValueError, match="SOURCE_DATE_EPOCH must be an integer"):
        montecarlo.timestamp()


def test_chunk_sizes_follow_working_set_and_workers():
    # 8 n (C(p+1, 2) + C(p+2, 3)) bytes of pair and triple products per
    # replication (engine.product_bytes), in at most 4 passes of PRODUCT_BUDGET
    jobs = [_job(20, 2, 4096), _job(50, 2, 4096), _job(50, 3, 4096), _job(100, 6, 4096)]
    assert montecarlo._chunk_sizes(jobs, ALL_STATISTICS, 1) == [4096, 2048, 1024, 256]
    assert montecarlo._chunk_sizes(jobs, ALL_STATISTICS, 2) == [4096, 2048, 1024, 256]
    # fewer than 4 chunks per worker: every size above CHUNK is halved until
    # there are 4 per worker or every size is CHUNK
    assert montecarlo._chunk_sizes(jobs[:1], ALL_STATISTICS, 1) == [1024]
    assert montecarlo._chunk_sizes(jobs[:1], ALL_STATISTICS, 2) == [512]
    assert montecarlo._chunk_sizes([_job(20, 2, 10000)], ALL_STATISTICS, 2) == [1024]
    assert montecarlo._chunk_sizes([_job(100, 5, 2048)], ALL_STATISTICS, 2) == [256]
    assert montecarlo._chunk_sizes([_job(100, 6, 1000)], ALL_STATISTICS, 2) == [256]
    pair = [_job(20, 2, 1000), _job(50, 2, 1500)]  # 1 + 1 chunks
    assert montecarlo._chunk_sizes(pair, ALL_STATISTICS, 1) == [1024, 512]  # 1 + 3
    assert montecarlo._chunk_sizes(pair, ALL_STATISTICS, 2) == [512, 256]  # 2 + 6
    assert montecarlo._chunk_sizes([], ALL_STATISTICS, 2) == []
    # the power table of the paper: 28 jobs of 1000 replications at each of n = 20, 50
    study = [_job(20, 2, 1000)] * 28 + [_job(50, 2, 1000)] * 28
    assert montecarlo._chunk_sizes(study, ALL_STATISTICS, 2) == [4096] * 28 + [2048] * 28
    # large n: where CHUNK samples (8 n p bytes each) would pass 4 budgets, the
    # largest power of two of them within that, down to 1, on any worker count
    large = [_job(1000, 4, 1024), _job(2000, 4, 1024), _job(10000, 4, 1024), _job(10**6, 2, 8)]
    assert montecarlo._chunk_sizes(large, ALL_STATISTICS, 1) == [256, 128, 16, 1]
    assert montecarlo._chunk_sizes(large, ALL_STATISTICS, 2) == [256, 128, 16, 1]
    assert montecarlo._chunk_sizes(large[2:3], (Z2HL, KURT), 2) == [16]


def _command_run(command):
    """The jobs, statistics and worker count of the run a CLI command makes."""
    ns = cli.build_parser().parse_args(command.split())
    rng = RngStream(ns.seed)
    if ns.command == "tables":
        p = 2 if ns.which == "2" else 3
        specs = [alternative(name, p) for name in ALL_ALTERNATIVE_NAMES]
        jobs = montecarlo._study_jobs(specs, ALL_STATISTICS, (20, 50), p, ns.alpha, ns.reps,
                                      ns.calib_reps, rng)
        return jobs, ALL_STATISTICS, ns.workers
    statistics = cli._parse_statistics(ns.statistics)
    if ns.command == "calibrate":
        job = montecarlo._calibration_job(statistics, ns.n, ns.p, ns.reps, rng)
    else:
        job = montecarlo._power_job(alternative(ns.alt, ns.p), ns.n, ns.p, ns.alpha, ns.reps, rng)
    return [job], statistics, ns.workers


# The commands of each worker-count case of tests/test_invariants.py whose
# batch size the case claims changes between 1 and 2 workers; there, the
# case also checks that the values do not depend on the batch size.
RESIZED = {"null-tables": [True, False], "power-reports": [True, True]}


@pytest.mark.parametrize("name", [name for name, case in CASES.items() if case.values == WORKERS])
def test_worker_count_cases_change_the_batch_size_they_claim(name):
    case = CASES[name]
    runs = [[_command_run(command) for command in case.commands(w)] for w in WORKERS]
    sizes = [[montecarlo._chunk_sizes(*run) for run in by_command] for by_command in runs]
    resized = [one != two for one, two in zip(*sizes)]
    assert resized == RESIZED.get(name, [False] * len(resized)), sizes


@pytest.mark.parametrize("size", [montecarlo.CHUNK, 4 * montecarlo.CHUNK, 97])
def test_values_do_not_depend_on_chunk_size(monkeypatch, size):
    # reps that no chunk size divides; the reference runs under the default rule
    statistics = (Z2HL, KURT, StatisticId.parse("z3_w"))
    study = dict(
        alternatives=[alternative("chisq2", 3), alternative("indep_exp", 3)],
        statistics=statistics, sizes=(25, 30), p=3, alpha=0.1, reps=300,
        calibration_reps=1100, rng=RngStream(41),
    )
    null = calibrate(statistics, 25, 3, 1100, RngStream(40))
    reports = list(power_study(**study))
    monkeypatch.setattr(
        montecarlo, "_chunk_sizes", lambda jobs, statistics, workers: [size] * len(jobs)
    )
    for workers in (1, 2):
        again = calibrate(statistics, 25, 3, 1100, RngStream(40), workers=workers)
        for sid in statistics:
            assert_array_equal(again[sid].values, null[sid].values)
        assert list(power_study(**study, workers=workers)) == reports


def test_draw_group_reports_do_not_depend_on_the_batch_size():
    # One draw group of three alternatives: a serial run evaluates one batch
    # of 3 x 1024 of them, a run on two workers batches of 3 x 171, since
    # its 4 jobs of one chunk each are halved to chunks of 512.
    alts = [alternative(name, 2) for name in ("al0_r0", "al1_r0", "al3_r0")]
    rng = RngStream(31)
    jobs = [montecarlo._calibration_job(ALL_STATISTICS, 20, 2, 1024, rng.child(0, 20))] + [
        montecarlo._power_job(alt, 20, 2, 0.05, 1024, rng.child(1, 20)) for alt in alts
    ]
    assert [len(group) for group in montecarlo._draw_groups(jobs)] == [1, 3]
    assert montecarlo._chunk_sizes(jobs, ALL_STATISTICS, 1) == [4096] * 4
    assert montecarlo._chunk_sizes(jobs, ALL_STATISTICS, 2) == [512] * 4
    reports = [
        list(power_study(alts, ALL_STATISTICS, (20,), 2, 0.05, 1024, 1024, rng, workers=workers))
        for workers in (1, 2)
    ]
    assert len(reports[0]) == 3
    assert reports[1] == reports[0]


def test_failing_replication_in_a_large_chunk_is_named(monkeypatch):
    # Under the default rule this run has chunks of 4 * CHUNK replications;
    # replication 1300 is item 276 of the second one.
    rng, bad, size = RngStream(5, (2,)), 1300, 4 * montecarlo.CHUNK
    assert montecarlo._chunk_sizes([_job(20, 2, 4096)], (Z2HL, KURT), 1) == [size]
    starts = []

    def generators(rng, context, start, count):
        starts.append(start)
        return stream_generators(rng, context, start, count)

    def group_with_constant_column(specs, n, generators, count):
        x = generate_group(specs, n, generators, count)
        if 0 <= bad - starts[-1] < count:
            x[bad - starts[-1], :, 1] = 2.0
        return x

    monkeypatch.setattr(montecarlo, "stream_generators", generators)
    monkeypatch.setattr(montecarlo, "generate_group", group_with_constant_column)
    with pytest.raises(DegenerateSampleError) as info:
        calibrate((Z2HL, KURT), 20, 2, 4096, rng)
    assert f"r={bad} of seed=5, path=(2,), context={montecarlo.CALIBRATION_CONTEXT}" in str(
        info.value
    )
    assert info.value.__cause__.item == bad - size
    assert starts == [0, size]


def _power_table_jobs(p, n, reps):
    """The jobs ``power_study`` runs at one sample size, for every alternative."""
    return montecarlo._study_jobs([alternative(name, p) for name in ALL_ALTERNATIVE_NAMES],
                                  ALL_STATISTICS, (n,), p, 0.05, reps, 1000, RngStream(5))


@pytest.mark.parametrize("n", [20, 50])
def test_power_table_has_ten_draw_groups(n):
    jobs = _power_table_jobs(2, n, 1000)
    groups = [[jobs[i].spec.name for i in group] for group in montecarlo._draw_groups(jobs)]
    assert groups == [
        ["normal"],  # the calibration draws from its own stream
        ["indep_exp"],
        ["logn_2", "logn_1", "logn_05"],
        ["laplace1", "beta11"],
        ["laplace2"],
        ["beta12"],
        ["beta22", "chisq8"],
        ["chisq2"],
        ["t2"],
        ["al0_r0", "al1_r0", "al3_r0", "al1_r05", "al1_r09"],
        [name for name, *_ in alternatives._MIXTURES],
    ]


def test_power_study_draws_each_group_range_once(monkeypatch):
    # One raw draw per draw group and replication range: chunks of 4096 at
    # n = 20 give the 10 mixtures ranges of 410 replications (3 for 1000),
    # the 5 AL rows ranges of 820 (2) and every other group one range.
    draws = []

    def counted(generators, count, runs):
        draws.append(count)
        return raw_draws(generators, count, runs)

    raw_draws = alternatives._raw_draws
    monkeypatch.setattr(alternatives, "_raw_draws", counted)
    statistics = (Z2HL, KURT)
    reports = list(power_study(
        [alternative(name, 2) for name in ALL_ALTERNATIVE_NAMES], statistics, (20,), 2, 0.05,
        1000, 1000, RngStream(6),
    ))
    assert len(reports) == 27
    assert len(draws) == 14
    assert sum(draws) == 1000 + 10 * 1000  # not 1000 + 27 * 1000
    assert sorted(draws)[:2] == [180, 180]  # the ragged last ranges of the mixtures and AL rows


@pytest.mark.parametrize("workers", [1, 2])
def test_power_study_with_a_repeated_sample_size(workers):
    # A repeated n puts both calibrations, and both jobs of each alternative,
    # in one draw group; each report is still the one-job runs' report.
    rng, statistics, sizes = RngStream(23), (Z2HL, KURT), (20, 50, 20)
    alts = [alternative("indep_exp", 2), alternative("chisq2", 2)]
    calibrations = [montecarlo._calibration_job(statistics, n, 2, 1000, rng.child(0, n))
                    for n in sizes]
    assert [len(group) for group in montecarlo._draw_groups(calibrations)] == [2, 1]
    reports = list(power_study(alts, statistics, sizes, 2, 0.05, 100, 1000, rng, workers=workers))
    assert [(r.alternative, r.n) for r in reports] == [
        (alt.name, n) for n in sizes for alt in alts
    ]
    assert reports[4:] == reports[:2]
    tables = {n: calibrate(statistics, n, 2, 1000, rng.child(0, n)) for n in sizes}
    for report, (n, alt) in zip(reports, product(sizes, alts)):
        assert report == power(alt, statistics, n, 2, 0.05, 100, tables[n], rng.child(1, n))


@pytest.mark.parametrize("workers", [1, 2])
def test_failing_replication_of_a_draw_group_is_named(monkeypatch, workers):
    # Replication 850 of mix75_m1_r05, the 9th of the 10 mixtures, is row
    # 8 * 180 + 30 of the last group task (replications 820 .. 999).
    rng, bad, name = RngStream(5, (2,)), 850, "mix75_m1_r05"
    stream = rng.child(1, 20)
    failing = []
    fork_pools(monkeypatch)
    monkeypatch.setattr(montecarlo, "generate_group", constant_column_sampler(
        stream.child(montecarlo.POWER_CONTEXT, bad).generator(), failing, name
    ))
    mixtures = [alternative(mix, 2) for mix, *_ in alternatives._MIXTURES]
    with pytest.raises(DegenerateSampleError) as info:
        list(power_study(mixtures, (Z2HL, KURT), (20,), 2, 0.05, 1000, 1000, rng,
                         workers=workers))
    message = str(info.value)
    assert (
        f"alternative {name} at n=20, replication r={bad} of seed=5, path=(2, 1, 20), "
        f"context={montecarlo.POWER_CONTEXT}; generate(alternative('{name}', 2), 20, "
        f"RngStream(5, (2, 1, 20)).child({montecarlo.POWER_CONTEXT}, {bad})) replays it"
    ) in message
    replay = generate(alternative(name, 2), 20,
                      RngStream(5, (2, 1, 20)).child(montecarlo.POWER_CONTEXT, bad))
    if workers == 1:  # a pool worker's cause and list stay in the worker
        assert info.value.__cause__.item == 8 * 180 + 30
        assert len(failing) == 1
        assert_array_equal(replay, failing[0])
    replay[:, 1] = 2.0
    with pytest.raises(DegenerateSampleError):
        compute_statistics(replay)


@pytest.mark.parametrize("statistic", [Z2HL, Z2W])
@pytest.mark.parametrize("reps", [1000, 777])
def test_rejection_counts_equal_the_mean_of_pvalues_at_most_alpha(statistic, reps):
    rng = np.random.default_rng(reps)
    values = np.sort(rng.integers(0, 60, reps).astype(float))  # many ties
    table = NullTable(statistic=statistic, n=20, p=2, replications=reps, seed=0, stream=(),
                      values=values, created_at="t")
    observed = np.concatenate([rng.integers(-5, 65, 500).astype(float), values,
                               [np.inf, -np.inf, np.nan]])
    alphas = [0.05, 0.1, 0.01, 0.5, 1.0 / (reps + 1), 0.999 / (reps + 1), 0.3 / reps,
              reps / (reps + 1), (reps - 0.5) / (reps + 1)]  # k = R and k = R - 1
    assert critical_count(table, alphas[-2]) == reps
    assert critical_count(table, alphas[-1]) == reps - 1
    for alpha in alphas:
        k = critical_count(table, alpha)
        # ties at the critical value: observed values equal to the null value
        # that holds the critical rank, on either side of the decision
        cut = values[min(reps - k, reps - 1)] if statistic.tail == "upper" else values[max(k - 1, 0)]
        sample = np.concatenate([observed, [cut, cut, np.nextafter(cut, np.inf)]])
        expected = float(np.mean(empirical_pvalues(sample, table) <= alpha))
        assert rejections(sample, table, k) / len(sample) == expected, alpha
    assert critical_count(table, 0.999 / (reps + 1)) == 0
    assert critical_count(table, 1.0 / (reps + 1)) == 1


def test_power_counts_rejections_without_searching_the_tables(small_tables, monkeypatch):
    from cancornorm import stats

    def searched(*args):
        raise AssertionError("a table was searched")

    spec = alternative("laplace2", 2)
    report = power(spec, ALL_STATISTICS, 20, 2, 0.05, 300, small_tables, RngStream(17))
    monkeypatch.setattr(stats, "_extreme_counts", searched)
    again = power(spec, ALL_STATISTICS, 20, 2, 0.05, 300, small_tables, RngStream(17))
    assert again == report


@pytest.mark.parametrize("workers", [1, 2])
def test_power_counts_equal_the_pvalues_of_each_replication(small_tables, workers):
    # The oracle never calls ``rejections``: each replication is sampled and
    # evaluated on its own and read against the tables as ``test`` reads data.
    spec, reps, alpha, rng = alternative("indep_exp", 2), 60, 0.1, RngStream(18)
    report = power(spec, ALL_STATISTICS, 20, 2, alpha, reps, small_tables, rng,
                   workers=workers)
    expected = dict.fromkeys(ALL_STATISTICS, 0)
    for r in range(reps):
        values = compute_statistics(generate(spec, 20, rng.child(montecarlo.POWER_CONTEXT, r)))
        for sid in ALL_STATISTICS:
            expected[sid] += int(empirical_pvalues(values[sid], small_tables[sid])[0] <= alpha)
    assert {cell.statistic: round(cell.power * reps) for cell in report.cells} == expected
    assert 0 < sum(expected.values()) < 12 * reps


def test_chunk_values_are_one_array_in_statistics_order():
    statistics = (KURT, Z2W, StatisticId.parse("z3_hl"), Z2HL)
    rng, names = RngStream(19), ["logn_2", "logn_1", "logn_05"]
    jobs = tuple(montecarlo._power_job(alternative(name, 2), 20, 2, 0.05, 100, rng)
                 for name in names)
    values = montecarlo._chunk_values(statistics, (jobs, 30, 7))
    assert values.shape == (4, 3 * 7) and values.flags.c_contiguous
    generators = stream_generators(rng, montecarlo.POWER_CONTEXT, 30, 7)
    expected = evaluate_batch(generate_group([job.spec for job in jobs], 20, generators, 7),
                              statistics)
    for row, sid in zip(values, statistics):
        assert_array_equal(row, expected[sid])


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


def test_power_and_run_test_reject_a_table_with_one_message(small_tables):
    # one check decides whether a table serves (statistic, n, p), whichever
    # entry point reads the table
    table = small_tables[Z2HL]
    cases = [(Z2HL, 25), (Z2W, 20)]  # wrong (n, p); wrong statistic
    for sid, n in cases:
        x = generate(alternative("normal", 2), n, RngStream(16))
        with pytest.raises(TableMismatchError) as tested:
            run_test(x, sid, table)
        with pytest.raises(TableMismatchError) as simulated:
            power(alternative("normal", 2), (sid,), n, 2, 0.05, 100,
                  {sid: table}, RngStream(16))
        assert str(simulated.value) == str(tested.value)


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


@pytest.mark.parametrize(
    "name", [name for name in available_alternatives() if name != "t2"]
)
def test_population_values_match_scalar_oracle(name):
    # the scalar covblocks loops on the same moment table, and the Mardia
    # values as contractions with the inverse covariance
    for p in (2, 3):
        spec = alternative(name, p)
        m = population_moments(spec, 6)

        def tensor(order):
            idx = product(range(p), repeat=order)
            return np.array([m.mu(*i) for i in idx]).reshape((p,) * order)

        w = np.linalg.inv(tensor(2))
        cancor = {"z2": cancor_sq(lambda_blocks(m, None)), "z3": cancor_sq(psi_blocks(m, None))}
        expected = {
            StatisticId.parse("mardia_skew"):
                np.einsum("ijk,ir,js,kt,rst->", tensor(3), w, w, w, tensor(3)),
            KURT: np.einsum("ijkl,ij,kl->", tensor(4), w, w),
        }
        for sid in ALL_STATISTICS:
            if sid.family in cancor:
                expected[sid] = functional_value(cancor[sid.family], sid.functional)
        got = population_values(spec)
        for sid in ALL_STATISTICS:
            assert abs(got[sid] - expected[sid]) <= 1e-10, (name, p, sid.name)


def test_population_values_load_no_scipy():
    code = (
        "import sys; from cancornorm.alternatives import alternative; "
        "from cancornorm.alternatives import population_values; "
        "assert all(len(population_values(alternative(name, 3))) == 12 "
        "for name in ('beta22', 'mix75_m2_r05')); "
        "print([m for m in sys.modules if m.startswith('scipy')])"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert proc.stdout.strip() == "[]"


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


# The first three sorted values of each statistic of
# calibrate(ALL_STATISTICS, n, p, 1000, RngStream(29)), as committed.
ENGINE_VALUES = {
    (20, 2): {
        "mardia_skew": (0.011530031711682973, 0.014066787327501573, 0.02532986067430744),
        "mardia_kurt": (4.338716538899957, 4.633198818549113, 4.665201961220569),
        "z2_hl": (0.012803173592677936, 0.02217828625801417, 0.022857825345765612),
        "z2_w": (0.10990481402764539, 0.13554471277609964, 0.1624187773435147),
        "z2_pb": (0.012893575997329088, 0.022545445787052743, 0.023261163782607213),
        "z2_max": (0.008371698264483678, 0.01861082943567024, 0.018657477368160223),
        "z2_min": (0.00016686040812643717, 0.0005773332215182215, 0.0008284742085288214),
        "z3_hl": (0.05515701138276455, 0.07187752186731358, 0.089158276676661),
        "z3_w": (0.05519418077344692, 0.05920496426767983, 0.05961554515568716),
        "z3_pb": (0.056971564315671186, 0.07486326090426888, 0.0938444652680582),
        "z3_max": (0.03830455530136895, 0.04765126431809984, 0.059724244880243686),
        "z3_min": (0.0032650335768393893, 0.0036633233196466386, 0.004817002252691202),
    },
    (50, 3): {
        "mardia_skew": (0.0919233128281973, 0.18798302585001908, 0.2061916667917397),
        "mardia_kurt": (11.1859159259109, 11.304347469725244, 11.327095627230833),
        "z2_hl": (0.07805982562704757, 0.1037596830858359, 0.13675852723424411),
        "z2_w": (0.2186148385294492, 0.23748990855179122, 0.24175199127900557),
        "z2_pb": (0.08222314419098811, 0.1112320637523624, 0.1441796811396598),
        "z2_max": (0.06091654001200038, 0.06213405700990536, 0.0810974853954316),
        "z2_min": (0.003006548167614826, 0.0031033745918610475, 0.004245871722431439),
        "z3_hl": (0.4146002476010876, 0.4924494015628919, 0.5116411947161326),
        "z3_w": (0.03077213383638447, 0.037379314343091226, 0.03769617829080715),
        "z3_pb": (0.49066983599121006, 0.5989327148046161, 0.6573139289490615),
        "z3_max": (0.18184611938403256, 0.2075424489784336, 0.230685610808492),
        "z3_min": (0.029726192334134822, 0.030012130922285427, 0.03722183955104923),
    },
}


@pytest.mark.parametrize("n, p", list(ENGINE_VALUES))
def test_engine_values_are_pinned(n, p):
    # The sampler's variates are pinned bit for bit in test_alternatives.py;
    # the engine's arithmetic may round differently under another BLAS build,
    # so its values are held to 1e-12 relative, not to the bit.
    tables = calibrate(ALL_STATISTICS, n, p, 1000, RngStream(29))
    for sid in ALL_STATISTICS:
        assert_allclose(
            tables[sid].values[:3], ENGINE_VALUES[n, p][sid.name], rtol=1e-12, atol=0,
            err_msg=f"{sid.name} at (n={n}, p={p}) moved under numpy {np.__version__}",
        )
