import gc
import multiprocessing
import os
import platform
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from itertools import product
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from cancornorm import montecarlo
from cancornorm.alternatives import (
    RngStream,
    alternative,
    available_alternatives,
    generate,
    generate_chunk,
    population_moments,
    population_value,
    population_values,
    stream_generators,
)
from cancornorm.covblocks import cancor_sq, lambda_blocks, psi_blocks
from cancornorm.engine import _plan, _z3_term_map
from cancornorm.errors import DegenerateSampleError, SampleSizeError, TableMismatchError
from cancornorm.montecarlo import (
    MissingTableError,
    NullTable,
    calibrate,
    empirical_pvalues,
    power,
    power_study,
)
from cancornorm.stats import ALL_STATISTICS, StatisticId, compute_statistics, run_test

from covblocks_oracle import functional_value

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


@pytest.fixture()
def no_sampling(monkeypatch):
    """Fails the test if any chunk is sampled."""

    def sample(*args):
        raise AssertionError("a chunk was sampled")

    monkeypatch.setattr(montecarlo, "generate_chunk", sample)


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
        def __init__(self, max_workers, initializer):
            built.append(max_workers)
            initializers.append(initializer)
            super().__init__(max_workers=max_workers, initializer=initializer)

    monkeypatch.setattr(montecarlo, "ProcessPoolExecutor", CountingPool)
    yield built
    assert all(init is montecarlo._start_worker for init in initializers)


def test_each_parallel_run_owns_its_pool(fresh_pool, small_tables, monkeypatch):
    # Every parallel calibrate, power and power_study builds one pool and
    # leaves no worker behind, whether it returns, raises on a worker,
    # loses a worker, or is closed by its caller.
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
            m.setattr(montecarlo, "generate_chunk",
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
    montecarlo._chunk_values(ALL_STATISTICS, (job, start, 256))
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


def constant_column_sampler(target, failing):
    """A ``generate_chunk`` that gives the replication drawn by the
    generator ``target`` a constant column, appending that sample to
    ``failing``."""
    target_key = target.bit_generator.state["state"]["key"]

    def chunk_with_constant_column(spec, n, generators, count):
        hits = []

        def watched():
            for i, g in enumerate(generators):
                if np.array_equal(g.bit_generator.state["state"]["key"], target_key):
                    hits.append(i)
                yield g

        x = generate_chunk(spec, n, watched(), count)
        for i in hits:
            x[i, :, 1] = 2.0
            failing.append(x[i])
        return x

    return chunk_with_constant_column


def test_failing_replication_is_named_by_its_stream(monkeypatch):
    # One replication of the second chunk gets a constant column; the run
    # still aborts, with the coordinates that replay that replication.
    rng, bad = RngStream(5, (2,)), 300
    failing = []
    chunk_with_constant_column = constant_column_sampler(
        rng.child(montecarlo.CALIBRATION_CONTEXT, bad).generator(), failing
    )
    monkeypatch.setattr(montecarlo, "generate_chunk", chunk_with_constant_column)
    with pytest.raises(DegenerateSampleError) as info:
        calibrate((Z2HL, KURT), 20, 2, 1000, rng)
    message = str(info.value)
    assert f"r={bad} of seed=5, path=(2,), context={montecarlo.CALIBRATION_CONTEXT}" in message
    assert info.value.__cause__.item == bad - montecarlo.CHUNK
    replay_stream = RngStream(5, (2,)).child(montecarlo.CALIBRATION_CONTEXT, bad)
    replay = chunk_with_constant_column(
        alternative("normal", 2), 20, [replay_stream.generator()], 1
    )[0]
    assert len(failing) == 2
    assert_array_equal(replay, failing[0])
    with pytest.raises(DegenerateSampleError):
        compute_statistics(replay)


def _job(n, p, reps):
    return montecarlo.SimulationJob(alternative("normal", p), n, RngStream(0), 0, reps)


def test_chunk_sizes_follow_working_set_and_workers():
    # 8 n (p^2 + q3) bytes of pair and triple products per replication
    jobs = [_job(20, 2, 4096), _job(50, 2, 4096), _job(50, 3, 4096), _job(100, 6, 4096)]
    assert montecarlo._chunk_sizes(jobs, 1) == [1024, 512, 256, 256]
    assert montecarlo._chunk_sizes(jobs, 2) == [1024, 512, 256, 256]
    # fewer than 4 chunks per worker: every job falls back to CHUNK
    assert montecarlo._chunk_sizes(jobs[:1], 1) == [1024]
    assert montecarlo._chunk_sizes(jobs[:1], 2) == [256]
    pair = [_job(20, 2, 1000), _job(50, 2, 1500)]  # 1 + 3 chunks
    assert montecarlo._chunk_sizes(pair, 1) == [1024, 512]
    assert montecarlo._chunk_sizes(pair, 2) == [256, 256]
    # the power table of the paper: 28 jobs of 1000 replications at each of n = 20, 50
    study = [_job(20, 2, 1000)] * 28 + [_job(50, 2, 1000)] * 28
    assert montecarlo._chunk_sizes(study, 2) == [1024] * 28 + [512] * 28


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
    monkeypatch.setattr(montecarlo, "_chunk_sizes", lambda jobs, workers: [size] * len(jobs))
    for workers in (1, 2):
        again = calibrate(statistics, 25, 3, 1100, RngStream(40), workers=workers)
        for sid in statistics:
            assert_array_equal(again[sid].values, null[sid].values)
        assert list(power_study(**study, workers=workers)) == reports


def test_failing_replication_in_a_large_chunk_is_named(monkeypatch):
    # Under the default rule this run has chunks of 4 * CHUNK replications;
    # replication 1300 is item 276 of the second one.
    rng, bad, size = RngStream(5, (2,)), 1300, 4 * montecarlo.CHUNK
    assert montecarlo._chunk_sizes([_job(20, 2, 4096)], 1) == [size]
    starts = []

    def generators(rng, context, start, count):
        starts.append(start)
        return stream_generators(rng, context, start, count)

    def chunk_with_constant_column(spec, n, generators, count):
        x = generate_chunk(spec, n, generators, count)
        if 0 <= bad - starts[-1] < count:
            x[bad - starts[-1], :, 1] = 2.0
        return x

    monkeypatch.setattr(montecarlo, "stream_generators", generators)
    monkeypatch.setattr(montecarlo, "generate_chunk", chunk_with_constant_column)
    with pytest.raises(DegenerateSampleError) as info:
        calibrate((Z2HL, KURT), 20, 2, 4096, rng)
    assert f"r={bad} of seed=5, path=(2,), context={montecarlo.CALIBRATION_CONTEXT}" in str(
        info.value
    )
    assert info.value.__cause__.item == bad - size
    assert starts == [0, size]


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
