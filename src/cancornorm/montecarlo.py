"""Null-distribution calibration, empirical-p-value testing, power studies
and population values.

Affine invariance means the null distribution of every statistic depends
only on (n, p), so a single table of simulated values under the standard
normal serves all normal distributions of that shape.  Replications are
split into fixed-size chunks keyed by replication index, each replication
drawing from its own counter-derived random stream; results are therefore
bit-identical for any worker count.

A chunk computes the Philox keys of all its replications in one vectorized
pass (``alternatives.stream_keys``) and re-keys a single generator before
each one, drawing exactly what ``RngStream.child(context, r).generator()``
would; ``alternatives.generate_chunk`` samples the whole chunk at once.

A simulation is a ``SimulationJob``: one alternative at one sample size over
a number of replications.  ``calibrate`` and ``power`` run one job each;
``power_study`` runs a whole power table (the calibration and every
alternative, at each sample size) as one list of jobs.  Either way the
chunks of all the jobs go through one map, in one process pool per process,
so workers never wait at a barrier between jobs; each job's values are
handed back, in job order, as soon as its last chunk is done, and the caller
reduces them (to sorted null tables or a power report) and drops them.  The
pool is created by the first parallel run and reused by every later run with
the same worker count; a different count replaces it, a broken pool is
dropped and rebuilt on the next run, and interpreter exit shuts it down.
"""

from __future__ import annotations

import os
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from functools import partial
from itertools import islice, product
from math import sqrt
from typing import NamedTuple

import numpy as np

from .alternatives import (
    AlternativeSpec,
    RngStream,
    alternative,
    generate_chunk,
    population_moments,
    stream_generators,
)
from .covblocks import second_order_threshold, third_order_threshold
from .engine import ALL_STATISTICS, _z3_term_map, evaluate_batch, evaluate_population
from .errors import BatchItemError, SampleSizeError
from .moments import as_sample
from .stats import StatisticId, TestResult, compute_statistic

MIN_REPLICATIONS = 1000
CHUNK = 256  # replications per work unit; fixed so grouping never affects results

# Stream contexts keep calibration draws independent of power-study draws
# under the same root seed.
CALIBRATION_CONTEXT = 0
POWER_CONTEXT = 1


class TableMismatchError(ValueError):
    """A null table does not match the statistic or sample shape it is used for."""


class MissingTableError(ValueError):
    """No null table is available for a requested (statistic, n, p)."""


@dataclass(frozen=True)
class NullTable:
    """Empirical null distribution of one statistic at a given (n, p)."""

    statistic: StatisticId
    n: int
    p: int
    replications: int
    seed: int
    stream: tuple[int, ...]
    values: np.ndarray
    created_at: str

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != (self.replications,):
            raise ValueError("null table length disagrees with replication count")
        if np.any(v[:-1] > v[1:]):
            raise ValueError("null table values must be sorted ascending")
        object.__setattr__(self, "values", v)


@dataclass(frozen=True)
class PowerCell:
    statistic: StatisticId
    power: float
    se: float
    replications: int


@dataclass(frozen=True)
class PowerReport:
    alternative: str
    n: int
    p: int
    alpha: float
    cells: tuple[PowerCell, ...]

    def cell(self, statistic: StatisticId) -> PowerCell:
        for c in self.cells:
            if c.statistic == statistic:
                return c
        raise KeyError(f"no cell for {statistic}")


def required_sample_size(statistic: StatisticId, p: int) -> int:
    if statistic.family == "z2":
        return second_order_threshold(p)
    if statistic.family == "z3":
        return third_order_threshold(p)
    return p + 1  # classical statistics only need a nonsingular covariance


def timestamp() -> str:
    """ISO timestamp; honors SOURCE_DATE_EPOCH for reproducible outputs."""
    epoch = os.environ.get("SOURCE_DATE_EPOCH")
    t = int(epoch) if epoch else time.time()
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime(t))


class SimulationJob(NamedTuple):
    """Replications 0 .. reps - 1 of ``spec`` at sample size n, replication r
    drawn from ``rng.child(context, r)``."""

    spec: AlternativeSpec
    n: int
    rng: RngStream
    context: int
    reps: int


def _chunk_values(statistics, task: tuple[SimulationJob, int]):
    """Statistic values of replications start .. start + CHUNK - 1 of a job
    (fewer at its end), for a task (job, start).

    A numerical check that fails on one replication is re-raised with the
    stream coordinates that reproduce its sample.
    """
    (spec, n, rng, context, reps), start = task
    count = min(CHUNK, reps - start)
    samples = generate_chunk(spec, n, stream_generators(rng, context, start, count), count)
    try:
        return evaluate_batch(samples, statistics)
    except BatchItemError as exc:
        if exc.item is None:
            raise
        r = start + exc.item
        raise type(exc)(
            f"{exc}: replication r={r} of seed={rng.seed}, path={rng.path}, "
            f"context={context}; RngStream({rng.seed}, {rng.path}).child({context}, {r}) "
            "replays it"
        ) from exc


# The process's one worker pool and its worker count (see the module docstring);
# the lock keeps a thread from replacing the pool while another one uses it.
_pool: ProcessPoolExecutor | None = None
_pool_workers = 0
_pool_lock = threading.Lock()


def _worker_pool(workers: int) -> ProcessPoolExecutor:
    global _pool, _pool_workers
    if _pool is not None and _pool_workers != workers:
        _pool.shutdown()
        _pool = None
    if _pool is None:
        _pool = ProcessPoolExecutor(max_workers=workers)
        _pool_workers = workers
    return _pool


def _simulate(jobs, statistics, workers):
    """Yield the statistic values of each job, in job order, as soon as its
    last chunk is done.

    Every chunk of every job goes through one map, so workers go on to the
    next job's chunks while the caller reduces the finished one.
    """
    global _pool
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    jobs = list(jobs)
    tasks = [(job, start) for job in jobs for start in range(0, job.reps, CHUNK)]
    chunk = partial(_chunk_values, statistics)
    if any(sid.family == "z3" for sid in statistics):
        # Built here, before a new pool forks, so that its workers inherit
        # the per-p term maps; workers of an older pool build them themselves.
        for p in {job.spec.p for job in jobs}:
            _z3_term_map(p)
    if workers > 1 and len(tasks) > 1:
        with _pool_lock:
            try:
                yield from _by_job(jobs, _worker_pool(workers).map(chunk, tasks), statistics)
            except BrokenProcessPool:
                _pool = None
                raise
    else:
        yield from _by_job(jobs, map(chunk, tasks), statistics)


def _by_job(jobs, chunks, statistics):
    """Regroup the chunk results of ``jobs``, in task order, into one array
    per statistic and job."""
    chunks = iter(chunks)
    for job in jobs:
        parts = list(islice(chunks, len(range(0, job.reps, CHUNK))))
        yield {sid: np.concatenate([c[sid] for c in parts]) for sid in statistics}


def _calibration_job(statistics, n: int, p: int, replications: int, rng: RngStream):
    """The null simulation behind ``calibrate``, once its inputs are checked."""
    spec = alternative("normal", p)
    if replications < MIN_REPLICATIONS:
        raise ValueError(f"replications must be >= {MIN_REPLICATIONS}, got {replications}")
    for sid in statistics:
        need = required_sample_size(sid, p)
        if n < need:
            raise SampleSizeError(f"{sid.name} needs n >= {need} for p={p}, got n={n}")
    return SimulationJob(spec, n, rng, CALIBRATION_CONTEXT, replications)


def _null_tables(statistics, job: SimulationJob, values, created: str):
    return {
        sid: NullTable(
            statistic=sid,
            n=job.n,
            p=job.spec.p,
            replications=job.reps,
            seed=job.rng.seed,
            stream=job.rng.path,
            values=np.sort(values[sid]),
            created_at=created,
        )
        for sid in statistics
    }


def calibrate(
    statistics,
    n: int,
    p: int,
    replications: int,
    rng: RngStream,
    workers: int = 1,
) -> dict[StatisticId, NullTable]:
    """Simulate the null distribution of each statistic under normality.

    All statistics are evaluated on the same simulated samples, one
    evaluation per replication, and the sorted values are returned as one
    table per statistic.
    """
    statistics = tuple(statistics)
    job = _calibration_job(statistics, n, p, replications, rng)
    created = timestamp()
    (values,) = _simulate([job], statistics, workers)
    return _null_tables(statistics, job, values, created)


def empirical_pvalues(observed, table: NullTable) -> np.ndarray:
    """Monte Carlo p-values with the +1 correction, per the statistic's tail."""
    observed = np.atleast_1d(np.asarray(observed, dtype=float))
    v = table.values
    r = table.replications
    count_ge = r - np.searchsorted(v, observed, side="left")
    count_le = np.searchsorted(v, observed, side="right")
    upper = (count_ge + 1.0) / (r + 1.0)
    lower = (count_le + 1.0) / (r + 1.0)
    tail = table.statistic.tail
    if tail == "upper":
        return upper
    if tail == "lower":
        return lower
    return np.minimum(1.0, 2.0 * np.minimum(upper, lower))


def _test_result(
    statistic: StatisticId, value: float, table: NullTable, shape: tuple[int, int], alpha: float
) -> TestResult:
    """Check alpha and the table against the statistic and the (n, p) of the
    data, then turn an observed value into a test decision."""
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must be in (0, 1)")
    if table.statistic != statistic:
        raise TableMismatchError(
            f"table holds {table.statistic.name}, not {statistic.name}"
        )
    n, p = shape
    if (n, p) != (table.n, table.p):
        raise TableMismatchError(
            f"table was calibrated for (n={table.n}, p={table.p}) but the data "
            f"is (n={n}, p={p}); tables are not interpolated"
        )
    p_value = float(empirical_pvalues(value, table)[0])
    return TestResult(
        statistic=statistic, value=value, p_value=p_value, alpha=alpha,
        reject=bool(p_value <= alpha),
    )


def run_test(x, statistic: StatisticId, table: NullTable, alpha: float = 0.05) -> TestResult:
    """Test one dataset against a calibrated null table.

    Each call evaluates the statistic's whole family, so looping over the
    twelve statistics re-evaluates each family (about 7x the work of one
    evaluation, the traced ``run_test_redundancy``).  To test several
    statistics on one dataset, evaluate them with one ``compute_statistics``
    call and take each p-value from ``empirical_pvalues`` instead.
    """
    s = as_sample(x)
    return _test_result(statistic, compute_statistic(s, statistic), table, (s.n, s.p), alpha)


def _power_job(alt: AlternativeSpec, n: int, p: int, alpha: float, reps: int, rng: RngStream):
    """The simulation behind ``power``, once its inputs are checked."""
    if alt.p != p:
        raise ValueError(f"alternative has p={alt.p}, requested p={p}")
    if reps < 1:
        raise ValueError(f"reps must be >= 1, got {reps}")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    return SimulationJob(alt, n, rng, POWER_CONTEXT, reps)


def _power_report(statistics, job: SimulationJob, alpha: float, tables, values) -> PowerReport:
    cells = []
    for sid in statistics:
        pvals = empirical_pvalues(values[sid], tables[sid])
        est = float(np.mean(pvals <= alpha))
        cells.append(
            PowerCell(
                statistic=sid,
                power=est,
                se=sqrt(est * (1.0 - est) / job.reps),
                replications=job.reps,
            )
        )
    return PowerReport(
        alternative=job.spec.name, n=job.n, p=job.spec.p, alpha=alpha, cells=tuple(cells)
    )


def power(
    alt: AlternativeSpec,
    statistics,
    n: int,
    p: int,
    alpha: float,
    reps: int,
    tables: dict[StatisticId, NullTable],
    rng: RngStream,
    workers: int = 1,
) -> PowerReport:
    """Rejection rates of the tests against one alternative.

    All statistics are evaluated on shared samples, so the power estimates
    are positively correlated across statistics, matching the common-sample
    protocol of the study this harness reproduces at desk scale.
    """
    statistics = tuple(statistics)
    job = _power_job(alt, n, p, alpha, reps, rng)
    for sid in statistics:
        if sid not in tables:
            raise MissingTableError(f"no null table for {sid.name} at (n={n}, p={p})")
        t = tables[sid]
        if (t.n, t.p) != (n, p) or t.statistic != sid:
            raise TableMismatchError(
                f"table for {sid.name} was calibrated for (n={t.n}, p={t.p}), need (n={n}, p={p})"
            )
    (values,) = _simulate([job], statistics, workers)
    return _power_report(statistics, job, alpha, tables, values)


def power_study(
    alternatives,
    statistics,
    sizes,
    p: int,
    alpha: float,
    reps: int,
    calibration_reps: int,
    rng: RngStream,
    workers: int = 1,
):
    """Yield the power report of every alternative at every sample size, in
    that order (n outer), from one simulation run.

    At each n the null tables are calibrated on ``rng.child(0, n)`` and the
    alternatives are simulated on ``rng.child(1, n)``, so each report equals
    ``power(alt, statistics, n, p, alpha, reps, tables, rng.child(1, n))``
    with the tables of ``calibrate(statistics, n, p, calibration_reps,
    rng.child(0, n))``.  Every job is checked before the first chunk runs;
    each is reduced, to null tables or to a report, as soon as it completes,
    and its values are then dropped.
    """
    statistics = tuple(statistics)
    jobs = []
    for n in sizes:
        jobs.append(_calibration_job(statistics, n, p, calibration_reps, rng.child(0, n)))
        jobs += [_power_job(alt, n, p, alpha, reps, rng.child(1, n)) for alt in alternatives]
    created = timestamp()
    for job, values in zip(jobs, _simulate(jobs, statistics, workers), strict=True):
        if job.context == CALIBRATION_CONTEXT:
            tables = _null_tables(statistics, job, values, created)
        else:
            yield _power_report(statistics, job, alpha, tables, values)


def population_values(alt: AlternativeSpec, statistics=ALL_STATISTICS) -> dict[StatisticId, float]:
    """Large-n limits of a set of statistics under one alternative.

    One population moment table serves every family: it is expanded into
    dense moment tensors (orders 2, 3, 4, and 6 when a z3 statistic is
    asked for), and ``engine.evaluate_population`` whitens them by the
    Cholesky factor of the covariance and evaluates every family once, the
    canonical-correlation families through the same block builder as
    samples, in its n -> infinity form (the common 1/n scale cancels in the
    eigenproblem and the O(1/n) corrections vanish).
    """
    statistics = tuple(statistics)
    orders = (2, 3, 4, 6) if any(sid.family == "z3" for sid in statistics) else (2, 3, 4)
    m = population_moments(alt, orders[-1])
    tensors = [
        np.array([m.mu(*i) for i in product(range(alt.p), repeat=order)]).reshape((alt.p,) * order)
        for order in orders
    ]
    return evaluate_population(*tensors, statistics=statistics)


def population_value(alt: AlternativeSpec, statistic: StatisticId) -> float:
    """Large-n limit of one statistic under one alternative."""
    return population_values(alt, (statistic,))[statistic]
