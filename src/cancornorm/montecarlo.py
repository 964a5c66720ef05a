"""Null-distribution calibration, empirical-p-value testing and power studies.

Affine invariance means the null distribution of every statistic depends
only on (n, p), so a single table of simulated values under the standard
normal serves all normal distributions of that shape.  Replications are
split into chunks keyed by replication index, each replication drawing from
its own counter-derived random stream, and ``evaluate_batch`` gives the same
bits for any grouping; results are therefore bit-identical for any worker
count and any chunk size.

A chunk holds ``CHUNK * 2**k`` replications, k <= 2: the largest such size
whose distinct pair and triple products, the engine's largest temporaries
at 8 n (C(p+1, 2) + C(p+2, 3)) bytes per replication, fit in
``CHUNK_BUDGET`` bytes at the job's (n, p), so that small problems pay the
fixed cost of sampling and evaluating a chunk fewer times.  When that would
leave a run with fewer than 4 chunks per worker, every chunk holds
``CHUNK`` replications, so that the workers still share the run.  The
choice depends only on (n, p), the replication counts and the worker count.

A chunk computes the Philox keys of all its replications in one vectorized
pass (``alternatives.stream_keys``) and re-keys a single generator before
each one, drawing exactly what ``RngStream.child(context, r).generator()``
would; ``alternatives.generate_chunk`` samples the whole chunk at once.

A simulation is a ``SimulationJob``: one alternative at one sample size over
a number of replications.  ``calibrate`` and ``power`` run one job each;
``power_study`` runs a whole power table (the calibration and every
alternative, at each sample size) as one list of jobs.  Either way the
chunks of all the jobs go through one map, so workers never wait at a
barrier between jobs; each job's values are handed back, in job order, as
soon as its last chunk is done, and the caller reduces them (to sorted null
tables or a power report) and drops them.  A parallel run owns its process
pool: it starts the pool once its per-p plans are built, so every worker
inherits them, and shuts it down, cancelling the chunks not yet started,
however the run ends (done, failed, or closed by its caller), so that no
worker outlives the run.

Each pool worker starts by freezing the objects it inherits from the
parent (``gc.freeze``), so that its garbage collections never walk them and
never copy the pages they share with the parent, and by fixing its C
allocator's thresholds (glibc's ``mallopt``): arrays below
``WORKER_MMAP_THRESHOLD`` come from the heap, and the heap keeps up to
``WORKER_TRIM_THRESHOLD`` bytes of free memory, so the chunks after a
worker's first reuse its pages instead of mapping, faulting in and unmapping
their temporaries again.  The functions here leave the calling process's
garbage collector and allocator as they are (the CLI gives a serial run the
same allocator thresholds), and a platform without ``mallopt`` runs
unchanged.

The result types live with their persistence (``NullTable``, ``PowerCell``
and ``PowerReport`` in ``store``) and the test decision with ``TestResult``
(``check_alpha``, ``check_table``, ``empirical_pvalues`` and ``run_test`` in
``stats``), so that testing a dataset loads neither this module nor
``alternatives``.  The large-n population values live in ``alternatives``,
so that ``popvalues`` loads neither this module nor its worker-pool
machinery.
"""

from __future__ import annotations

import ctypes
import gc
import os
import time
from concurrent.futures import ProcessPoolExecutor
from functools import partial
from itertools import islice
from math import ceil, comb, sqrt
from typing import NamedTuple

import numpy as np

from .alternatives import AlternativeSpec, RngStream, alternative, generate_chunk, stream_generators
from .engine import _plan, evaluate_batch, second_order_threshold, third_order_threshold
from .errors import BatchItemError, MissingTableError, SampleSizeError
from .stats import StatisticId, check_alpha, check_table, empirical_pvalues
from .store import NullTable, PowerCell, PowerReport

MIN_REPLICATIONS = 1000
CHUNK = 256  # replications per chunk at large (n, p); every chunk size is CHUNK * 2**k
CHUNK_BUDGET = 2 * 2**20  # bytes of distinct pair and triple products that allow a larger chunk

# glibc's mallopt parameters, and the values every pool worker sets.  32 MiB is
# the largest mmap threshold glibc accepts on 64-bit systems; setting one
# parameter alone would also freeze the other at its 128 KiB default.
M_TRIM_THRESHOLD = -1
M_MMAP_THRESHOLD = -3
WORKER_MMAP_THRESHOLD = 32 * 2**20
WORKER_TRIM_THRESHOLD = 256 * 2**20

# Stream contexts keep calibration draws independent of power-study draws
# under the same root seed.
CALIBRATION_CONTEXT = 0
POWER_CONTEXT = 1


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


def _chunk_sizes(jobs, workers: int) -> list[int]:
    """Replications per chunk of each job (see the module docstring)."""
    sizes = []
    for job in jobs:
        p = job.spec.p
        rep_bytes = 8 * job.n * (comb(p + 1, 2) + comb(p + 2, 3))  # its pair and triple products
        size = CHUNK
        while size < 4 * CHUNK and 2 * size * rep_bytes <= CHUNK_BUDGET:
            size *= 2
        sizes.append(size)
    if sum(ceil(job.reps / size) for job, size in zip(jobs, sizes)) < 4 * workers:
        return [CHUNK] * len(jobs)
    return sizes


def _chunk_values(statistics, task: tuple[SimulationJob, int, int]):
    """Statistic values of replications start .. start + count - 1 of a job,
    for a task (job, start, count).

    A numerical check that fails on one replication is re-raised with the
    stream coordinates that reproduce its sample.
    """
    (spec, n, rng, context, _), start, count = task
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


def _steady_heap() -> bool:
    """Set the allocator thresholds of the module docstring in this process.
    Returns whether both were set; never raises, so a platform without
    glibc's ``mallopt`` keeps its allocator as it is."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    # mallopt returns 1 on success; a refused mmap threshold leaves the trim
    # threshold unset (see WORKER_MMAP_THRESHOLD).
    return (
        mallopt(M_MMAP_THRESHOLD, WORKER_MMAP_THRESHOLD) == 1
        and mallopt(M_TRIM_THRESHOLD, WORKER_TRIM_THRESHOLD) == 1
    )


def _start_worker() -> None:
    """Pool-worker initializer (see the module docstring)."""
    gc.freeze()
    _steady_heap()


def _simulate(jobs, statistics, workers):
    """Yield the statistic values of each job, in job order, as soon as its
    last chunk is done.

    Every chunk of every job goes through one map, so workers go on to the
    next job's chunks while the caller reduces the finished one.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    jobs = list(jobs)
    job_starts = [range(0, job.reps, size) for job, size in zip(jobs, _chunk_sizes(jobs, workers))]
    tasks = [
        (job, start, min(starts.step, job.reps - start))
        for job, starts in zip(jobs, job_starts)
        for start in starts
    ]
    chunks_per_job = [len(starts) for starts in job_starts]
    chunk = partial(_chunk_values, statistics)
    # Built here, before the pool forks, so that its workers inherit them.
    for p in {job.spec.p for job in jobs}:
        _plan(p)
    if workers > 1 and len(tasks) > 1:
        pool = ProcessPoolExecutor(max_workers=workers, initializer=_start_worker)
        try:
            yield from _by_job(chunks_per_job, pool.map(chunk, tasks), statistics)
        finally:
            pool.shutdown(cancel_futures=True)
    else:
        yield from _by_job(chunks_per_job, map(chunk, tasks), statistics)


def _by_job(chunks_per_job, chunks, statistics):
    """Regroup chunk results, in task order, into one array per statistic
    and job, the jobs having ``chunks_per_job`` chunks each."""
    chunks = iter(chunks)
    for count in chunks_per_job:
        parts = list(islice(chunks, count))
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


def _power_job(alt: AlternativeSpec, n: int, p: int, alpha: float, reps: int, rng: RngStream):
    """The simulation behind ``power``, once its inputs are checked."""
    if alt.p != p:
        raise ValueError(f"alternative has p={alt.p}, requested p={p}")
    if reps < 1:
        raise ValueError(f"reps must be >= 1, got {reps}")
    check_alpha(alpha)
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
        check_table(tables[sid], sid, n, p)
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
