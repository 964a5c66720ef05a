"""Null-distribution calibration, empirical-p-value testing and power studies.

Affine invariance means the null distribution of every statistic depends
only on (n, p), so a single table of simulated values under the standard
normal serves all normal distributions of that shape.  Replications are
split into chunks keyed by replication index, each replication drawing from
its own counter-derived random stream, and ``evaluate_batch`` gives the same
bits for any grouping; results are therefore bit-identical for any worker
count, any chunk size and any grouping of jobs into draw groups.

A chunk holds ``CHUNK * 2**k`` replications, k <= 4: the largest such size
whose distinct moment products (``engine.product_bytes`` per replication:
the pair products, and the triple products when z3 statistics are evaluated)
fill at most four passes of ``engine.PRODUCT_BUDGET`` bytes at the job's
(n, p), so that small problems pay the fixed cost of a chunk (the numpy
calls on small blocks, the stream keys, the sampler set-up, pickling a task
and reducing its values) fewer times.  The engine forms a chunk's products
in passes that each fit the budget, or hold one replication where one alone
exceeds it, and builds its moments and covariance blocks in block passes of
even size that each hold about the same budget of pair Grams and, with z3
statistics, sixth moments (``engine.evaluate_batch``); the chunk size bounds
the number of passes, not the memory of one.  While the rule would leave a
run with fewer than 4 chunks per worker, every chunk size above ``CHUNK`` is
halved, so that the workers still share the run (the rule counts each job's
chunks, before jobs are grouped).  A chunk's samples take 8 n p bytes per
replication, and the engine's centered copy, the buffer that becomes the
whitened data and the raw draws each take as much again.  Where ``CHUNK``
samples would pass four budgets, a chunk holds the largest power of two of
replications, down to 1, whose samples stay within them, so that a run's
memory does not grow with n.  A replication at such n costs far more than a
chunk's fixed cost, so the smaller chunks cost no time.  The choice depends
only on (n, p), the statistics, the replication counts and the worker
count; the README gives the sizes it makes at common shapes.

A chunk computes the Philox keys of all its replications in one vectorized
pass (``alternatives.stream_keys``) and re-keys a single generator before
each one, drawing exactly what ``RngStream.child(context, r).generator()``
would; ``alternatives.generate_group`` samples the whole chunk at once.

A simulation is a ``SimulationJob``: one alternative at one sample size over
a number of replications.  ``calibrate`` and ``power`` run one job each;
``power_study`` runs a whole power table (the calibration and every
alternative, at each sample size) as one list of jobs.  Every alternative of
a power table draws replication r at size n from the same stream (common
random numbers), so jobs that also share context, replications, p and the
Generator calls of a sample (``alternatives.draw_runs``) draw the same raw
variates: they form a draw group, 10 at each n for the 27 alternatives at
p = 2.  A task covers one replication range of a whole group of k jobs,
ceil(chunk / k) replications of each, so that its batch and the values it
sends back stay about one chunk; it re-keys and draws once for the group,
each alternative splits and transforms the raw variates
(``alternatives.generate_group``, whatever the group's size), and one
``evaluate_batch`` call evaluates the stacked samples.

The tasks of all the jobs go through one map, so workers never wait at a
barrier between jobs.  Each task's values come back as one array, a row per
statistic, range by range and in task order, and one loop (``_results``)
reduces them and drops them, whatever the run: a calibration's ranges are
joined and sorted into null tables once its last one is in, and a power
job's rejections are counted range by range, each value compared once with
the null value that holds its table's critical rank
(``stats.critical_count`` and ``stats.rejections``), which gives the
fraction of p-values at most alpha, so a group's values are never held
together.  The loop yields each job's result in job order.  A replication
that fails a numerical check stops the run with an error naming its
alternative, r and the stream coordinates that replay its sample.

A parallel run owns its process pool: it starts the pool once its per-p
plans are built, so every worker inherits them, and shuts it down,
cancelling the tasks not yet started, however the run ends (done, failed,
or closed by its caller), so that no worker outlives the run.

Each pool worker starts by freezing the objects it inherits from the
parent (``gc.freeze``), so that its garbage collections never walk them and
never copy the pages they share with the parent; a worker forked from the
CLI inherits the imports already frozen (``cli.run``), and its own freeze
takes what the parent built since.  It also fixes its C
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
(``check_alpha``, ``check_table``, ``empirical_pvalues``, ``run_tests`` and
``run_test`` in ``stats``), so that testing a dataset loads neither this
module nor ``alternatives``.  The large-n population values live in
``alternatives``, so that ``popvalues`` loads neither this module nor its
worker-pool machinery.
"""

from __future__ import annotations

import ctypes
import gc

# Imported before any pool forks, for its workers to share: a worker's first
# chunk imports numpy.random, which imports secrets and with it hashlib and
# OpenSSL; a worker that loaded them itself would hold its own copy.
import hashlib  # noqa: F401
import os
import time
from concurrent.futures import ProcessPoolExecutor
from functools import partial
from math import ceil, sqrt
from typing import NamedTuple

import numpy as np

from .alternatives import (
    AlternativeSpec,
    RngStream,
    alternative,
    draw_runs,
    generate_group,
    stream_generators,
)
from .engine import (
    PRODUCT_BUDGET,
    _plan,
    check_sample_size,
    evaluate_batch,
    product_bytes,
)
from .errors import BatchItemError, MissingTableError
from .stats import (  # noqa: F401 (empirical_pvalues is re-exported)
    StatisticId,
    check_alpha,
    check_table,
    critical_count,
    empirical_pvalues,
    rejections,
)
from .store import NullTable, PowerCell, PowerReport

MIN_REPLICATIONS = 1000
CHUNK = 256  # replications per chunk at large (n, p); every chunk size is CHUNK * 2**k

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


def timestamp() -> str:
    """ISO timestamp; honors SOURCE_DATE_EPOCH for reproducible outputs.

    A SOURCE_DATE_EPOCH that is set but is not an integer number of seconds
    from 0 (1970-01-01T00:00:00Z) to 253402300799 (9999-12-31T23:59:59Z),
    the range of four-digit years, raises ValueError naming the variable.
    """
    epoch = os.environ.get("SOURCE_DATE_EPOCH")
    try:
        t = int(epoch) if epoch else time.time()
        if not 0 <= t <= 253402300799:
            raise ValueError
        return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime(t))
    except (ValueError, OverflowError):
        raise ValueError(
            "SOURCE_DATE_EPOCH must be an integer number of seconds from 0 to "
            f"253402300799, got {epoch!r}"
        ) from None


class SimulationJob(NamedTuple):
    """Replications 0 .. reps - 1 of ``spec`` at sample size n, replication r
    drawn from ``rng.child(context, r)``."""

    spec: AlternativeSpec
    n: int
    rng: RngStream
    context: int
    reps: int


def _chunk_sizes(jobs, statistics, workers: int) -> list[int]:
    """Replications per chunk of each job: the largest ``CHUNK * 2**k``,
    k <= 4, whose distinct products fill at most four product passes at the
    job's (n, p), or, where ``CHUNK`` samples would pass four budgets, the
    largest power of two of them within that; then, while the run has fewer
    than 4 chunks per worker, every size above ``CHUNK`` is halved (see the
    module docstring)."""
    z3 = any(sid.family == "z3" for sid in statistics)
    sizes = []
    for job in jobs:
        rep_bytes = product_bytes(job.n, job.spec.p, z3)
        size = CHUNK
        while size > 1 and size * job.n * job.spec.p * 8 > 4 * PRODUCT_BUDGET:
            size //= 2
        while size < 16 * CHUNK and 2 * size * rep_bytes <= 4 * PRODUCT_BUDGET:
            size *= 2
        sizes.append(size)
    while (
        sum(ceil(job.reps / size) for job, size in zip(jobs, sizes)) < 4 * workers
        and any(size > CHUNK for size in sizes)
    ):
        sizes = [max(CHUNK, size // 2) for size in sizes]
    return sizes


def _draw_groups(jobs) -> list[list[int]]:
    """The indices of the jobs of each draw group, groups in the order of
    their first job: jobs of one group share stream, context, replications,
    n, p and ``draw_runs``, so each replication draws the same raw
    variates for all of them."""
    groups = {}
    for i, job in enumerate(jobs):
        key = (job.rng, job.context, job.reps, job.n, job.spec.p, draw_runs(job.spec, job.n))
        groups.setdefault(key, []).append(i)
    return list(groups.values())


def _chunk_values(statistics, task: tuple[tuple[SimulationJob, ...], int, int]) -> np.ndarray:
    """Statistic values of replications start .. start + count - 1 of each
    job of a draw group, for a task (jobs, start, count), as one
    C-contiguous (len(statistics), len(jobs) * count) array: row s holds
    statistics[s], those of jobs[j] at j * count .. (j + 1) * count - 1.
    One buffer is what a pool worker pickles and the parent unpickles.

    A numerical check that fails on one replication is re-raised naming its
    alternative and the stream coordinates that reproduce its sample.
    """
    jobs, start, count = task
    _, n, rng, context, _ = jobs[0]
    generators = stream_generators(rng, context, start, count)
    try:
        # passed on unnamed, so that ``evaluate_batch`` frees the samples
        # once it has copied them
        values = evaluate_batch(
            generate_group([job.spec for job in jobs], n, generators, count), statistics
        )
    except BatchItemError as exc:
        if exc.item is None:
            raise
        spec = jobs[exc.item // count].spec
        r = start + exc.item % count
        raise type(exc)(
            f"{exc}: alternative {spec.name} at n={n}, replication r={r} of seed={rng.seed}, "
            f"path={rng.path}, context={context}; generate(alternative({spec.name!r}, {spec.p}), "
            f"{n}, RngStream({rng.seed}, {rng.path}).child({context}, {r})) replays it"
        ) from exc
    return np.stack([values[sid] for sid in statistics])


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
    """Yield (group, values, last) for every task, in task order: the
    indices of the jobs of its draw group; their values, a
    (len(statistics), len(group), count) array whose [s, j] row holds
    statistics[s] over one range of replications of jobs[group[j]]; and
    whether that range is the group's last.  A group's ranges come in
    replication order.

    Every task of every job goes through one map, so workers go on to the
    next tasks while the caller reduces the finished ones.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    jobs = list(jobs)
    sizes = _chunk_sizes(jobs, statistics, workers)
    layout = []  # (group, start, count) of every task
    for group in _draw_groups(jobs):
        reps = jobs[group[0]].reps
        step = ceil(sizes[group[0]] / len(group))
        layout += [(group, start, min(step, reps - start)) for start in range(0, reps, step)]
    tasks = [(tuple(jobs[i] for i in group), start, count) for group, start, count in layout]
    chunk = partial(_chunk_values, statistics)
    # Built here, before the pool forks, so that its workers inherit them.
    for p in {job.spec.p for job in jobs}:
        _plan(p)
    pool = None
    if workers > 1 and len(tasks) > 1:
        pool = ProcessPoolExecutor(max_workers=workers, initializer=_start_worker)
    try:
        results = map(chunk, tasks) if pool is None else pool.map(chunk, tasks)
        for (group, start, count), values in zip(layout, results):
            last = start + count == jobs[group[0]].reps
            yield group, values.reshape(len(values), len(group), count), last
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)


def _calibration_job(statistics, n: int, p: int, replications: int, rng: RngStream):
    """The null simulation behind ``calibrate``, once its inputs are checked."""
    spec = alternative("normal", p)
    if replications < MIN_REPLICATIONS:
        raise ValueError(f"replications must be >= {MIN_REPLICATIONS}, got {replications}")
    check_sample_size(statistics, n, p)
    return SimulationJob(spec, n, rng, CALIBRATION_CONTEXT, replications)


def _null_tables(statistics, job: SimulationJob, parts, created: str):
    """A calibration job's tables, from its tasks' values as ``_simulate``
    yields them; the first row serves the group, whose jobs are equal."""
    return {
        sid: NullTable(
            statistic=sid,
            n=job.n,
            p=job.spec.p,
            replications=job.reps,
            seed=job.rng.seed,
            stream=job.rng.path,
            values=np.sort(np.concatenate([part[s, 0] for part in parts])),
            created_at=created,
        )
        for s, sid in enumerate(statistics)
    }


def _power_job(alt: AlternativeSpec, n: int, p: int, alpha: float, reps: int, rng: RngStream):
    """The simulation behind ``power``, once its inputs are checked."""
    if alt.p != p:
        raise ValueError(f"alternative has p={alt.p}, requested p={p}")
    if reps < 1:
        raise ValueError(f"reps must be >= 1, got {reps}")
    check_alpha(alpha)
    return SimulationJob(alt, n, rng, POWER_CONTEXT, reps)


def _add_rejections(counts, values, tables, critical) -> None:
    """Add the rejections of one task's values, as ``_simulate`` yields
    them, to the counts of its jobs, one dict per job in group order keyed
    by statistic; ``critical`` holds the critical ranks in the order of the
    values' statistics."""
    for row, (sid, k) in zip(values, critical.items()):
        for job_counts, rejected in zip(counts, rejections(row, tables[sid], k).tolist()):
            job_counts[sid] += rejected


def _power_report(statistics, job: SimulationJob, alpha: float, rejected) -> PowerReport:
    cells = []
    for sid in statistics:
        est = rejected[sid] / job.reps  # the mean of p <= alpha over the replications
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


def _results(jobs, statistics, workers, alpha=None, tables=None):
    """Yield each job's result, in job order, from one simulation run: a
    calibration job's null tables, keyed by statistic, and a power job's
    report at level ``alpha``, against the tables at its n from ``tables``
    (keyed by n) or from the calibration at that n earlier in ``jobs``.

    Each job is reduced as its ranges come in, and its values are dropped.
    The tables' timestamp is read before the first chunk runs, and only
    when ``jobs`` hold a calibration."""
    if not statistics:
        raise ValueError("statistics must not be empty")
    tables = dict(tables or {})
    created = timestamp() if any(job.context == CALIBRATION_CONTEXT for job in jobs) else None
    critical, null_parts, rejected, results = {}, [], {}, {}
    following = 0
    for group, values, last in _simulate(jobs, statistics, workers):
        job = jobs[group[0]]  # the jobs of a group share context, n and replications
        if job.context == CALIBRATION_CONTEXT:
            null_parts.append(values)
            if last:
                tables[job.n] = _null_tables(statistics, job, null_parts, created)
                results.update(dict.fromkeys(group, tables[job.n]))
                null_parts = []
        else:
            if job.n not in critical:
                critical[job.n] = {
                    sid: critical_count(tables[job.n][sid], alpha) for sid in statistics
                }
            counts = [rejected.setdefault(i, dict.fromkeys(statistics, 0)) for i in group]
            _add_rejections(counts, values, tables[job.n], critical[job.n])
            if last:
                for i in group:
                    results[i] = _power_report(statistics, jobs[i], alpha, rejected.pop(i))
        while following in results:
            yield results.pop(following)
            following += 1


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
    (tables,) = _results([job], statistics, workers)
    return tables


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
    (report,) = _results([job], statistics, workers, alpha, {n: tables})
    return report


def _study_jobs(alternatives, statistics, sizes, p, alpha, reps, calibration_reps, rng):
    """The jobs of ``power_study``, checked: at each n, the calibration, then
    every alternative."""
    jobs = []
    for n in sizes:
        jobs.append(_calibration_job(statistics, n, p, calibration_reps, rng.child(0, n)))
        jobs += [_power_job(alt, n, p, alpha, reps, rng.child(1, n)) for alt in alternatives]
    return jobs


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
    rng.child(0, n))``.  Every job is checked before the first chunk runs.
    """
    statistics = tuple(statistics)
    jobs = _study_jobs(alternatives, statistics, sizes, p, alpha, reps, calibration_reps, rng)
    run = _results(jobs, statistics, workers, alpha)
    try:
        for result, job in zip(run, jobs):
            if job.context == POWER_CONTEXT:
                yield result
    finally:
        run.close()
