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
would.  Chunks run in one process pool per process, created by the first
parallel run and reused by every later ``calibrate`` and ``power`` call with
the same worker count; a different count replaces it, a broken pool is
dropped and rebuilt on the next call, and interpreter exit shuts it down.
"""

from __future__ import annotations

import os
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from functools import partial
from itertools import product
from math import sqrt

import numpy as np

from .alternatives import (
    AlternativeSpec,
    RngStream,
    alternative,
    generate,
    population_moments,
    stream_generators,
)
from .cancor import cancor_sq, functional_value
from .covblocks import (
    lambda_blocks,
    psi_blocks,
    second_order_threshold,
    third_order_threshold,
)
from .engine import ALL_STATISTICS, _z3_term_map, evaluate_batch
from .errors import SampleSizeError
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


def _chunk_values(spec, n, rng, context, statistics, start, count):
    """Statistic values of replications start .. start + count - 1."""
    samples = np.stack(
        [generate(spec, n, g) for g in stream_generators(rng, context, start, count)]
    )
    return evaluate_batch(samples, statistics)


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


def _simulate(spec, n, rng, context, reps, statistics, workers):
    """Statistic values over ``reps`` replications, chunked deterministically."""
    global _pool
    starts = range(0, reps, CHUNK)
    counts = [min(CHUNK, reps - s) for s in starts]
    chunk = partial(_chunk_values, spec, n, rng, context, statistics)
    if any(sid.family == "z3" for sid in statistics):
        # Built here, before a new pool forks, so that its workers inherit
        # the per-p term map; workers of an older pool build it themselves.
        _z3_term_map(spec.p)
    if workers > 1 and len(starts) > 1:
        with _pool_lock:
            try:
                chunks = list(_worker_pool(workers).map(chunk, starts, counts))
            except BrokenProcessPool:
                _pool = None
                raise
    else:
        chunks = list(map(chunk, starts, counts))
    return {sid: np.concatenate([c[sid] for c in chunks]) for sid in statistics}


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
    if replications < MIN_REPLICATIONS:
        raise ValueError(f"replications must be >= {MIN_REPLICATIONS}, got {replications}")
    for sid in statistics:
        need = required_sample_size(sid, p)
        if n < need:
            raise SampleSizeError(f"{sid.name} needs n >= {need} for p={p}, got n={n}")
    created = timestamp()
    values = _simulate(
        alternative("normal", p), n, rng, CALIBRATION_CONTEXT, replications, statistics, workers
    )
    return {
        sid: NullTable(
            statistic=sid,
            n=n,
            p=p,
            replications=replications,
            seed=rng.seed,
            stream=rng.path,
            values=np.sort(values[sid]),
            created_at=created,
        )
        for sid in statistics
    }


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
    """Test one dataset against a calibrated null table."""
    s = as_sample(x)
    return _test_result(statistic, compute_statistic(s, statistic), table, (s.n, s.p), alpha)


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
    if alt.p != p:
        raise ValueError(f"alternative has p={alt.p}, requested p={p}")
    for sid in statistics:
        if sid not in tables:
            raise MissingTableError(f"no null table for {sid.name} at (n={n}, p={p})")
        t = tables[sid]
        if (t.n, t.p) != (n, p) or t.statistic != sid:
            raise TableMismatchError(
                f"table for {sid.name} was calibrated for (n={t.n}, p={t.p}), need (n={n}, p={p})"
            )
    values = _simulate(alt, n, rng, POWER_CONTEXT, reps, statistics, workers)
    cells = []
    for sid in statistics:
        pvals = empirical_pvalues(values[sid], tables[sid])
        est = float(np.mean(pvals <= alpha))
        cells.append(
            PowerCell(
                statistic=sid,
                power=est,
                se=sqrt(est * (1.0 - est) / reps),
                replications=reps,
            )
        )
    return PowerReport(alternative=alt.name, n=n, p=p, alpha=alpha, cells=tuple(cells))


def population_values(alt: AlternativeSpec, statistics=ALL_STATISTICS) -> dict[StatisticId, float]:
    """Large-n limits of a set of statistics under one alternative.

    One population moment table serves every family.  For the
    canonical-correlation families it gives the population covariance
    blocks in their n -> infinity form (the common 1/n scale cancels in the
    eigenproblem and the O(1/n) corrections vanish), each family's blocks
    are built and solved once; for the classical statistics the moment
    tensors are contracted with the inverse covariance.
    """
    statistics = tuple(statistics)
    families = {sid.family for sid in statistics}
    m = population_moments(alt, 6 if "z3" in families else 4)
    cancor = {
        family: cancor_sq(build(m, None))
        for family, build in (("z2", lambda_blocks), ("z3", psi_blocks))
        if family in families
    }

    def tensor(order):
        idx = product(range(alt.p), repeat=order)
        return np.array([m.mu(*i) for i in idx]).reshape((alt.p,) * order)

    out = {}
    for sid in statistics:
        if sid.family in cancor:
            out[sid] = functional_value(cancor[sid.family], sid.functional)
            continue
        w = np.linalg.inv(tensor(2))
        if sid.family == "mardia_skew":
            m3 = tensor(3)
            out[sid] = float(np.einsum("ijk,ir,js,kt,rst->", m3, w, w, w, m3))
        else:
            out[sid] = float(np.einsum("ijkl,ij,kl->", tensor(4), w, w))
    return out


def population_value(alt: AlternativeSpec, statistic: StatisticId) -> float:
    """Large-n limit of one statistic under one alternative."""
    return population_values(alt, (statistic,))[statistic]
