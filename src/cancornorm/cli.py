"""Command-line interface.

Subcommands: ``calibrate`` builds null tables, ``test`` checks a CSV dataset
against stored tables, ``power`` estimates rejection rates for one
alternative, ``popvalues`` prints large-n population values, and ``tables``
reproduces the benchmark tables (power tables 2 and 4, and the population
table ``altpop``) at a configurable replication count.

Exit codes: 0 success, 2 usage error, 3 data error (unreadable CSV, missing,
unreadable or corrupt table files), 4 computation error (thresholds,
singular data).
An exception's base class alone decides its code: ``errors.DataError`` 3,
``errors.ComputeError`` and numpy's ``LinAlgError`` 4, and any other
``ValueError`` 2, as for the ``UsageError`` of a bad option value.
An output path whose directory is missing, or that names a directory, is a
usage error reported before any replication runs or any file is read.

``main`` runs one command and returns its exit code, for tests and other
in-process callers.  Its one process-wide effect: a serial simulation
(``--workers 1``) runs its chunks in this process, so it first gives it the
pool workers' allocator thresholds (``montecarlo._steady_heap``).  ``run``
is the entry point of a process the CLI owns (the ``cancornorm`` script and
``python -m cancornorm.cli``), and it has two more, both on the garbage
collector.  Run as ``python -m``, this module pauses the collector before
its first import, so numpy and the package modules load without collection
passes, which would walk the ~23k objects they build and free almost none;
``run`` then freezes those objects (``gc.freeze``) and turns the collector
back on, so the command's own garbage is collected and no collection walks
the imports again, in this process or in the pool workers it forks.  After
``main`` it freezes the heap again and exits, so that interpreter
finalization does not sweep what the command left behind either.  Atexit
handlers and stream flushes still run; a parallel run has shut its worker
pool down before ``main`` returns.

Every command runs its BLAS single-threaded unless the environment says
otherwise, so that a process's arithmetic never depends on the worker count
and parallel workers do not oversubscribe the cores.  The simulation modules
(``montecarlo``, ``alternatives``) are imported by the commands that run
them, so ``test`` loads only the statistics and the table store, and the
population values (``popvalues``, ``tables --which altpop``) load
``alternatives`` but neither ``montecarlo`` nor its worker pool, nor the
test decision (``stats``).
"""

from __future__ import annotations

import gc

if __name__ == "__main__":  # a process the CLI owns imports without collections (see run)
    gc.disable()

import argparse  # noqa: E402
import csv  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import NoReturn  # noqa: E402

# Before numpy loads, which reads these once; a value the user set wins.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

from .engine import ALL_STATISTICS, StatisticId  # noqa: E402
from .errors import ComputeError, DataError  # noqa: E402
from .store import (  # noqa: E402
    REPORT_FIELDS,
    export_report,
    find_null,
    null_table_filename,
    report_rows,
    save_null,
    write_csv,
    write_json,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_COMPUTE = 4

NULL_DIR_ENV = "CANCORNORM_NULL_DIR"
POPULATION_FIELDS = ("alternative", "p", "statistic", "value")

# Cells of the population table that the reference study leaves blank for
# p = 3 (classical skewness/kurtosis of most mixtures); they are marked
# missing in reproductions rather than filled in.
UNREPORTED_POPULATION_CELLS = {
    (name, 3, fam)
    for name in (
        "mix90_m2_r0", "mix90_m0_r05", "mix90_m1_r05", "mix90_m2_r05",
        "mix75_m1_r0", "mix75_m2_r0", "mix75_m0_r05", "mix75_m1_r05", "mix75_m2_r05",
    )
    for fam in ("mardia_skew", "mardia_kurt")
}


class UsageError(Exception):
    """A bad command-line value (exit code 2).  Not a ValueError, so that an
    argparse type may raise it: argparse turns only ValueError, TypeError and
    ArgumentTypeError into its own usage message, and lets ``main`` report
    this one like every other usage error."""


class DataFileError(DataError):
    """An unreadable or malformed CSV dataset."""


def _default_null_dir() -> str:
    return os.environ.get(NULL_DIR_ENV, "nulltables")


def _default_workers() -> int:
    """The CPUs this process may run on (its affinity mask, which ``taskset``
    and cpusets narrow), or the host's count where the platform has no mask."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _worker_count(text: str) -> int:
    """argparse type of ``--workers``: an integer >= 1."""
    try:
        workers = int(text)
    except ValueError:
        raise UsageError(f"workers must be an integer, got {text!r}") from None
    if workers < 1:
        raise UsageError(f"workers must be >= 1, got {workers}")
    return workers


def _output_file(text: str) -> str:
    """argparse type of an output file: its directory exists and it is not a
    directory itself, so that no run ends unable to write what it computed."""
    path = Path(text)
    if path.is_dir():
        raise UsageError(f"cannot write {text}: it is a directory")
    if not path.parent.is_dir():
        raise UsageError(f"cannot write {text}: no directory {path.parent}")
    return text


def _parse_statistics(text: str | None) -> tuple[StatisticId, ...]:
    """The statistics of a ``--statistics`` list; an unknown or repeated name
    (``StatisticId.parse`` folds case, so ``z2_hl`` repeats ``Z2_HL``) is a
    usage error."""
    if not text:
        return ALL_STATISTICS
    statistics = tuple(StatisticId.parse(part) for part in text.split(","))
    for i, sid in enumerate(statistics):
        if sid in statistics[:i]:
            raise ValueError(f"statistic {sid.name} is listed more than once")
    return statistics


def read_csv_sample(path) -> np.ndarray:
    """Read an n x p numeric CSV, auto-detecting a single header row.

    Blank lines are skipped; an error names the row by its line in the file
    (the line a quoted multi-line row ends on)."""
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            rows, lines = [], []
            for row in reader:
                if any(cell.strip() for cell in row):
                    rows.append(row)
                    lines.append(reader.line_num)
    except (OSError, UnicodeDecodeError) as exc:
        raise DataFileError(f"cannot read {path}: {exc}") from exc
    if not rows:
        raise DataFileError(f"{path}: no data rows")

    def parse_row(i):
        out = []
        for j, cell in enumerate(rows[i]):
            try:
                out.append(float(cell))
            except ValueError:
                raise DataFileError(
                    f"{path}: row {lines[i]}, column {j + 1}: not numeric: {cell.strip()!r}"
                ) from None
        return out

    start = 0
    try:
        first = parse_row(0)
    except DataFileError:
        start = 1  # header row
        if len(rows) == 1:
            raise DataFileError(f"{path}: only a header row, no data")
        first = parse_row(1)
    width = len(first)
    data = [first]
    for i in range(start + 1, len(rows)):
        row = parse_row(i)
        if len(row) != width:
            raise DataFileError(
                f"{path}: row {lines[i]} has {len(row)} columns, expected {width}"
            )
        data.append(row)
    data = np.asarray(data)
    bad = np.argwhere(~np.isfinite(data))
    if len(bad):
        i, j = bad[0]
        raise DataFileError(
            f"{path}: row {lines[start + i]}, column {j + 1}: not finite: "
            f"{rows[start + i][j].strip()!r}"
        )
    return data


def cmd_calibrate(ns) -> int:
    from .alternatives import RngStream
    from .montecarlo import _calibration_job, _steady_heap, calibrate, timestamp

    statistics = _parse_statistics(ns.statistics)
    rng = RngStream(ns.seed)
    # check the inputs and SOURCE_DATE_EPOCH before any I/O
    _calibration_job(statistics, ns.n, ns.p, ns.reps, rng)
    timestamp()
    out_dir = Path(ns.out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise UsageError(f"cannot create directory {out_dir}: {exc.strerror}") from None
    print(
        f"calibrating {len(statistics)} statistic(s) at n={ns.n}, p={ns.p} "
        f"with {ns.reps} replications (seed {ns.seed})",
        file=sys.stderr,
    )
    if ns.workers == 1:  # the chunks run in this process, which the CLI owns
        _steady_heap()
    tables = calibrate(statistics, ns.n, ns.p, ns.reps, rng, workers=ns.workers)
    for sid in statistics:
        path = out_dir / null_table_filename(sid, ns.n, ns.p)
        save_null(tables[sid], path)
        print(f"wrote {path}")
    return EXIT_OK


def cmd_test(ns) -> int:
    from .stats import check_alpha, run_tests

    check_alpha(ns.alpha)  # before any file is read
    statistics = _parse_statistics(ns.statistics)
    data = read_csv_sample(ns.data)
    n, p = data.shape
    tables = {sid: find_null(ns.null_dir, sid, n, p) for sid in statistics}
    results = run_tests(data, tables, ns.alpha).values()
    print(f"dataset: {ns.data}  (n={n}, p={p}, alpha={ns.alpha})")
    print(f"{'statistic':<14}{'value':>16}{'p-value':>12}  decision")
    for r in results:
        decision = "reject normality" if r.reject else "no rejection"
        print(f"{r.statistic.name:<14}{r.value:>16.6g}{r.p_value:>12.4g}  {decision}")
    if ns.json:
        write_json(ns.json, {
            "data": str(ns.data),
            "n": n,
            "p": p,
            "alpha": ns.alpha,
            "results": [
                {
                    "statistic": r.statistic.name,
                    "value": r.value,
                    "p_value": r.p_value,
                    "reject": r.reject,
                }
                for r in results
            ],
        })
        print(f"wrote {ns.json}")
    return EXIT_OK


def cmd_power(ns) -> int:
    from .alternatives import RngStream, alternative
    from .montecarlo import _power_job, _steady_heap, power

    spec = alternative(ns.alt, ns.p)
    statistics = _parse_statistics(ns.statistics)
    rng = RngStream(ns.seed)
    _power_job(spec, ns.n, ns.p, ns.alpha, ns.reps, rng)  # checks the inputs before any I/O
    tables = {sid: find_null(ns.null_dir, sid, ns.n, ns.p) for sid in statistics}
    if ns.workers == 1:
        _steady_heap()
    report = power(
        spec, statistics, ns.n, ns.p, ns.alpha, ns.reps, tables, rng, workers=ns.workers
    )
    print(f"alternative: {spec.label}  (n={ns.n}, p={ns.p}, alpha={ns.alpha}, reps={ns.reps})")
    for cell in report.cells:
        print(f"{cell.statistic.name:<14}{cell.power:>8.4f}  (se {cell.se:.4f})")
    if ns.out:
        export_report(report, ns.format, ns.out)
        print(f"wrote {ns.out}")
    return EXIT_OK


def _population_rows(names, p_values):
    """The population table's rows: at each p, the values of every
    alternative with moments, from one stacked evaluation."""
    from .alternatives import alternative, population_values_batch

    rows = []
    for p in p_values:
        specs = [alternative(name, p) for name in names]
        with_moments = [spec for spec in specs if spec.has_moments]
        values = population_values_batch(with_moments)
        item = {spec.name: i for i, spec in enumerate(with_moments)}
        for spec in specs:
            for sid in ALL_STATISTICS:
                if (spec.name, p, sid.family) in UNREPORTED_POPULATION_CELLS:
                    value = "X"
                elif spec.has_moments:
                    value = repr(float(values[sid][item[spec.name]]))
                else:
                    value = "--"
                rows.append(dict(zip(POPULATION_FIELDS, (spec.name, p, sid.name, value))))
    return rows


def cmd_popvalues(ns) -> int:
    from .alternatives import available_alternatives

    names = [ns.alt] if ns.alt else list(available_alternatives())
    rows = _population_rows(names, [ns.p])
    if ns.out:
        write_csv(ns.out, POPULATION_FIELDS, rows)
        print(f"wrote {ns.out}")
    else:
        for row in rows:
            print(f"{row['alternative']:<14} p={row['p']}  {row['statistic']:<14} {row['value']}")
    return EXIT_OK


def cmd_tables(ns) -> int:
    from .alternatives import ALL_ALTERNATIVE_NAMES, RngStream, alternative, available_alternatives

    out = ns.out or _output_file(f"table_{ns.which}.csv")
    if ns.which == "altpop":
        rows = _population_rows(available_alternatives(), [2, 3])
        fieldnames = POPULATION_FIELDS
    else:
        from .montecarlo import _steady_heap, power_study

        p = 2 if ns.which == "2" else 3
        rows = []
        if ns.workers == 1:
            _steady_heap()
        reports = power_study(
            [alternative(name, p) for name in ALL_ALTERNATIVE_NAMES], ALL_STATISTICS,
            (20, 50), p, ns.alpha, ns.reps, ns.calib_reps, RngStream(ns.seed),
            workers=ns.workers,
        )
        for report in reports:
            rows += report_rows(report)
            rows.append(dict(zip(REPORT_FIELDS, (
                report.alternative, report.n, p, "t_omnibus", "not implemented", "", "",
            ))))
            print(f"done: {report.alternative} (n={report.n}, p={p})", file=sys.stderr)
        fieldnames = REPORT_FIELDS
    write_csv(out, fieldnames, rows)
    print(f"wrote {out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cancornorm",
        description="Canonical-correlation tests for multivariate normality.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp, *, seed=True, workers=True):
        if seed:
            sp.add_argument("--seed", type=int, default=0, help="root seed (default 0)")
        if workers:
            sp.add_argument(
                "--workers", type=_worker_count, default=_default_workers(),
                help="parallel workers (default: the CPUs this process may use); "
                "results do not depend on this",
            )

    sp = sub.add_parser("calibrate", help="simulate null tables under normality")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--reps", type=int, default=100_000)
    sp.add_argument("--statistics", help="comma-separated statistic names (default: all 12)")
    sp.add_argument("--out-dir", default=_default_null_dir(),
                    help=f"table directory (default ${NULL_DIR_ENV} or ./nulltables)")
    add_common(sp)
    sp.set_defaults(func=cmd_calibrate)

    sp = sub.add_parser("test", help="test a CSV dataset for multivariate normality")
    sp.add_argument("--data", required=True, help="CSV file, rows = observations")
    sp.add_argument("--statistics", help="comma-separated statistic names (default: all 12)")
    sp.add_argument("--null-dir", default=_default_null_dir())
    sp.add_argument("--alpha", type=float, default=0.05)
    sp.add_argument("--json", type=_output_file, help="also write results as JSON to this path")
    add_common(sp, seed=False, workers=False)
    sp.set_defaults(func=cmd_test)

    sp = sub.add_parser("power", help="estimate power against one alternative")
    sp.add_argument("--alt", required=True, help="alternative name (see popvalues for the list)")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--alpha", type=float, default=0.05)
    sp.add_argument("--reps", type=int, default=10_000)
    sp.add_argument("--statistics", help="comma-separated statistic names (default: all 12)")
    sp.add_argument("--null-dir", default=_default_null_dir())
    sp.add_argument("--out", type=_output_file, help="report path")
    sp.add_argument("--format", choices=("csv", "json"), default="csv")
    add_common(sp)
    sp.set_defaults(func=cmd_power)

    sp = sub.add_parser("popvalues", help="large-n population values of the statistics")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--alt", help="one alternative (default: all)")
    sp.add_argument("--out", type=_output_file, help="CSV path (default: print)")
    add_common(sp, seed=False, workers=False)
    sp.set_defaults(func=cmd_popvalues)

    sp = sub.add_parser("tables", help="reproduce the benchmark tables")
    sp.add_argument("--which", choices=("2", "4", "altpop"), required=True)
    sp.add_argument("--reps", type=int, default=10_000, help="power replications per cell")
    sp.add_argument("--calib-reps", type=int, default=10_000)
    sp.add_argument("--alpha", type=float, default=0.05)
    sp.add_argument("--out", type=_output_file, help="CSV path (default: table_<which>.csv)")
    add_common(sp)
    sp.set_defaults(func=cmd_tables)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
        return ns.func(ns)
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (ComputeError, np.linalg.LinAlgError) as exc:
        print(f"computation error: {exc}", file=sys.stderr)
        return EXIT_COMPUTE
    except (UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def run() -> NoReturn:
    """Run the command of this process's arguments and exit with its code.

    The entry point of a process the CLI owns (see the module docstring).
    Its two process-wide effects are freezes of the heap, each of which
    moves every live object to the permanent generation, which later
    collections skip.  The first, before the command, takes the objects the
    imports built, with the collector paused since this module started
    under ``python -m``; the collector then runs again for the command's
    own garbage.  The second, after it, spares finalization its sweep; only
    the ``__del__`` of objects left in reference cycles at exit, which
    Python never promises to call, may then not run.
    """
    gc.freeze()
    gc.enable()
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
