"""Command-line interface.

Subcommands: ``calibrate`` builds null tables, ``test`` checks a CSV dataset
against stored tables, ``power`` estimates rejection rates for one
alternative, ``popvalues`` prints large-n population values, and ``tables``
reproduces the benchmark tables (power tables 2 and 4, and the population
table ``altpop``) at a configurable replication count.

Exit codes: 0 success, 2 usage error, 3 data error (unreadable CSV, missing
or corrupt table files), 4 computation error (thresholds, singular data).
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
from pathlib import Path

import numpy as np

from .alternatives import (
    ALL_ALTERNATIVE_NAMES,
    MomentsUndefinedError,
    RngStream,
    alternative,
    available_alternatives,
)
from .errors import (
    DegenerateSampleError,
    EigenvalueRangeError,
    FunctionalDomainError,
    SampleSizeError,
    SingularBlockError,
)
from .montecarlo import (
    MissingTableError,
    TableMismatchError,
    _calibration_job,
    _power_job,
    _test_result,
    calibrate,
    population_values,
    power,
    power_study,
)
from .stats import ALL_STATISTICS, StatisticId, compute_statistics
from .store import (
    NullTableFormatError,
    NullTableIntegrityError,
    NullTableLengthError,
    export_report,
    find_null,
    null_table_filename,
    report_rows,
    save_null,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_COMPUTE = 4

NULL_DIR_ENV = "CANCORNORM_NULL_DIR"

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


class UsageError(ValueError):
    pass


class DataFileError(ValueError):
    pass


def _default_null_dir() -> str:
    return os.environ.get(NULL_DIR_ENV, "nulltables")


def _parse_statistics(text: str | None) -> tuple[StatisticId, ...]:
    if not text:
        return ALL_STATISTICS
    try:
        return tuple(StatisticId.parse(part) for part in text.split(","))
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def read_csv_sample(path) -> np.ndarray:
    """Read an n x p numeric CSV, auto-detecting a single header row."""
    try:
        with open(path, newline="") as fh:
            rows = [row for row in csv.reader(fh) if any(cell.strip() for cell in row)]
    except OSError as exc:
        raise DataFileError(f"cannot read {path}: {exc}") from exc
    if not rows:
        raise DataFileError(f"{path}: no data rows")

    def parse_row(row, number):
        out = []
        for j, cell in enumerate(row):
            try:
                out.append(float(cell))
            except ValueError:
                raise DataFileError(
                    f"{path}: row {number}, column {j + 1}: not numeric: {cell.strip()!r}"
                ) from None
        return out

    start = 0
    try:
        first = parse_row(rows[0], 1)
    except DataFileError:
        start = 1  # header row
        if len(rows) == 1:
            raise DataFileError(f"{path}: only a header row, no data")
        first = parse_row(rows[1], 2)
    width = len(first)
    data = [first]
    for i in range(start + 1, len(rows)):
        row = parse_row(rows[i], i + 1)
        if len(row) != width:
            raise DataFileError(
                f"{path}: row {i + 1} has {len(row)} columns, expected {width}"
            )
        data.append(row)
    data = np.asarray(data)
    bad = np.argwhere(~np.isfinite(data))
    if len(bad):
        i, j = bad[0]
        raise DataFileError(
            f"{path}: row {start + i + 1}, column {j + 1}: not finite: {rows[start + i][j].strip()!r}"
        )
    return data


def _load_tables(null_dir, statistics, n, p):
    tables = {}
    for sid in statistics:
        try:
            tables[sid] = find_null(null_dir, sid, n, p)
        except FileNotFoundError as exc:
            raise MissingTableError(str(exc)) from exc
    return tables


def cmd_calibrate(ns) -> int:
    statistics = _parse_statistics(ns.statistics)
    rng = RngStream(ns.seed)
    _calibration_job(statistics, ns.n, ns.p, ns.reps, rng)  # checks the inputs before any I/O
    out_dir = Path(ns.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    print(
        f"calibrating {len(statistics)} statistic(s) at n={ns.n}, p={ns.p} "
        f"with {ns.reps} replications (seed {ns.seed})",
        file=sys.stderr,
    )
    tables = calibrate(statistics, ns.n, ns.p, ns.reps, rng, workers=ns.workers)
    for sid in statistics:
        path = out_dir / null_table_filename(sid, ns.n, ns.p)
        save_null(tables[sid], path)
        print(f"wrote {path}")
    return EXIT_OK


def cmd_test(ns) -> int:
    statistics = _parse_statistics(ns.statistics)
    data = read_csv_sample(ns.data)
    n, p = data.shape
    tables = _load_tables(ns.null_dir, statistics, n, p)
    values = compute_statistics(data, statistics)
    results = [
        _test_result(sid, values[sid], tables[sid], (n, p), ns.alpha) for sid in statistics
    ]
    print(f"dataset: {ns.data}  (n={n}, p={p}, alpha={ns.alpha})")
    print(f"{'statistic':<14}{'value':>16}{'p-value':>12}  decision")
    for r in results:
        decision = "reject normality" if r.reject else "no rejection"
        print(f"{r.statistic.name:<14}{r.value:>16.6g}{r.p_value:>12.4g}  {decision}")
    if ns.json:
        import json

        doc = {
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
        }
        with open(ns.json, "w") as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")
        print(f"wrote {ns.json}")
    return EXIT_OK


def cmd_power(ns) -> int:
    try:
        spec = alternative(ns.alt, ns.p)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    statistics = _parse_statistics(ns.statistics)
    rng = RngStream(ns.seed)
    _power_job(spec, ns.n, ns.p, ns.alpha, ns.reps, rng)  # checks the inputs before any I/O
    tables = _load_tables(ns.null_dir, statistics, ns.n, ns.p)
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
    rows = []
    for p in p_values:
        for name in names:
            reported = [
                sid for sid in ALL_STATISTICS
                if (name, p, sid.family) not in UNREPORTED_POPULATION_CELLS
            ]
            try:
                values = population_values(alternative(name, p), reported)
                cells = {sid: repr(v) for sid, v in values.items()}
            except MomentsUndefinedError:
                cells = dict.fromkeys(reported, "--")
            for sid in ALL_STATISTICS:
                rows.append(
                    {"alternative": name, "p": p, "statistic": sid.name,
                     "value": cells.get(sid, "X")}
                )
    return rows


def cmd_popvalues(ns) -> int:
    names = [ns.alt] if ns.alt else list(available_alternatives())
    if ns.alt:
        try:
            alternative(ns.alt, ns.p)
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
    rows = _population_rows(names, [ns.p])
    if ns.out:
        with open(ns.out, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=["alternative", "p", "statistic", "value"])
            writer.writeheader()
            writer.writerows(rows)
        print(f"wrote {ns.out}")
    else:
        for row in rows:
            print(f"{row['alternative']:<14} p={row['p']}  {row['statistic']:<14} {row['value']}")
    return EXIT_OK


def cmd_tables(ns) -> int:
    if ns.which == "altpop":
        rows = _population_rows(["normal"] + list(ALL_ALTERNATIVE_NAMES), [2, 3])
        fieldnames = ["alternative", "p", "statistic", "value"]
    else:
        p = 2 if ns.which == "2" else 3
        rows = []
        reports = power_study(
            [alternative(name, p) for name in ALL_ALTERNATIVE_NAMES], ALL_STATISTICS,
            (20, 50), p, ns.alpha, ns.reps, ns.calib_reps, RngStream(ns.seed),
            workers=ns.workers,
        )
        for report in reports:
            for row in report_rows(report):
                row["power"] = repr(row["power"])
                row["se"] = repr(row["se"])
                rows.append(row)
            rows.append(
                {
                    "alternative": report.alternative, "n": report.n, "p": p,
                    "statistic": "t_omnibus", "power": "not implemented", "se": "", "reps": "",
                }
            )
            print(f"done: {report.alternative} (n={report.n}, p={p})", file=sys.stderr)
        fieldnames = ["alternative", "n", "p", "statistic", "power", "se", "reps"]
    out = ns.out or f"table_{ns.which}.csv"
    with open(out, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fieldnames)
        writer.writeheader()
        writer.writerows(rows)
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
                "--workers", type=int, default=os.cpu_count() or 1,
                help="parallel workers; results do not depend on this",
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
    sp.add_argument("--json", help="also write results as JSON to this path")
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
    sp.add_argument("--out", help="report path")
    sp.add_argument("--format", choices=("csv", "json"), default="csv")
    add_common(sp)
    sp.set_defaults(func=cmd_power)

    sp = sub.add_parser("popvalues", help="large-n population values of the statistics")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--alt", help="one alternative (default: all)")
    sp.add_argument("--out", help="CSV path (default: print)")
    add_common(sp, seed=False, workers=False)
    sp.set_defaults(func=cmd_popvalues)

    sp = sub.add_parser("tables", help="reproduce the benchmark tables")
    sp.add_argument("--which", choices=("2", "4", "altpop"), required=True)
    sp.add_argument("--reps", type=int, default=10_000, help="power replications per cell")
    sp.add_argument("--calib-reps", type=int, default=10_000)
    sp.add_argument("--alpha", type=float, default=0.05)
    sp.add_argument("--out", help="CSV path (default: table_<which>.csv)")
    add_common(sp)
    sp.set_defaults(func=cmd_tables)

    return parser


DATA_ERRORS = (
    DataFileError,
    MissingTableError,
    TableMismatchError,
    NullTableFormatError,
    NullTableIntegrityError,
    NullTableLengthError,
    FileNotFoundError,
)
COMPUTE_ERRORS = (
    SampleSizeError,
    DegenerateSampleError,
    SingularBlockError,
    EigenvalueRangeError,
    FunctionalDomainError,
    MomentsUndefinedError,
    np.linalg.LinAlgError,
)


def main(argv=None) -> int:
    parser = build_parser()
    ns = parser.parse_args(argv)
    try:
        return ns.func(ns)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DATA_ERRORS as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except COMPUTE_ERRORS as exc:
        print(f"computation error: {exc}", file=sys.stderr)
        return EXIT_COMPUTE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
