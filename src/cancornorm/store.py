"""Null tables and power reports, and their persistence.

``NullTable``, ``PowerCell`` and ``PowerReport`` live here, with the code that
reads and writes them, so that testing a dataset against stored tables loads
none of the simulation code; ``montecarlo`` builds them and re-exports them.

A null-table file is a single JSON header line followed by the raw table
payload as little-endian 64-bit floats.  The header stays human-inspectable
(``head -1 file``) while the payload is compact and exact; a SHA-256 over
the payload guards against corruption, and ``library_version`` records
``cancornorm.__version__``.  ``hashlib`` is imported where a checksum is
taken, and ``json`` where a header or document is read or written, so that
a command that reads and writes no table does not load OpenSSL and one that
writes only CSV (``popvalues``, ``tables``) does not load ``json``.  Unknown
format versions are a hard error rather than a silent migration.

A power report is written as CSV rows (``report_rows``, one per statistic
under ``REPORT_FIELDS``, with power and se in ``repr`` so that they read back
as the same floats) or as a JSON document.  ``write_csv`` and ``write_json``
write every CSV and JSON file of the package: reports, the power and
population tables and the results of ``test --json``.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .engine import StatisticId
from .errors import (
    DataError,
    NullTableFormatError,
    NullTableIntegrityError,
    NullTableLengthError,
)

FORMAT_VERSION = 1
REPORT_FIELDS = ("alternative", "n", "p", "statistic", "power", "se", "reps")


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
        if self.replications < 1:  # no value would ever reject
            raise ValueError("null table needs at least one replication")
        if v.shape != (self.replications,):
            raise ValueError("null table length disagrees with replication count")
        if np.isnan(v).any() or np.any(v[:-1] > v[1:]):
            raise ValueError("null table values must be sorted ascending, without NaN")
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


def save_null(table: NullTable, path) -> None:
    import hashlib  # loads OpenSSL, which only a checksum needs
    import json

    payload = np.ascontiguousarray(table.values, dtype="<f8").tobytes()
    header = {
        "format_version": FORMAT_VERSION,
        "statistic": table.statistic.name,
        "n": table.n,
        "p": table.p,
        "replications": table.replications,
        "seed": table.seed,
        "stream": list(table.stream),
        "created_at": table.created_at,
        "library_version": __version__,
        "payload_sha256": hashlib.sha256(payload).hexdigest(),
    }
    with open(path, "wb") as fh:
        fh.write(json.dumps(header, sort_keys=True).encode("utf-8") + b"\n")
        fh.write(payload)


def _header_field(path, header: dict, key: str, kind: type):
    value = header.get(key)
    if not isinstance(value, kind) or isinstance(value, bool):
        raise NullTableFormatError(
            f"{path}: header field {key!r} is {value!r}, expected {kind.__name__}"
        )
    return value


def load_null(path) -> NullTable:
    import hashlib  # loads OpenSSL, which only a checksum needs
    import json

    try:
        with open(path, "rb") as fh:
            header_line = fh.readline()
            payload = fh.read()
    except (FileNotFoundError, NotADirectoryError):
        raise  # no file at that path
    except OSError as exc:  # a directory, or no permission to read
        raise DataError(f"cannot read {path}: {exc.strerror}") from exc
    try:
        header = json.loads(header_line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise NullTableFormatError(f"{path}: unreadable header ({exc})") from exc
    if not isinstance(header, dict):
        raise NullTableFormatError(f"{path}: header is not a JSON object")
    version = _header_field(path, header, "format_version", int)
    if version != FORMAT_VERSION:
        raise NullTableFormatError(
            f"{path}: format version {version!r} not supported (expected {FORMAT_VERSION})"
        )
    replications = _header_field(path, header, "replications", int)
    if len(payload) != 8 * replications:
        raise NullTableLengthError(
            f"{path}: payload holds {len(payload) // 8} values, header says {replications}"
        )
    if hashlib.sha256(payload).hexdigest() != _header_field(path, header, "payload_sha256", str):
        raise NullTableIntegrityError(f"{path}: payload checksum mismatch")
    stream = _header_field(path, header, "stream", list)
    if not all(isinstance(s, int) and not isinstance(s, bool) for s in stream):
        raise NullTableFormatError(f"{path}: header field 'stream' is {stream!r}, expected ints")
    name = _header_field(path, header, "statistic", str)
    n, p, seed = (_header_field(path, header, key, int) for key in ("n", "p", "seed"))
    created_at = _header_field(path, header, "created_at", str)
    try:
        return NullTable(
            statistic=StatisticId.parse(name),
            n=n,
            p=p,
            replications=replications,
            seed=seed,
            stream=tuple(stream),
            values=np.frombuffer(payload, dtype="<f8").astype(float),
            created_at=created_at,
        )
    except ValueError as exc:  # an unknown statistic, or an empty, unsorted or NaN payload
        raise NullTableFormatError(f"{path}: {exc}") from exc


def null_table_filename(statistic: StatisticId, n: int, p: int) -> str:
    return f"{statistic.name}_n{n}_p{p}.null"


def find_null(directory, statistic: StatisticId, n: int, p: int) -> NullTable:
    path = Path(directory) / null_table_filename(statistic, n, p)
    try:
        return load_null(path)
    except (FileNotFoundError, NotADirectoryError):
        raise DataError(
            f"no null table for {statistic.name} at (n={n}, p={p}); expected {path}"
        ) from None


def write_csv(path, fieldnames, rows) -> None:
    """Write dicts as CSV rows under a header of ``fieldnames``."""
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fieldnames)
        writer.writeheader()
        writer.writerows(rows)


def write_json(path, doc) -> None:
    """Write a JSON document, indented by 2, with a final newline."""
    import json

    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def report_rows(report: PowerReport) -> list[dict]:
    """One CSV row per cell of a power report, under ``REPORT_FIELDS``."""
    return [
        dict(zip(REPORT_FIELDS, (
            report.alternative, report.n, report.p, cell.statistic.name,
            repr(cell.power), repr(cell.se), cell.replications,
        )))
        for cell in report.cells
    ]


def export_report(report: PowerReport, format: str, path) -> None:
    """Write a power report as CSV rows or as a JSON document."""
    format = format.lower()
    if format == "csv":
        write_csv(path, REPORT_FIELDS, report_rows(report))
    elif format == "json":
        write_json(path, {
            "alternative": report.alternative,
            "n": report.n,
            "p": report.p,
            "alpha": report.alpha,
            "cells": [
                {
                    "statistic": cell.statistic.name,
                    "power": cell.power,
                    "se": cell.se,
                    "replications": cell.replications,
                }
                for cell in report.cells
            ],
        })
    else:
        raise ValueError(f"unknown report format {format!r} (use 'csv' or 'json')")
