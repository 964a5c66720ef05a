import csv
import hashlib
import json

import numpy as np
import pytest
from numpy.testing import assert_array_equal

import cancornorm
from cancornorm.alternatives import RngStream
from cancornorm.errors import DataError
from cancornorm.montecarlo import (
    NullTable,
    PowerCell,
    PowerReport,
    calibrate,
)
from cancornorm.stats import StatisticId, run_test
from cancornorm.store import (
    NullTableFormatError,
    NullTableIntegrityError,
    NullTableLengthError,
    export_report,
    find_null,
    load_null,
    null_table_filename,
    save_null,
)

Z2HL = StatisticId.parse("z2_hl")


def make_table(r=64, seed=3):
    rng = np.random.default_rng(seed)
    return NullTable(
        statistic=Z2HL, n=20, p=2, replications=r, seed=11, stream=(1, 2),
        values=np.sort(rng.standard_normal(r) ** 2), created_at="2026-01-01T00:00:00Z",
    )


def test_round_trip(tmp_path):
    table = make_table()
    path = tmp_path / "t.null"
    save_null(table, path)
    loaded = load_null(path)
    assert loaded.statistic == table.statistic
    assert (loaded.n, loaded.p, loaded.replications) == (20, 2, 64)
    assert loaded.seed == 11 and loaded.stream == (1, 2)
    assert loaded.created_at == table.created_at
    assert_array_equal(loaded.values, table.values)


def test_header_is_json_line(tmp_path):
    path = tmp_path / "t.null"
    save_null(make_table(), path)
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
    assert header["format_version"] == 1
    assert header["statistic"] == "z2_hl"
    assert header["library_version"] == cancornorm.__version__


def test_truncated_payload_is_length_error(tmp_path):
    path = tmp_path / "t.null"
    save_null(make_table(), path)
    blob = path.read_bytes()
    path.write_bytes(blob[:-16])
    with pytest.raises(NullTableLengthError):
        load_null(path)


def test_corrupt_payload_is_integrity_error(tmp_path):
    path = tmp_path / "t.null"
    save_null(make_table(), path)
    blob = bytearray(path.read_bytes())
    blob[-5] ^= 0xFF
    path.write_bytes(bytes(blob))
    with pytest.raises(NullTableIntegrityError):
        load_null(path)


def test_unknown_version_is_format_error(tmp_path):
    path = tmp_path / "t.null"
    save_null(make_table(), path)
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        payload = fh.read()
    header["format_version"] = 2
    path.write_bytes(json.dumps(header).encode() + b"\n" + payload)
    with pytest.raises(NullTableFormatError):
        load_null(path)


def rewrite_header(path, edit):
    header_line, payload = path.read_bytes().split(b"\n", 1)
    header = edit(json.loads(header_line))
    path.write_bytes(json.dumps(header).encode() + b"\n" + payload)


@pytest.mark.parametrize("version", [True, 1.0, "1", None])
def test_format_version_must_be_an_int(tmp_path, version):
    # True == 1 == 1.0, so an equality check alone would read these as version 1
    path = tmp_path / "t.null"
    save_null(make_table(), path)
    rewrite_header(path, lambda h: {**h, "format_version": version})
    with pytest.raises(NullTableFormatError, match="t.null: header field 'format_version' is"):
        load_null(path)


def test_garbage_header_is_format_error(tmp_path):
    path = tmp_path / "t.null"
    path.write_bytes(b"\x00\x01\x02 not json\n12345678")
    with pytest.raises(NullTableFormatError):
        load_null(path)
    # valid JSON, malformed header: a missing field, a list, an unknown statistic,
    # an ill-typed field
    for edit in (
        lambda h: {k: v for k, v in h.items() if k != "seed"},
        lambda h: list(h.items()),
        lambda h: {**h, "statistic": "z9_hl"},
        lambda h: {**h, "n": "20"},
    ):
        save_null(make_table(), path)
        rewrite_header(path, edit)
        with pytest.raises(NullTableFormatError, match="t.null"):
            load_null(path)


@pytest.mark.parametrize("edit", [
    lambda h: {k: v for k, v in h.items() if k != "stream"},
    lambda h: {**h, "stream": None},
    lambda h: {**h, "stream": [1, "2"]},
    lambda h: {**h, "stream": [1, True]},
], ids=["absent", "null", "string", "bool"])
def test_stream_field_is_required(tmp_path, edit):
    # save_null always writes it; a header without it is not read as stream ()
    path = tmp_path / "t.null"
    save_null(make_table(), path)
    rewrite_header(path, edit)
    with pytest.raises(NullTableFormatError, match="t.null: header field 'stream' is"):
        load_null(path)


def test_unsorted_payload_is_format_error(tmp_path):
    path = tmp_path / "t.null"
    save_null(make_table(), path)
    header_line, payload = path.read_bytes().split(b"\n", 1)
    payload = np.frombuffer(payload, dtype="<f8")[::-1].tobytes()
    header = {**json.loads(header_line), "payload_sha256": hashlib.sha256(payload).hexdigest()}
    path.write_bytes(json.dumps(header).encode() + b"\n" + payload)
    with pytest.raises(NullTableFormatError, match="sorted"):
        load_null(path)


def test_nan_values_are_rejected():
    # NaN compares false both ways, so an order check alone would pass it
    for values in ([1.0, np.nan, 0.0], [0.0, 1.0, np.nan], [np.nan]):
        with pytest.raises(ValueError, match="without NaN"):
            NullTable(statistic=Z2HL, n=20, p=2, replications=len(values), seed=0, stream=(),
                      values=np.array(values), created_at="t")


def test_nan_payload_is_format_error(tmp_path):
    # a payload whose checksum holds, but which no calibration writes
    path = tmp_path / "t.null"
    save_null(make_table(), path)
    header_line, payload = path.read_bytes().split(b"\n", 1)
    values = np.frombuffer(payload, dtype="<f8").copy()
    values[10] = np.nan
    payload = values.tobytes()
    header = {**json.loads(header_line), "payload_sha256": hashlib.sha256(payload).hexdigest()}
    path.write_bytes(json.dumps(header).encode() + b"\n" + payload)
    with pytest.raises(NullTableFormatError, match="t.null: .*without NaN"):
        load_null(path)


def test_empty_table_is_rejected():
    # no observed value could ever reach the rejection region of no values
    with pytest.raises(ValueError, match="at least one replication"):
        NullTable(statistic=Z2HL, n=20, p=2, replications=0, seed=0, stream=(),
                  values=np.empty(0), created_at="t")


def test_empty_payload_is_format_error(tmp_path):
    # an empty payload whose checksum holds
    path = tmp_path / "t.null"
    save_null(make_table(), path)
    header = json.loads(path.read_bytes().split(b"\n", 1)[0])
    header.update(replications=0, payload_sha256=hashlib.sha256(b"").hexdigest())
    path.write_bytes(json.dumps(header).encode() + b"\n")
    with pytest.raises(NullTableFormatError, match="t.null: .*at least one replication"):
        load_null(path)


def test_saved_table_usable_by_run_test(tmp_path):
    tables = calibrate((Z2HL,), 20, 2, 1000, RngStream(4))
    path = tmp_path / null_table_filename(Z2HL, 20, 2)
    save_null(tables[Z2HL], path)
    loaded = find_null(tmp_path, Z2HL, 20, 2)
    rng = np.random.default_rng(5)
    res = run_test(rng.standard_normal((20, 2)), Z2HL, loaded)
    assert 0.0 < res.p_value <= 1.0


def test_find_null_missing_names_requirements(tmp_path):
    with pytest.raises(DataError, match="z2_hl"):
        find_null(tmp_path, Z2HL, 20, 2)
    with pytest.raises(FileNotFoundError):
        load_null(tmp_path / null_table_filename(Z2HL, 20, 2))
    a_file = tmp_path / "a_file"
    a_file.touch()
    with pytest.raises(DataError, match=f"^no null table for z2_hl at .*expected {a_file}"):
        find_null(a_file, Z2HL, 20, 2)


def sample_report():
    return PowerReport(
        alternative="indep_exp", n=20, p=2, alpha=0.05,
        cells=(
            PowerCell(Z2HL, 0.8375, 0.0117, 1000),
            PowerCell(StatisticId.parse("mardia_kurt"), 0.55, 0.015731, 1000),
        ),
    )


def test_export_csv(tmp_path):
    path = tmp_path / "report.csv"
    export_report(sample_report(), "csv", path)
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2
    assert rows[0]["alternative"] == "indep_exp"
    assert rows[0]["statistic"] == "z2_hl"
    assert float(rows[0]["power"]) == 0.8375  # full precision survives
    assert rows[1]["statistic"] == "mardia_kurt"
    assert int(rows[0]["reps"]) == 1000


def test_export_empty_report_is_header_only(tmp_path):
    path = tmp_path / "empty.csv"
    export_report(PowerReport("normal", 20, 2, 0.05, ()), "csv", path)
    lines = path.read_text().strip().splitlines()
    assert lines == ["alternative,n,p,statistic,power,se,reps"]


def test_export_json_round_trips(tmp_path):
    path = tmp_path / "report.json"
    export_report(sample_report(), "json", path)
    doc = json.loads(path.read_text())
    assert doc["alternative"] == "indep_exp"
    assert doc["alpha"] == 0.05
    assert doc["cells"][0]["power"] == 0.8375
    assert doc["cells"][1]["replications"] == 1000


def test_export_unknown_format(tmp_path):
    with pytest.raises(ValueError):
        export_report(sample_report(), "xml", tmp_path / "x")
