import csv
import gc
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cancornorm.cli import DataFileError, _population_rows, main, read_csv_sample
from cancornorm.alternatives import RngStream, alternative, available_alternatives, generate
from cancornorm import cli, errors, montecarlo
from cancornorm.montecarlo import calibrate, power
from cancornorm.stats import ALL_STATISTICS


def _untuned_heap():
    return False


@pytest.fixture(autouse=True, scope="module")
def untuned_allocator():
    # A serial simulation gives the process that runs main the pool workers'
    # allocator thresholds.  Keep this process's own, so that later tests, and
    # the pool workers they fork, see the allocator a library caller has.
    with pytest.MonkeyPatch.context() as m:
        m.setattr(montecarlo, "_steady_heap", _untuned_heap)
        yield


@pytest.fixture()
def null_dir(tmp_path):
    d = tmp_path / "nulls"
    rc = main([
        "calibrate", "--n", "20", "--p", "2", "--reps", "1000", "--seed", "7",
        "--out-dir", str(d), "--workers", "1",
    ])
    assert rc == 0
    return d


def write_csv(path, data, header=None):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        if header:
            w.writerow(header)
        w.writerows(data.tolist())


def test_calibrate_writes_all_twelve(null_dir):
    files = sorted(f.name for f in null_dir.iterdir())
    assert len(files) == 12
    assert "z2_hl_n20_p2.null" in files
    assert "mardia_kurt_n20_p2.null" in files


def test_calibrate_rerun_bit_identical(tmp_path, monkeypatch):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1767225600")
    d1, d2 = tmp_path / "a", tmp_path / "b"
    args = ["calibrate", "--n", "20", "--p", "2", "--reps", "1000", "--seed", "3",
            "--statistics", "z2_hl,mardia_kurt", "--workers", "2"]
    assert main(args + ["--out-dir", str(d1)]) == 0
    assert main(args + ["--out-dir", str(d2)]) == 0
    for f in d1.iterdir():
        assert f.read_bytes() == (d2 / f.name).read_bytes()


def test_calibrate_rejects_tiny_reps(tmp_path, capsys):
    rc = main(["calibrate", "--n", "20", "--p", "2", "--reps", "10",
               "--out-dir", str(tmp_path / "new" / "sub")])
    assert rc == 2
    assert "replications" in capsys.readouterr().err
    assert not (tmp_path / "new").exists()


def test_power_checks_inputs_before_loading_tables(tmp_path, capsys):
    rc = main(["power", "--alt", "beta22", "--n", "20", "--p", "2", "--reps", "0",
               "--null-dir", str(tmp_path)])
    assert rc == 2
    assert "error: reps must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("workers, message", [
    ("0", "workers must be >= 1"), ("two", "workers must be an integer"),
])
def test_calibrate_rejects_bad_workers_before_any_io(tmp_path, capsys, workers, message):
    rc = main(["calibrate", "--n", "20", "--p", "2", "--reps", "1000", "--workers", workers,
               "--out-dir", str(tmp_path / "new" / "sub")])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"error: {message}" in err and "calibrating" not in err
    assert not (tmp_path / "new").exists()


def test_power_rejects_bad_workers_before_loading_tables(tmp_path, capsys):
    rc = main(["power", "--alt", "beta22", "--n", "20", "--p", "2", "--reps", "10",
               "--workers", "0", "--null-dir", str(tmp_path)])
    assert rc == 2
    assert "error: workers must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("affinity, count, default", [
    ({0, 3, 5}, 64, 3),  # a run under taskset or a cpuset: its CPUs, not the host's
    (None, 64, 64),  # a platform without affinity masks
    (None, None, 1),  # and without a CPU count
])
def test_workers_default_to_the_cpus_the_process_may_use(monkeypatch, affinity, count, default):
    if affinity is None:
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    else:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: affinity, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: count)
    parser = cli.build_parser()
    for command in ("calibrate --n 20 --p 2", "power --alt beta22 --n 20 --p 2",
                    "tables --which 2"):
        assert parser.parse_args(command.split()).workers == default


@pytest.mark.parametrize("args", [
    "popvalues --p 0",
    "popvalues --p -1",
    "popvalues --p 0 --alt normal",
    "calibrate --n 20 --p 0 --out-dir {dir}",
    "power --alt beta22 --n 20 --p 0 --null-dir {dir}",
])
def test_bad_dimension_is_usage_error(tmp_path, capsys, args):
    tables = tmp_path / "tables"
    assert main(args.format(dir=tables).split()) == 2
    assert "error: p must be an integer >= 1" in capsys.readouterr().err
    assert not tables.exists()


def test_csv_reader_header_detection(tmp_path):
    rng = np.random.default_rng(0)
    data = rng.standard_normal((10, 2))
    plain = tmp_path / "plain.csv"
    headed = tmp_path / "headed.csv"
    write_csv(plain, data)
    write_csv(headed, data, header=["x", "y"])
    np.testing.assert_allclose(read_csv_sample(plain), data)
    np.testing.assert_allclose(read_csv_sample(headed), data)


def test_csv_reader_skips_a_byte_order_mark(tmp_path):
    # A UTF-8 byte-order mark must not make the first observation a header.
    data = np.random.default_rng(1).standard_normal((3, 2))
    for header in (None, ["x", "y"]):
        path = tmp_path / "bom.csv"
        write_csv(path, data, header=header)
        path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        np.testing.assert_array_equal(read_csv_sample(path), data)


def test_csv_reader_errors_name_location(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("1.0,2.0\n3.0,oops\n")
    with pytest.raises(Exception, match="row 2, column 2"):
        read_csv_sample(bad)
    ragged = tmp_path / "ragged.csv"
    ragged.write_text("1.0,2.0\n3.0\n")
    with pytest.raises(Exception, match="row 2"):
        read_csv_sample(ragged)
    for text, where in (("nan,1.0\n3.0,2.0\n", "row 1, column 1"),
                        ("x,y\n1.0,2.0\n3.0,inf\n", "row 3, column 2"),
                        ("1.0,2.0\n-inf,4.0\n", "row 2, column 1")):
        nonfinite = tmp_path / "nonfinite.csv"
        nonfinite.write_text(text)
        with pytest.raises(DataFileError, match=f"{where}: not finite"):
            read_csv_sample(nonfinite)


@pytest.mark.parametrize("text, message", [
    ("a,b\n1,2\n\n3,x\n", "row 4, column 2: not numeric: 'x'"),
    ("1,2\n\n \n3\n", "row 4 has 1 columns, expected 2"),
    ("\nx,y\n\n1,2\n3,inf\n", "row 5, column 2: not finite: 'inf'"),
])
def test_csv_reader_errors_name_the_line_of_the_file(tmp_path, text, message):
    # blank lines are skipped but still counted
    path = tmp_path / "blank.csv"
    path.write_text(text)
    with pytest.raises(DataFileError) as info:
        read_csv_sample(path)
    assert str(info.value) == f"{path}: {message}"


def test_cmd_test_normal_data(null_dir, tmp_path, capsys):
    data = generate(alternative("normal", 2), 20, RngStream(42))
    csv_path = tmp_path / "data.csv"
    write_csv(csv_path, data)
    out_json = tmp_path / "out.json"
    rc = main(["test", "--data", str(csv_path), "--null-dir", str(null_dir),
               "--json", str(out_json)])
    assert rc == 0
    printed = capsys.readouterr().out
    assert "z2_hl" in printed and "mardia_kurt" in printed
    doc = json.loads(out_json.read_text())
    assert doc["n"] == 20 and doc["p"] == 2
    assert len(doc["results"]) == 12
    for r in doc["results"]:
        assert 0.0 < r["p_value"] <= 1.0


def test_cmd_test_strong_alternative_rejects(null_dir, tmp_path):
    data = generate(alternative("indep_exp", 2), 20, RngStream(43))
    csv_path = tmp_path / "exp.csv"
    write_csv(csv_path, data)
    out_json = tmp_path / "out.json"
    rc = main(["test", "--data", str(csv_path), "--null-dir", str(null_dir),
               "--statistics", "z2_hl,z2_max", "--json", str(out_json)])
    assert rc == 0  # success regardless of the decision
    json.loads(out_json.read_text())


def test_cmd_test_shape_mismatch_is_data_error(null_dir, tmp_path, capsys):
    data = generate(alternative("normal", 2), 50, RngStream(44))
    csv_path = tmp_path / "fifty.csv"
    write_csv(csv_path, data)
    rc = main(["test", "--data", str(csv_path), "--null-dir", str(null_dir)])
    assert rc == 3
    assert "n=50" in capsys.readouterr().err


def test_cmd_test_missing_table_is_data_error(tmp_path, capsys):
    data = generate(alternative("normal", 2), 20, RngStream(45))
    csv_path = tmp_path / "d.csv"
    write_csv(csv_path, data)
    nowhere = tmp_path / "nowhere"
    rc = main(["test", "--data", str(csv_path), "--null-dir", str(nowhere)])
    assert rc == 3
    assert capsys.readouterr().err == (
        "data error: no null table for mardia_skew at (n=20, p=2); "
        f"expected {nowhere / 'mardia_skew_n20_p2.null'}\n"
    )


def test_cmd_power_missing_table_is_data_error(tmp_path, capsys):
    nowhere = tmp_path / "nowhere"
    rc = main([
        "power", "--alt", "laplace2", "--n", "20", "--p", "2", "--reps", "100",
        "--null-dir", str(nowhere), "--workers", "1",
    ])
    assert rc == 3
    assert capsys.readouterr().err == (
        "data error: no null table for mardia_skew at (n=20, p=2); "
        f"expected {nowhere / 'mardia_skew_n20_p2.null'}\n"
    )


@pytest.mark.parametrize("command", [
    ["test", "--data", "{csv}"],
    ["power", "--alt", "laplace2", "--n", "20", "--p", "2", "--reps", "100", "--workers", "1"],
], ids=["test", "power"])
def test_unreadable_table_is_data_error(tmp_path, capsys, command):
    data = generate(alternative("normal", 2), 20, RngStream(45))
    csv_path = tmp_path / "d.csv"
    write_csv(csv_path, data)
    null_dir = tmp_path / "nulls"
    (null_dir / "z2_hl_n20_p2.null").mkdir(parents=True)
    argv = [arg.format(csv=csv_path) for arg in command]
    assert main([*argv, "--statistics", "z2_hl", "--null-dir", str(null_dir)]) == 3
    assert capsys.readouterr().err == (
        f"data error: cannot read {null_dir / 'z2_hl_n20_p2.null'}: Is a directory\n"
    )


def test_cmd_test_malformed_table_header_is_data_error(null_dir, tmp_path, capsys):
    path = null_dir / "z2_hl_n20_p2.null"
    header_line, payload = path.read_bytes().split(b"\n", 1)
    header = json.loads(header_line)
    del header["seed"]
    path.write_bytes(json.dumps(header).encode() + b"\n" + payload)
    data = generate(alternative("normal", 2), 20, RngStream(48))
    csv_path = tmp_path / "d.csv"
    write_csv(csv_path, data)
    rc = main(["test", "--data", str(csv_path), "--null-dir", str(null_dir)])
    assert rc == 3
    assert "z2_hl_n20_p2.null" in capsys.readouterr().err


def test_cmd_test_non_finite_cell_is_data_error(null_dir, tmp_path, capsys):
    data = generate(alternative("normal", 2), 20, RngStream(47))
    data[4, 1] = np.nan
    csv_path = tmp_path / "nan.csv"
    write_csv(csv_path, data)
    rc = main(["test", "--data", str(csv_path), "--null-dir", str(null_dir)])
    assert rc == 3
    assert "row 5, column 2" in capsys.readouterr().err


def test_cmd_test_csv_that_is_not_utf8_is_data_error(tmp_path, capsys):
    path = tmp_path / "latin.csv"
    path.write_bytes(b"1,2\n3,\xff\xfe\n")
    assert main(["test", "--data", str(path), "--null-dir", str(tmp_path)]) == 3
    assert capsys.readouterr().err == (
        f"data error: cannot read {path}: 'utf-8' codec can't decode byte 0xff "
        "in position 6: invalid start byte\n"
    )


def test_cmd_test_evaluates_the_sample_once(null_dir, tmp_path, monkeypatch):
    import cancornorm.stats

    calls = []
    evaluate_batch = cancornorm.stats.evaluate_batch

    def counting(data, statistics):
        calls.append(tuple(statistics))
        return evaluate_batch(data, statistics)

    monkeypatch.setattr(cancornorm.stats, "evaluate_batch", counting)
    data = generate(alternative("indep_exp", 2), 20, RngStream(48))
    csv_path = tmp_path / "d.csv"
    write_csv(csv_path, data)
    assert main(["test", "--data", str(csv_path), "--null-dir", str(null_dir)]) == 0
    assert len(calls) == 1 and len(calls[0]) == 12


def test_population_rows_build_moments_once_per_alternative(monkeypatch):
    import cancornorm.alternatives

    calls = []
    moment_rule = cancornorm.alternatives._moment_rule

    def counting(spec):
        calls.append((spec.name, spec.p))
        return moment_rule(spec)

    monkeypatch.setattr(cancornorm.alternatives, "_moment_rule", counting)
    names = ["normal", "indep_exp", "mix75_m2_r0", "t2"]
    rows = _population_rows(names, [2, 3])
    assert len(rows) == 2 * 4 * 12
    # one moment rule per alternative with moments and p, none for t2
    assert sorted(calls) == sorted((name, p) for name in names[:3] for p in (2, 3))


def test_population_rows_make_one_engine_call_per_p(monkeypatch):
    import cancornorm.alternatives

    stacks = []
    evaluate = cancornorm.alternatives.evaluate_population_batch

    def counting(m2, *args, **kwargs):
        stacks.append(m2.shape)
        return evaluate(m2, *args, **kwargs)

    monkeypatch.setattr(cancornorm.alternatives, "evaluate_population_batch", counting)
    rows = _population_rows(available_alternatives(), [2, 3])
    assert len(rows) == 2 * 28 * 12
    assert stacks == [(27, 2, 2), (27, 3, 3)]  # every alternative but t2, once per p


def test_popvalues_names_the_failing_alternative(monkeypatch, capsys):
    import cancornorm.alternatives

    moment_rule = cancornorm.alternatives._moment_rule

    def singular_for_exp(spec):
        return (lambda counts: 1.0) if spec.name == "indep_exp" else moment_rule(spec)

    monkeypatch.setattr(cancornorm.alternatives, "_moment_rule", singular_for_exp)
    assert main(["popvalues", "--p", "3"]) == 4
    assert "alternative indep_exp, p=3" in capsys.readouterr().err


@pytest.mark.parametrize("args", [["popvalues", "--p", "3"], ["tables", "--which", "altpop"]])
def test_population_commands_load_no_pool_code(args, tmp_path):
    argv = args + ["--out", str(tmp_path / "out.csv")]
    code = (
        "import sys; from cancornorm.cli import main; "
        f"assert main({argv!r}) == 0; "
        "names = ('cancornorm.montecarlo', 'cancornorm.covblocks', 'concurrent.futures', "
        "'multiprocessing', 'json'); "
        "print('loaded:', [m for m in names if m in sys.modules])"
    )
    assert _run_python(code).splitlines()[-1] == "loaded: []"


def test_cmd_test_in_tiny_units(null_dir, tmp_path):
    # 1e-200 units: the raw covariance would vanish and fail as degenerate
    data = generate(alternative("indep_exp", 2), 20, RngStream(50))
    docs = []
    for name, x in (("unit", data), ("tiny", data * 1e-200)):
        csv_path, out_json = tmp_path / f"{name}.csv", tmp_path / f"{name}.json"
        np.savetxt(csv_path, x, delimiter=",", fmt="%.17g")
        rc = main(["test", "--data", str(csv_path), "--null-dir", str(null_dir),
                   "--json", str(out_json)])
        assert rc == 0
        docs.append(json.loads(out_json.read_text())["results"])
    for unit, tiny in zip(*docs):
        assert tiny["statistic"] == unit["statistic"]
        assert tiny["value"] == pytest.approx(unit["value"], rel=1e-12), unit["statistic"]


def test_cmd_power(null_dir, tmp_path):
    out = tmp_path / "power.csv"
    rc = main(["power", "--alt", "indep_exp", "--n", "20", "--p", "2",
               "--reps", "400", "--null-dir", str(null_dir), "--seed", "1",
               "--out", str(out), "--statistics", "z2_hl,mardia_skew",
               "--workers", "1"])
    assert rc == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["statistic"] for r in rows] == ["z2_hl", "mardia_skew"]
    assert float(rows[0]["power"]) > 0.5


def test_cmd_power_unknown_alternative(null_dir, capsys):
    rc = main(["power", "--alt", "zipf", "--n", "20", "--p", "2",
               "--null-dir", str(null_dir)])
    assert rc == 2
    assert "valid names" in capsys.readouterr().err


def test_cmd_power_t2_runs_without_moments(null_dir, tmp_path):
    out = tmp_path / "t2.json"
    rc = main(["power", "--alt", "t2", "--n", "20", "--p", "2", "--reps", "300",
               "--null-dir", str(null_dir), "--out", str(out), "--format", "json",
               "--statistics", "mardia_kurt", "--workers", "1"])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["cells"][0]["power"] > 0.3


def test_cmd_popvalues_single(capsys):
    rc = main(["popvalues", "--p", "2", "--alt", "indep_exp"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "z2_hl" in out


def test_cmd_popvalues_csv_marks_undefined(tmp_path):
    out = tmp_path / "pop.csv"
    rc = main(["popvalues", "--p", "2", "--alt", "t2", "--out", str(out)])
    assert rc == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 12
    assert all(r["value"] == "--" for r in rows)


def test_cmd_tables_altpop(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    rc = main(["tables", "--which", "altpop", "--out", str(tmp_path / "altpop.csv")])
    assert rc == 0
    with open(tmp_path / "altpop.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    # 28 alternatives x 2 dimensions x 12 statistics
    assert len(rows) == 28 * 2 * 12
    by_key = {(r["alternative"], r["p"], r["statistic"]): r["value"] for r in rows}
    assert by_key[("t2", "2", "z2_hl")] == "--"
    assert by_key[("mix75_m2_r0", "3", "mardia_skew")] == "X"
    assert abs(float(by_key[("indep_exp", "2", "z2_hl")]) - 1.0) < 1e-9
    assert abs(float(by_key[("normal", "3", "mardia_kurt")]) - 15.0) < 1e-9


def test_null_dir_env_default(tmp_path, monkeypatch, capsys):
    env_dir = tmp_path / "envnulls"
    monkeypatch.setenv("CANCORNORM_NULL_DIR", str(env_dir))
    rc = main(["calibrate", "--n", "20", "--p", "2", "--reps", "1000",
               "--statistics", "z2_hl", "--workers", "1"])
    assert rc == 0
    assert (env_dir / "z2_hl_n20_p2.null").exists()
    data = generate(alternative("normal", 2), 20, RngStream(50))
    csv_path = tmp_path / "d.csv"
    write_csv(csv_path, data)
    rc = main(["test", "--data", str(csv_path), "--statistics", "z2_hl"])
    assert rc == 0


def test_csv_round_trip_preserves_statistics(tmp_path):
    # exporting a sample and re-importing it yields identical values bit for bit
    from cancornorm.stats import ALL_STATISTICS, compute_statistics

    data = generate(alternative("chisq2", 2), 25, RngStream(46))
    path = tmp_path / "round.csv"
    write_csv(path, data)
    again = read_csv_sample(path)
    before = compute_statistics(data)
    after = compute_statistics(again)
    for sid in ALL_STATISTICS:
        assert before[sid] == after[sid]


def test_cmd_tables_power_grid_smoke(tmp_path):
    out = tmp_path / "t2grid.csv"
    rc = main(["tables", "--which", "2", "--reps", "200", "--calib-reps", "1000",
               "--seed", "5", "--out", str(out), "--workers", "1"])
    assert rc == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    # 27 alternatives x 2 sample sizes x (12 statistics + omnibus marker)
    assert len(rows) == 27 * 2 * 13
    markers = [r for r in rows if r["statistic"] == "t_omnibus"]
    assert len(markers) == 54
    assert all(r["power"] == "not implemented" for r in markers)
    numeric = [r for r in rows if r["statistic"] != "t_omnibus"]
    assert all(0.0 <= float(r["power"]) <= 1.0 for r in numeric)
    strong = [r for r in numeric
              if r["alternative"] == "indep_exp" and r["n"] == "50"
              and r["statistic"] == "z2_hl"]
    assert float(strong[0]["power"]) > 0.9


@pytest.fixture(scope="module")
def table2_runs(tmp_path_factory):
    """``tables --which 2`` CSVs of one seed, by worker count."""
    d = tmp_path_factory.mktemp("table2")
    paths = {}
    for workers in (1, 2):
        paths[workers] = d / f"w{workers}.csv"
        rc = main(["tables", "--which", "2", "--reps", "300", "--calib-reps", "1000",
                   "--seed", "4", "--out", str(paths[workers]), "--workers", str(workers)])
        assert rc == 0
    return paths


def test_cmd_tables_bit_identical_across_workers(table2_runs):
    assert table2_runs[1].read_bytes() == table2_runs[2].read_bytes()


def test_cmd_tables_cells_equal_standalone_power(table2_runs):
    # one chunk queue for the whole run, with one raw draw per draw group,
    # gives what separate calls give: a one-job group (indep_exp) and members
    # of the groups of the lognormals, of laplace1 with beta11, of beta22
    # with chisq8, of the AL rows and of the mixtures
    with open(table2_runs[2], newline="") as fh:
        rows = list(csv.DictReader(fh))
    rng = RngStream(4)
    names = ("indep_exp", "mix75_m2_r05", "logn_05", "beta11", "chisq8", "al1_r09", "mix90_m1_r0")
    for n in (20, 50):
        tables = calibrate(ALL_STATISTICS, n, 2, 1000, rng.child(0, n))
        for name in names:
            report = power(alternative(name, 2), ALL_STATISTICS, n, 2, 0.05, 300, tables,
                           rng.child(1, n))
            cells = {r["statistic"]: r for r in rows
                     if (r["alternative"], r["n"]) == (name, str(n))}
            assert len(cells) == 13
            for cell in report.cells:
                row = cells[cell.statistic.name]
                assert (row["power"], row["se"], row["reps"]) == (
                    repr(cell.power), repr(cell.se), "300"
                )


@pytest.mark.parametrize("args, message", [
    (["power", "--reps", "0"], "reps must be >= 1"),
    (["power", "--reps", "-5"], "reps must be >= 1"),
    (["power", "--alpha", "1.5"], "alpha must be in (0, 1)"),
    (["power", "--workers", "0"], "workers must be >= 1"),
    (["power", "--workers", "-1"], "workers must be >= 1"),
    (["calibrate", "--workers", "0"], "workers must be >= 1"),
    (["calibrate", "--workers", "-1"], "workers must be >= 1"),
    (["tables", "--alpha", "1.5"], "alpha must be in (0, 1)"),
    (["tables", "--reps", "0"], "reps must be >= 1"),
    (["tables", "--workers", "0"], "workers must be >= 1"),
    (["test", "--alpha", "1.5"], "alpha must be in (0, 1), got 1.5"),
])
def test_bad_simulation_inputs_are_usage_errors(null_dir, tmp_path, capsys, args, message):
    command, *flags = args
    common = {
        # an absent dataset and table directory: reading either is a data error
        "test": ["--data", str(tmp_path / "absent.csv"), "--null-dir", str(tmp_path / "absent")],
        "power": ["--alt", "indep_exp", "--n", "20", "--p", "2", "--null-dir", str(null_dir)],
        "calibrate": ["--n", "20", "--p", "2", "--reps", "1000",
                      "--out-dir", str(tmp_path / "calibrated")],
        "tables": ["--which", "2", "--calib-reps", "1000", "--out", str(tmp_path / "t.csv")],
    }[command]
    capsys.readouterr()
    assert main([command, *common, *flags]) == 2
    err = capsys.readouterr().err
    assert f"error: {message}" in err
    assert "done:" not in err
    assert not list(tmp_path.glob("calibrated/*")) and not (tmp_path / "t.csv").exists()


@pytest.mark.parametrize("command", ["calibrate", "test", "power"])
@pytest.mark.parametrize("names, repeated", [
    ("z2_hl,z2_hl", "z2_hl"),
    ("z2_hl,mardia_kurt,Z2_HL", "z2_hl"),
    ("z3_w, mardia_skew,Mardia_Skew ", "mardia_skew"),
])
def test_repeated_statistics_are_usage_errors_before_any_work(
    tmp_path, monkeypatch, capsys, command, names, repeated
):
    def no_simulation(*args):
        raise AssertionError("a simulation ran")

    monkeypatch.setattr(montecarlo, "_simulate", no_simulation)
    # an absent dataset and an absent table directory: a read would be a
    # data error (exit 3)
    args = {
        "calibrate": ["--n", "20", "--p", "2", "--reps", "1000", "--workers", "1",
                      "--out-dir", str(tmp_path / "nulls")],
        "test": ["--data", str(tmp_path / "absent.csv"), "--null-dir", str(tmp_path)],
        "power": ["--alt", "indep_exp", "--n", "20", "--p", "2", "--workers", "1",
                  "--null-dir", str(tmp_path / "absent")],
    }[command]
    capsys.readouterr()
    assert main([command, *args, "--statistics", names]) == 2
    out, err = capsys.readouterr()
    assert err == f"error: statistic {repeated} is listed more than once\n"
    assert out == ""
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("command", ["calibrate", "tables"])
@pytest.mark.parametrize("epoch", ["abc", "99999999999999999999", str(10**12), str(-10**12)])
def test_bad_source_date_epoch_is_usage_error_before_any_work(
    tmp_path, monkeypatch, capsys, command, epoch
):
    def no_simulation(*args):
        raise AssertionError("a simulation ran")

    monkeypatch.setattr(montecarlo, "_simulate", no_simulation)
    monkeypatch.setenv("SOURCE_DATE_EPOCH", epoch)
    args = {
        "calibrate": ["--n", "20", "--p", "2", "--reps", "1000", "--workers", "1",
                      "--out-dir", str(tmp_path / "nulls")],
        "tables": ["--which", "2", "--reps", "200", "--calib-reps", "1000", "--workers", "1",
                   "--out", str(tmp_path / "t.csv")],
    }[command]
    capsys.readouterr()
    assert main([command, *args]) == 2
    out, err = capsys.readouterr()
    assert err == (
        "error: SOURCE_DATE_EPOCH must be an integer number of seconds from 0 to "
        f"253402300799, got {epoch!r}\n"
    )
    assert out == ""
    assert not list(tmp_path.iterdir())


def test_test_and_power_reject_a_bad_alpha_with_one_message(null_dir, tmp_path, capsys):
    csv_path = tmp_path / "data.csv"
    write_csv(csv_path, generate(alternative("normal", 2), 20, RngStream(42)))
    runs = {
        "test": ["test", "--data", str(csv_path), "--null-dir", str(null_dir)],
        "power": ["power", "--alt", "indep_exp", "--n", "20", "--p", "2",
                  "--null-dir", str(null_dir), "--workers", "1"],
    }
    errors = {}
    for command, args in runs.items():
        capsys.readouterr()
        assert main([*args, "--alpha", "1.5"]) == 2
        out, errors[command] = capsys.readouterr()
        assert out == ""
    assert errors["test"] == errors["power"] == "error: alpha must be in (0, 1), got 1.5\n"


@pytest.mark.parametrize("command, option, target", [
    ("tables", "--out", "missing/t.csv"),
    ("tables", "--out", "a_dir"),
    ("power", "--out", "missing/r.csv"),
    ("power", "--out", "a_dir"),
    ("popvalues", "--out", "missing/v.csv"),
    ("popvalues", "--out", "a_dir"),
    ("test", "--json", "missing/r.json"),
    ("test", "--json", "a_dir"),
    ("calibrate", "--out-dir", "a_file"),
    ("calibrate", "--out-dir", "a_file/nulls"),
])
def test_bad_output_paths_are_usage_errors_before_any_work(
    null_dir, tmp_path, monkeypatch, capsys, command, option, target
):
    (tmp_path / "a_dir").mkdir()
    (tmp_path / "a_file").write_text("")

    def no_simulation(*args):
        raise AssertionError("a simulation ran")

    monkeypatch.setattr(montecarlo, "_simulate", no_simulation)
    args = {
        "tables": ["--which", "2", "--reps", "200", "--calib-reps", "1000", "--workers", "1"],
        "power": ["--alt", "indep_exp", "--n", "20", "--p", "2", "--null-dir", str(null_dir),
                  "--workers", "1"],
        "popvalues": ["--p", "2"],
        # an absent dataset: a read would be a data error (exit 3)
        "test": ["--data", str(tmp_path / "absent.csv"), "--null-dir", str(null_dir)],
        "calibrate": ["--n", "20", "--p", "2", "--reps", "1000", "--workers", "1"],
    }[command]
    path = str(tmp_path / target)
    files = sorted(tmp_path.rglob("*"))
    capsys.readouterr()
    assert main([command, *args, option, path]) == 2
    out, err = capsys.readouterr()
    assert err.startswith("error: cannot ") and path in err
    assert out == ""
    assert sorted(tmp_path.rglob("*")) == files


@pytest.mark.parametrize("command, calls", [
    ("calibrate", 1), ("power", 1), ("tables", 1), ("test", 0), ("popvalues", 0),
])
def test_only_serial_simulations_tune_the_allocator(null_dir, tmp_path, monkeypatch, command,
                                                    calls):
    tuned = []
    monkeypatch.setattr(montecarlo, "_steady_heap", lambda: tuned.append(True))
    monkeypatch.setattr(montecarlo, "power_study", lambda *args, **kwargs: iter(()))
    csv_path = tmp_path / "d.csv"
    write_csv(csv_path, generate(alternative("normal", 2), 20, RngStream(9)))
    args = {
        "calibrate": ["--n", "20", "--p", "2", "--reps", "1000", "--out-dir", str(tmp_path / "c")],
        "power": ["--alt", "indep_exp", "--n", "20", "--p", "2", "--reps", "400",
                  "--null-dir", str(null_dir)],
        "tables": ["--which", "2", "--out", str(tmp_path / "t.csv")],
        "test": ["--data", str(csv_path), "--null-dir", str(null_dir)],
        "popvalues": ["--p", "2", "--alt", "normal"],
    }[command]
    if command in ("calibrate", "power", "tables"):
        args += ["--workers", "1"]
    assert main([command, *args]) == 0
    assert len(tuned) == calls


def test_run_freezes_the_heap_before_exit():
    # atexit handlers still run after run() froze the heap, and the process
    # exits with main's code
    code = (
        "import atexit, gc; from cancornorm import cli; "
        "atexit.register(lambda: print(gc.get_freeze_count() > 0)); "
        "cli.run()"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    for alt, status in (("normal", 0), ("no_such_alternative", 2)):
        proc = subprocess.run(
            [sys.executable, "-c", code, "popvalues", "--p", "2", "--alt", alt],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == status, proc.stderr
        assert proc.stdout.splitlines()[-1] == "True"


def test_main_leaves_the_heap_unfrozen(capsys):
    frozen = gc.get_freeze_count()
    assert main(["popvalues", "--p", "2", "--alt", "normal"]) == 0
    assert gc.get_freeze_count() == frozen


def test_console_script_is_the_process_owning_entry():
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    if sys.version_info >= (3, 11):
        import tomllib

        scripts = tomllib.loads(text)["project"]["scripts"]
    else:  # no tomllib: read the section's key = "value" lines
        section = text.split("[project.scripts]\n", 1)[1].split("\n[", 1)[0]
        scripts = {
            key.strip(): value.strip().strip('"')
            for key, value in (line.split("=", 1) for line in section.splitlines() if "=" in line)
        }
    assert scripts == {"cancornorm": "cancornorm.cli:run"}


def test_exit_code_usage():
    # argparse handles malformed flag syntax itself, exiting with code 2
    for argv in (["power", "--alt"], ["power"], ["tables"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2



EXIT_CODES = [
    *[(error, 3, "data error") for error in (
        DataFileError, errors.TableMismatchError, errors.NullTableFormatError,
        errors.NullTableIntegrityError, errors.NullTableLengthError,
    )],
    *[(error, 4, "computation error") for error in (
        errors.SampleSizeError, errors.DegenerateSampleError, errors.SingularBlockError,
        errors.EigenvalueRangeError, errors.FunctionalDomainError,
        errors.MomentsUndefinedError, np.linalg.LinAlgError,
    )],
    (errors.MissingTableError, 2, "error"),
    (ValueError, 2, "error"),
]


@pytest.mark.parametrize("error, code, prefix", EXIT_CODES,
                         ids=[error.__name__ for error, _, _ in EXIT_CODES])
def test_each_error_type_exits_with_its_code(monkeypatch, capsys, error, code, prefix):
    def failing(ns):
        raise error("boom")

    monkeypatch.setattr(cli, "cmd_popvalues", failing)
    assert main(["popvalues", "--p", "2"]) == code
    assert capsys.readouterr().err == f"{prefix}: boom\n"

def test_calibrate_subprocess_exits_with_pool_alive(tmp_path):
    # a parallel run in a process the CLI owns shuts its pool down and exits
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    base = [sys.executable, "-m", "cancornorm.cli", "calibrate", "--n", "20", "--p", "2",
            "--reps", "1000", "--workers", "2", "--out-dir", str(tmp_path / "nulls")]
    proc = subprocess.run(base, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert len(list((tmp_path / "nulls").iterdir())) == 12
    proc = subprocess.run(base + ["--seed", "-1"], env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 2
    assert "non-negative" in proc.stderr and "calibrating" not in proc.stderr


def test_cli_import_loads_no_scipy():
    # no module of the package imports scipy
    code = "import sys, cancornorm.cli; print([m for m in sys.modules if m.startswith('scipy')])"
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert proc.stdout.strip() == "[]"


def _run_python(code, env=None):
    env = {**(os.environ if env is None else env),
           "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return proc.stdout.strip()


def test_calibrate_loads_no_package_metadata(tmp_path):
    # the null-table header takes cancornorm.__version__, not importlib.metadata
    out = tmp_path / "nulls"
    code = (
        "import sys; from cancornorm.cli import main; "
        "assert main(['calibrate', '--n', '20', '--p', '2', '--reps', '1000', "
        f"'--workers', '2', '--out-dir', {str(out)!r}]) == 0; "
        "print('importlib.metadata' in sys.modules)"
    )
    assert _run_python(code).splitlines()[-1] == "False"
    assert len(list(out.glob("*.null"))) == 12


def test_popvalues_loads_no_openssl(tmp_path):
    # hashlib, which loads OpenSSL (_hashlib), serves only null-table checksums
    code = (
        "import sys; from cancornorm.cli import main; "
        f"assert main(['popvalues', '--p', '3', '--out', {str(tmp_path / 'pop.csv')!r}]) == 0; "
        "print('_hashlib' in sys.modules)"
    )
    assert _run_python(code).splitlines()[-1] == "False"


def test_parallel_calibrate_loads_openssl_before_its_pool(tmp_path):
    # a worker's first chunk needs hashlib (numpy.random imports secrets);
    # loaded before the fork, its pages are shared with the parent
    out = tmp_path / "nulls"
    code = (
        "import sys\n"
        "from cancornorm import montecarlo\n"
        "from cancornorm.cli import main\n"
        "Pool, loaded = montecarlo.ProcessPoolExecutor, []\n"
        "def pool(*args, **kwargs):\n"
        "    loaded.append('_hashlib' in sys.modules)\n"
        "    return Pool(*args, **kwargs)\n"
        "montecarlo.ProcessPoolExecutor = pool\n"
        "assert main(['calibrate', '--n', '20', '--p', '2', '--reps', '1000', "
        f"'--workers', '2', '--out-dir', {str(out)!r}]) == 0\n"
        "print(loaded)\n"
    )
    assert _run_python(code).splitlines()[-1] == "[True]"


def test_package_import_loads_no_numpy():
    assert _run_python("import sys, cancornorm; print('numpy' in sys.modules)") == "False"


def test_package_exports_resolve_lazily():
    code = (
        "import cancornorm; "
        "missing = [n for n in cancornorm.__all__ if getattr(cancornorm, n, None) is None]; "
        "unlisted = sorted(set(cancornorm.__all__) - set(dir(cancornorm))); "
        "print(len(cancornorm.__all__), missing, unlisted)"
    )
    assert _run_python(code) == "44 [] []"
    import cancornorm
    from cancornorm import montecarlo, store

    assert cancornorm.calibrate is montecarlo.calibrate
    assert cancornorm.NullTable is store.NullTable is montecarlo.NullTable
    with pytest.raises(AttributeError):
        cancornorm.no_such_name


def test_cmd_test_loads_no_simulation_code(null_dir, tmp_path):
    data = generate(alternative("indep_exp", 2), 20, RngStream(49))
    csv_path = tmp_path / "d.csv"
    write_csv(csv_path, data)
    code = (
        "import sys; from cancornorm.cli import main; "
        f"assert main(['test', '--data', {str(csv_path)!r}, '--null-dir', {str(null_dir)!r}]) == 0; "
        "names = ('cancornorm.alternatives', 'cancornorm.montecarlo', 'cancornorm.matalg', "
        "'cancornorm.covblocks', 'concurrent.futures', 'importlib.metadata'); "
        "print('loaded:', [m for m in names if m in sys.modules])"
    )
    assert _run_python(code).splitlines()[-1] == "loaded: []"


BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Prints the BLAS thread settings as numpy starts to load under the CLI.
BLAS_AT_NUMPY_IMPORT = f"""
import os, sys
seen = []

class Watch:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" and not seen:
            seen.append([os.environ.get(v) for v in {BLAS_VARS!r}])

sys.meta_path.insert(0, Watch())
import cancornorm.cli
print(seen)
"""


def test_cli_pins_blas_threads_before_numpy_loads():
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    assert _run_python(BLAS_AT_NUMPY_IMPORT, env) == "[['1', '1', '1']]"


def test_cli_keeps_user_blas_threads():
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    env.update(OPENBLAS_NUM_THREADS="2", MKL_NUM_THREADS="3")
    assert _run_python(BLAS_AT_NUMPY_IMPORT, env) == "[['2', '1', '3']]"
