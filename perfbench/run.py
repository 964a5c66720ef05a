#!/usr/bin/env python3
"""Benchmark of the cancornorm command-line workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

It runs the package under ``src/`` of the checkout that holds this file and
exits with code 2, printing no result, when that source is missing.  With
``--trace 0`` it times fresh-process ``cancornorm`` invocations of one
workload for about S seconds, checks every invocation's output and reports
the end-to-end metrics.  With ``--trace 1`` it instead replays the workload
in-process with spans at the module boundaries and times the public
functions of every module (``perfbench/traced.py``).  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.  A result file with provenance is written to
``.perfbench_out/results/``.  ``perfbench/README.md`` explains the
workloads and the metrics.
"""

from __future__ import annotations

import os

# BLAS is pinned to one thread before numpy is imported here or in any child:
# with the library default, two workers each start one BLAS thread per CPU
# and the timings measure the scheduler (README.md gives the spread).
ORIGINAL_ENV = dict(os.environ)
BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_PIN)

import argparse  # noqa: E402
import csv  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

from traced import POINTS  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

WORKERS = 2  # at most nproc on the 2-CPU reference machine; passed explicitly
SETUP_REPEATS = 3
MIN_INVOCATIONS = 2
INVOCATION_BUDGET_S = 120  # no invocation starts that is expected to end later
CHILD_TIMEOUT_S = 170
# Net time of one reference.py run on the reference machine (2-vCPU Xeon VM)
# in a quiet period.  Times are reported at that speed: they are divided by
# the mean time of the reference runs made with them and multiplied by this.
REFERENCE_S = 0.50
REFERENCE_SHARE = 0.3  # reference time after an invocation, as a share of its time
MAX_REPEATS = 8  # reference runs after one invocation

STATISTIC_NAMES = (
    "mardia_skew", "mardia_kurt",
    "z2_hl", "z2_w", "z2_pb", "z2_max", "z2_min",
    "z3_hl", "z3_w", "z3_pb", "z3_max", "z3_min",
)
ALTERNATIVES = 27  # the study's alternatives; popvalues adds the normal row
RTOL, ATOL = 1e-9, 1e-12  # engine vs per-sample agreement, as in the unit tests


class SetupError(RuntimeError):
    """The checkout cannot run the workload; no result is printed."""


def child_env(pinned: bool = True) -> dict[str, str]:
    env = dict(ORIGINAL_ENV)
    if pinned:
        env.update(BLAS_PIN)
    env["PYTHONPATH"] = str(SRC)
    return env


def steal_seconds() -> float:
    """Steal time of all CPUs so far, from /proc/stat; 0 where not reported."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


@dataclass
class Timing:
    """Wall, CPU and steal time of one measured step.

    ``cpu_s`` is user + system time of the processes doing the work (pool
    workers included); ``steal_s`` is the time the hypervisor ran other
    guests on this machine's CPUs meanwhile.  Steal accrues only on CPUs
    that have work, here the benchmark's, so ``net_s`` removes from the wall
    time the stolen share of the busy time: on an unshared machine it equals
    the wall time.
    """

    wall_s: float
    cpu_s: float
    steal_s: float

    @property
    def net_s(self) -> float:
        busy = self.cpu_s + self.steal_s
        return self.wall_s * self.cpu_s / busy if busy > 0 else self.wall_s


def cpu_seconds() -> float:
    """CPU time of this process and of its reaped children so far."""
    return sum(
        u.ru_utime + u.ru_stime
        for u in (resource.getrusage(resource.RUSAGE_SELF),
                  resource.getrusage(resource.RUSAGE_CHILDREN))
    )


def measure(fn) -> Timing:
    """Time fn(), whose processes must all have ended when it returns."""
    t0, cpu0, steal0 = time.perf_counter(), cpu_seconds(), steal_seconds()
    fn()
    return Timing(time.perf_counter() - t0, cpu_seconds() - cpu0, steal_seconds() - steal0)


@dataclass
class Invocation:
    timing: Timing
    returncode: int
    maxrss_mb: float


def run_process(argv: list[str], log: Path, pinned: bool = True) -> Invocation:
    """Run ARGV in a fresh process; wait for it and its workers.

    ``wait4`` returns the peak RSS of the largest of the process and the
    descendants it reaped, so pool workers are included.
    """
    with open(log, "wb") as fh:
        steal0 = steal_seconds()
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            argv, cwd=ROOT, env=child_env(pinned), stdout=fh, stderr=subprocess.STDOUT,
        )
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - t0
        steal = steal_seconds() - steal0
    proc.returncode = os.waitstatus_to_exitcode(status)
    timing = Timing(wall, usage.ru_utime + usage.ru_stime, steal)
    return Invocation(timing, proc.returncode, usage.ru_maxrss / 1024.0)


def run_cli(args: list[str], log: Path, pinned: bool = True) -> Invocation:
    """Run ``cancornorm ARGS`` in a fresh interpreter."""
    return run_process([sys.executable, "-m", "cancornorm.cli", *args], log, pinned)


def reference(log: Path, copies: int) -> Timing:
    """Time COPIES concurrent runs of ``reference.py``, each in a fresh interpreter.

    A workload that keeps WORKERS processes busy is compared with as many
    copies, so that the reference loads the machine as the workload does.
    """
    with open(log, "ab") as fh:
        steal0 = steal_seconds()
        t0 = time.perf_counter()
        procs = []
        try:
            for _ in range(copies):
                procs.append(subprocess.Popen(
                    [sys.executable, str(HERE / "reference.py")],
                    cwd=ROOT, env=child_env(), stdout=fh, stderr=subprocess.STDOUT,
                ))
            cpu, failed = 0.0, False
            while procs:
                _, status, usage = os.wait4(procs[0].pid, 0)
                procs.pop(0)
                cpu += usage.ru_utime + usage.ru_stime
                failed |= os.waitstatus_to_exitcode(status) != 0
        except BaseException:
            for proc in procs:
                proc.kill()
                proc.wait()
            raise
        timing = Timing(time.perf_counter() - t0, cpu, steal_seconds() - steal0)
    if failed:
        raise RuntimeError(f"reference work failed; see {log}")
    return timing


def references(log: Path, copies: int, repeats: int) -> list[float]:
    """Net times of REPEATS references in a row."""
    return [reference(log, copies).net_s for _ in range(repeats)]


def speed_factor(refs: list[float]) -> float:
    """How much slower than REFERENCE_S the machine ran the references."""
    return statistics.fmean(refs) / REFERENCE_S


def run_python(args: list[str]) -> str:
    """Run a Python helper in a fresh pinned interpreter and return its stdout."""
    proc = subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=child_env(), capture_output=True,
        text=True, timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(args[:2])} failed:\n{proc.stderr[-2000:]}")
    return proc.stdout


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def require_source() -> None:
    if not (SRC / "cancornorm" / "__init__.py").is_file():
        raise SetupError(f"no cancornorm source under {SRC}")


def check_startup() -> None:
    """Fresh-process import of the checkout's package (byte-compiles it once)."""
    require_source()
    code = "import sys, cancornorm; sys.stdout.write(cancornorm.__file__)"
    try:
        out = run_python(["-c", code])
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        raise SetupError(f"cannot import cancornorm from {SRC}: {exc}") from exc
    if Path(out).resolve() != (SRC / "cancornorm" / "__init__.py").resolve():
        raise SetupError(f"imported cancornorm from {out}, not from {SRC}")


def import_package():
    """Import the checkout's package into this process (for output checks)."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import cancornorm

    return cancornorm


def close(a: float, b: float) -> bool:
    return abs(a - b) <= ATOL + RTOL * abs(b)


def read_null(path: Path):
    """Header dict and float64 payload of a null-table file (store format v1)."""
    import numpy as np

    raw = path.read_bytes()
    head, _, payload = raw.partition(b"\n")
    return json.loads(head), np.frombuffer(payload, dtype="<f8"), payload


def read_csv_rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


# ---------------------------------------------------------------------------
# workloads
#
# Each workload is one CLI command.  ``prepare`` makes its inputs from the
# seed (timed as set-up), ``argv`` builds one invocation, and ``check``
# returns the problems found in each invocation's output directory.


class Workload:
    name = ""
    item = ""  # what ms_per_rep divides by
    processes = 1  # processes an invocation keeps busy

    def prepare(self, inputs: Path, seed: int) -> None:
        pass

    def argv(self, inputs: Path, seed: int, out: Path, workers: int) -> list[str]:
        raise NotImplementedError

    def items(self) -> int:
        raise NotImplementedError

    def counts(self) -> dict[str, int]:
        """Work of one invocation: the bases of every ratio."""
        raise NotImplementedError

    def check(self, outs: list[Path], inputs: Path, seed: int) -> list[list[str]]:
        raise NotImplementedError


class StudyP2(Workload):
    """Power-table reproduction: ``tables --which 2``."""

    name = "study_p2"
    processes = WORKERS
    item = "replication (calibration + power)"

    def __init__(self, toy: bool):
        self.reps = 20 if toy else 1000
        self.calib_reps = 1000  # the library minimum

    def argv(self, inputs, seed, out, workers):
        return [
            "tables", "--which", "2", "--reps", str(self.reps),
            "--calib-reps", str(self.calib_reps), "--seed", str(seed),
            "--workers", str(workers), "--out", str(out / "table2.csv"),
        ]

    def items(self):
        return 2 * (self.calib_reps + ALTERNATIVES * self.reps)

    def counts(self):
        return {
            "replications": self.items(),
            "simulate_calls": 2 * (1 + ALTERNATIVES),
            "cli_invocations": 1,
            "tables_read": 0,
        }

    def check(self, outs, inputs, seed):
        return [self._check_one(out / "table2.csv") for out in outs]

    def _check_one(self, path: Path) -> list[str]:
        if not path.is_file():
            return [f"{path.name} missing"]
        rows = read_csv_rows(path)
        problems = []
        if len(rows) != 2 * ALTERNATIVES * (len(STATISTIC_NAMES) + 1):
            problems.append(f"{len(rows)} rows")
        if len({(r["alternative"], r["n"]) for r in rows}) != 2 * ALTERNATIVES:
            problems.append("wrong (alternative, n) cells")
        for r in rows:
            if r["statistic"] == "t_omnibus":
                continue
            if not 0.0 <= float(r["power"]) <= 1.0 or int(r["reps"]) != self.reps:
                problems.append(f"bad row {r}")
                break
        return problems


class CalibP5(Workload):
    """Null-table calibration at (n, p) = (100, 5): ``calibrate``."""

    name = "calib_p5"
    processes = WORKERS
    item = "replication"
    regenerated = 2  # replications recomputed on the per-sample path

    def __init__(self, toy: bool):
        self.n, self.p, self.reps = (20, 2, 1000) if toy else (100, 5, 2048)

    def argv(self, inputs, seed, out, workers):
        return [
            "calibrate", "--n", str(self.n), "--p", str(self.p), "--reps", str(self.reps),
            "--seed", str(seed), "--workers", str(workers), "--out-dir", str(out),
        ]

    def items(self):
        return self.reps

    def counts(self):
        return {
            "replications": self.reps, "simulate_calls": 1, "cli_invocations": 1,
            "tables_read": 0,
        }

    def _file(self, out: Path, stat: str) -> Path:
        return out / f"{stat}_n{self.n}_p{self.p}.null"

    def check(self, outs, inputs, seed):
        import numpy as np

        # Worker-count identity: bit-exact by design, so compared byte for byte.
        serial = inputs.parent / "workers1"
        serial.mkdir(exist_ok=True)
        inv = run_cli(self.argv(inputs, seed, serial, 1), serial / "cli.log")
        cc = import_package()
        spec = cc.alternative("normal", self.p)
        expected = [
            cc.compute_statistics(cc.generate(spec, self.n, cc.RngStream(seed).child(0, r)))
            for r in range(self.regenerated)
        ]
        results = []
        for out in outs:
            problems = []
            for stat in STATISTIC_NAMES:
                path = self._file(out, stat)
                if not path.is_file():
                    problems.append(f"{path.name} missing")
                    continue
                head, values, payload = read_null(path)
                if (head["n"], head["p"], head["replications"]) != (self.n, self.p, self.reps):
                    problems.append(f"{path.name}: header {head}")
                if len(values) != self.reps or hashlib.sha256(payload).hexdigest() != head["payload_sha256"]:
                    problems.append(f"{path.name}: payload length or checksum")
                    continue
                if not np.all(np.isfinite(values)) or np.any(np.diff(values) < 0):
                    problems.append(f"{path.name}: values not finite and sorted")
                serial_path = self._file(serial, stat)
                if inv.returncode != 0 or not serial_path.is_file():
                    problems.append("--workers 1 run failed")
                elif read_null(serial_path)[2] != payload:
                    problems.append(f"{path.name}: payload differs from --workers 1")
                for r, stats_r in enumerate(expected):
                    v = stats_r[cc.StatisticId.parse(stat)]
                    i = int(np.clip(np.searchsorted(values, v), 1, len(values) - 1))
                    if not (close(values[i - 1], v) or close(values[i], v)):
                        problems.append(f"{stat}: replication {r} value {v!r} not in table")
            results.append(problems)
        return results


class TestP4(Workload):
    """Per-dataset latency: ``test --json`` on one n = 60, p = 4 CSV."""

    name = "test_p4"
    item = "statistic tested"

    def __init__(self, toy: bool):
        self.n, self.p = (20, 2) if toy else (60, 4)
        self.null_reps = 1000

    def prepare(self, inputs, seed):
        import numpy as np

        rng = np.random.default_rng(seed)
        mixing = np.eye(self.p) + 0.3 * rng.standard_normal((self.p, self.p))
        data = rng.standard_normal((self.n, self.p)) @ mixing + rng.normal(0, 10, self.p)
        with open(inputs / "data.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow([f"x{j + 1}" for j in range(self.p)])
            writer.writerows([[repr(float(v)) for v in row] for row in data])
        inv = run_cli(
            [
                "calibrate", "--n", str(self.n), "--p", str(self.p),
                "--reps", str(self.null_reps), "--seed", str(seed),
                "--workers", str(WORKERS), "--out-dir", str(inputs / "nulls"),
            ],
            inputs / "calibrate.log",
        )
        if inv.returncode != 0:
            raise SetupError(f"null-table calibration failed; see {inputs / 'calibrate.log'}")

    def argv(self, inputs, seed, out, workers):
        return [
            "test", "--data", str(inputs / "data.csv"), "--null-dir", str(inputs / "nulls"),
            "--json", str(out / "result.json"),
        ]

    def items(self):
        return len(STATISTIC_NAMES)

    def counts(self):
        return {
            "replications": 0, "simulate_calls": 0, "cli_invocations": 1,
            "tables_read": len(STATISTIC_NAMES),
        }

    def check(self, outs, inputs, seed):
        cc = import_package()
        from cancornorm.cli import read_csv_sample
        from cancornorm.store import find_null

        data = read_csv_sample(inputs / "data.csv")
        expected = []
        for sid in cc.ALL_STATISTICS:
            table = find_null(inputs / "nulls", sid, self.n, self.p)
            expected.append(cc.run_test(data, sid, table, alpha=0.05))
        step = 1.0 / (self.null_reps + 1)  # one rank of the null table
        results = []
        for out in outs:
            path = out / "result.json"
            if not path.is_file():
                results.append(["result.json missing"])
                continue
            doc = json.loads(path.read_text())
            problems = []
            if (doc["n"], doc["p"]) != (self.n, self.p) or len(doc["results"]) != len(expected):
                problems.append("wrong shape or statistic count")
            for got, want in zip(doc["results"], expected):
                if got["statistic"] != want.statistic.name or not close(got["value"], want.value):
                    problems.append(f"{got['statistic']}: value {got['value']!r} != {want.value!r}")
                if abs(got["p_value"] - want.p_value) > step + ATOL:
                    problems.append(f"{got['statistic']}: p-value {got['p_value']} != {want.p_value}")
                if got["reject"] != (got["p_value"] <= 0.05):
                    problems.append(f"{got['statistic']}: decision disagrees with p-value")
            results.append(problems)
        return results


class PopvaluesP3(Workload):
    """Large-n population values at p = 3: ``popvalues``."""

    name = "popvalues_p3"
    item = "population value"

    def __init__(self, toy: bool):
        self.p = 2 if toy else 3
        self.alternatives = ("normal",) if toy else None  # None: all 28 rows

    def argv(self, inputs, seed, out, workers):
        alt = ["--alt", self.alternatives[0]] if self.alternatives else []
        return ["popvalues", "--p", str(self.p), *alt, "--out", str(out / "popvalues.csv")]

    def _rows(self) -> int:
        return len(self.alternatives) if self.alternatives else ALTERNATIVES + 1

    def items(self):
        return self._rows() * len(STATISTIC_NAMES)

    def counts(self):
        return {"replications": 0, "simulate_calls": 0, "cli_invocations": 1, "tables_read": 0}

    def check(self, outs, inputs, seed):
        return [self._check_one(out / "popvalues.csv") for out in outs]

    def _check_one(self, path: Path) -> list[str]:
        if not path.is_file():
            return [f"{path.name} missing"]
        rows = read_csv_rows(path)
        problems = []
        if len(rows) != self.items():
            problems.append(f"{len(rows)} rows")
        # Closed forms of the normal row: kurtosis p(p + 2), products 1, rest 0.
        normal = {r["statistic"]: float(r["value"]) for r in rows if r["alternative"] == "normal"}
        for stat in STATISTIC_NAMES:
            want = {"mardia_kurt": self.p * (self.p + 2), "z2_w": 1.0, "z3_w": 1.0}.get(stat, 0.0)
            if stat not in normal or abs(normal[stat] - want) > 1e-9:
                problems.append(f"normal {stat} = {normal.get(stat)!r}, expected {want}")
        for r in rows:
            if r["value"] not in ("--", "X"):
                float(r["value"])
        return problems


WORKLOADS = {w.name: w for w in (StudyP2, CalibP5, TestP4, PopvaluesP3)}


# ---------------------------------------------------------------------------
# provenance


def provenance(seed: int, workers: int) -> dict:
    import numpy
    import scipy

    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                timeout=30,
            ).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads_env": dict(BLAS_PIN),
        "blas_threads_env_before_pinning": {k: ORIGINAL_ENV.get(k) for k in BLAS_PIN},
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "seed": seed,
        "workers": workers,
    }


# ---------------------------------------------------------------------------
# runs


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def upper_percentile(values: list[float]) -> dict | None:
    """The highest percentile with at least ten samples beyond it, if any."""
    n = len(values)
    if n < 11:
        return None
    k = n - 11  # 0-based rank with ten samples above it
    return {"percentile": 100.0 * (k + 1) / n, "value": sorted(values)[k]}


def timed_run(wl: Workload, seed: int, seconds: float, work: Path) -> dict:
    require_source()
    refs_dir = fresh_dir(work / "reference")
    copies = wl.processes
    # One reference run before and after each set-up, several after each
    # invocation; every time is scaled by the references made with it.
    setup_refs = [reference(refs_dir / "setup.log", copies).net_s]
    setups = []
    for k in range(SETUP_REPEATS):
        inputs = fresh_dir(work / f"inputs{k}")
        setups.append(measure(lambda: (check_startup(), wl.prepare(inputs, seed))))
        setup_refs.append(reference(refs_dir / "setup.log", copies).net_s)
    inputs = work / "inputs0"

    invocations: list[Invocation] = []
    outs: list[Path] = []
    gaps = [references(refs_dir / "run.log", copies, 1)]
    t_start = time.perf_counter()
    while True:
        out = fresh_dir(work / f"run{len(invocations)}")
        inv = run_cli(wl.argv(inputs, seed, out, WORKERS), out / "cli.log")
        invocations.append(inv)
        outs.append(out)
        # Reference work of about REFERENCE_SHARE of the invocation's time.
        repeats = round(REFERENCE_SHARE * inv.timing.net_s / statistics.fmean(gaps[-1]))
        gaps.append(references(refs_dir / "run.log", copies, max(1, min(repeats, MAX_REPEATS))))
        elapsed = time.perf_counter() - t_start
        typical = elapsed / len(invocations)
        # Stop at the invocation count whose total is nearest to --seconds.
        if len(invocations) >= MIN_INVOCATIONS and elapsed + typical / 2 >= seconds:
            break
        if elapsed + typical > INVOCATION_BUDGET_S:
            break

    problems = wl.check(outs, inputs, seed)
    for i, inv in enumerate(invocations):
        if inv.returncode != 0:
            problems[i].insert(0, f"exit code {inv.returncode}; see {outs[i] / 'cli.log'}")
    failed = sum(1 for p in problems if p)
    nets = [i.timing.net_s for i in invocations]
    # The mean time over the mean reference: both average the same stretch of
    # time, so the machine's drift within the run cancels as well.
    speed = speed_factor([r for gap in gaps for r in gap])
    wall = statistics.fmean(nets) / speed
    # Latencies: each invocation over the references just before and after it.
    latencies = [n / speed_factor(a + b) for n, a, b in zip(nets, gaps, gaps[1:])]
    setup_factors = [speed_factor(pair) for pair in zip(setup_refs, setup_refs[1:])]
    metrics = {
        "wall_s": (wall, "s"),
        "ms_per_rep": (1000.0 * wall / wl.items(), "ms"),
        "latency_p50_ms": (1000.0 * statistics.median(latencies), "ms"),
        "peak_rss_mb": (max(i.maxrss_mb for i in invocations), "MB"),
        "setup_s": (statistics.median(t.net_s / f for t, f in zip(setups, setup_factors)), "s"),
    }
    high = upper_percentile(latencies)
    return {
        "attempted": len(invocations),
        "failed": failed,
        "metrics": metrics,
        "extra": {
            "failed_frac": failed / len(invocations),
            "invocations": len(invocations),
            "latency_high_percentile_ms": high and {
                "percentile": high["percentile"], "value": 1000.0 * high["value"],
            },
            "ms_per_rep_base": f"{wl.items()} x {wl.item} per invocation",
            "counts_per_invocation": wl.counts(),
            "speed_factor": speed,
            "invocation_latency_s": latencies,
            "invocation_net_s": nets,
            "reference_net_s": gaps,
            "setup_reference_net_s": setup_refs,
            "invocation_wall_s": [i.timing.wall_s for i in invocations],
            "invocation_cpu_s": [i.timing.cpu_s for i in invocations],
            "invocation_steal_s": [i.timing.steal_s for i in invocations],
            "invocation_peak_rss_mb": [i.maxrss_mb for i in invocations],
            "setup_each": [vars(t) for t in setups],
            "problems": {f"run{i}": p for i, p in enumerate(problems) if p},
        },
    }


def traced_run(wl: Workload, seed: int, work: Path, toy: bool) -> dict:
    inputs = fresh_dir(work / "inputs")
    check_startup()
    wl.prepare(inputs, seed)
    metrics: dict[str, tuple[float, str]] = {}

    # Untraced reference with the replay's worker count, then the replay.
    ref_out = fresh_dir(work / "reference")
    ref = run_cli(wl.argv(inputs, seed, ref_out, 1), ref_out / "cli.log")
    replay_out = fresh_dir(work / "replay")
    replay = last_json(run_python([
        str(HERE / "traced.py"), "replay", "--workload", wl.name,
        "--spans", str(work / "spans.tsv"), "--", *wl.argv(inputs, seed, replay_out, 1),
    ]))
    outs = [ref_out, replay_out]
    checked = wl.check(outs, inputs, seed)
    if ref.returncode != 0:
        checked[0].insert(0, f"exit code {ref.returncode}")
    if replay["returncode"] != 0:
        checked[1].insert(0, f"exit code {replay['returncode']}")
    problems = {label: p for label, p in zip(("reference", "replay"), checked)}
    metrics["trace.span_coverage"] = (replay["root_s"] / ref.timing.wall_s, "ratio")
    metrics["trace.orchestration_s"] = (ref.timing.wall_s - replay["root_s"], "s")
    metrics["trace.replay_s"] = (replay["root_s"], "s")

    # In-process layer timings, each group in a fresh interpreter.
    layer_args = [str(HERE / "traced.py"), "layers", "--seed", str(seed),
                  "--scratch", str(fresh_dir(work / "layers"))]
    layers = last_json(run_python(layer_args + (["--toy"] if toy else [])))
    metrics.update({k: tuple(v) for k, v in layers["metrics"].items()})
    for point in POINTS:
        cold = last_json(run_python([
            str(HERE / "traced.py"), "cold", "--point", point, "--seed", str(seed),
            *(["--toy"] if toy else []),
        ]))
        metrics[f"engine.cold_ms.{point}"] = (cold["cold_ms"], "ms")

    imports = []
    for _ in range(3):
        t0 = time.perf_counter()
        run_python(["-c", "import cancornorm"])
        imports.append(time.perf_counter() - t0)
    metrics["cli.import_s"] = (statistics.median(imports), "s")

    # Default BLAS threading over pinned, same command: informational.
    n, p, reps = (20, 2, 1000) if toy else (100, 5, 1024)
    walls = {}
    for pinned in (True, False):
        out = fresh_dir(work / f"blas_pinned{int(pinned)}")
        inv = run_cli(
            ["calibrate", "--n", str(n), "--p", str(p), "--reps", str(reps), "--seed", str(seed),
             "--workers", str(WORKERS), "--out-dir", str(out)],
            out / "cli.log", pinned=pinned,
        )
        problems[f"blas_pinned{int(pinned)}"] = (
            [f"exit code {inv.returncode}"] if inv.returncode != 0 else []
        )
        walls[pinned] = inv.timing.wall_s
    metrics["montecarlo.blas_oversub_ratio"] = (walls[False] / walls[True], "ratio")

    return {
        "attempted": len(problems),
        "failed": sum(1 for p in problems.values() if p),
        "metrics": metrics,
        "extra": {
            "reference": vars(ref.timing),
            "reference_workers": 1,
            "counts_per_invocation": wl.counts(),
            "replay": replay,
            "problems": {k: p for k, p in problems.items() if p},
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true",
                        help="tiny sizes, for the harness self-test only")
    ns = parser.parse_args(argv)
    wl = WORKLOADS[ns.workload](ns.toy)
    work = fresh_dir(OUT / "work" / f"{wl.name}-seed{ns.seed}-trace{ns.trace}")
    try:
        if ns.trace:
            result = traced_run(wl, ns.seed, work, ns.toy)
        else:
            result = timed_run(wl, ns.seed, ns.seconds, work)
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    record = {
        "workload": wl.name,
        "trace": ns.trace,
        "toy": ns.toy,
        "seconds": ns.seconds,
        "provenance": provenance(ns.seed, 1 if ns.trace else WORKERS),
        **result,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
    }
    results_dir = OUT / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    path = results_dir / f"{wl.name}-seed{ns.seed}-trace{ns.trace}.json"
    path.write_text(json.dumps(record, indent=2) + "\n")

    print(f"workload {wl.name}  seed {ns.seed}  trace {ns.trace}  "
          f"BLAS threads pinned to 1  result file {path.relative_to(ROOT)}")
    for name, (value, unit) in result["metrics"].items():
        print(f"  {name:<44} {value:>14.6g} {unit}")
    extra = result["extra"]
    if not ns.trace:
        print(f"  {'failed_frac':<44} {extra['failed_frac']:>14.6g} "
              f"({result['failed']}/{result['attempted']} invocations)")
        print(f"  invocations {extra['invocations']}; ms_per_rep base: {extra['ms_per_rep_base']}; "
              f"highest percentile with ten samples beyond: {extra['latency_high_percentile_ms']}")
        print("  medians before scaling to the reference speed: net %.6g s, wall %.6g s, "
              "cpu %.6g s, steal %.6g s; speed factor %.4g" % (
                  *(statistics.median(extra[f"invocation_{k}_s"])
                    for k in ("net", "wall", "cpu", "steal")),
                  extra["speed_factor"]))
    else:
        for layer, secs in sorted(extra["replay"]["self_s"].items()):
            print(f"  self time {layer:<34} {secs:>14.6g} s")
    for label, msgs in extra["problems"].items():
        print(f"  problems in {label}: {'; '.join(msgs)}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
