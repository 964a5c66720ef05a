"""Output invariants of the CLI: each case runs its commands once per value
of one axis (worker count, row order, batching), in fresh processes under
``SOURCE_DATE_EPOCH=0`` and one BLAS thread, and every value must write the
same files with the same bytes.  The outputs stay under pytest's
``--basetemp``: to compare two source trees, run ``pytest
tests/test_invariants.py --basetemp A`` in one, ``--basetemp B`` in the
other, then ``diff -r A B``.
"""
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np
import pytest

from cancornorm.alternatives import available_alternatives

ENV = {**os.environ, "SOURCE_DATE_EPOCH": "0", "OPENBLAS_NUM_THREADS": "1",
       "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
WORKERS = ("1", "2")
SAMPLE = np.random.default_rng(8).standard_exponential((30, 2))


@dataclass(frozen=True)
class Case:
    values: tuple  # the axis: one directory per value
    files: int  # outputs each value must write
    commands: Callable  # value -> CLI command lines, run in the value's directory
    setup: tuple = ()  # command lines run once, in the case's directory
    data: Optional[dict] = None  # value -> sample written as data.csv before the commands
    join: bool = False  # compare the outputs' CSV bodies, joined in name order


CASES = {
    # (20, 2) runs as 4 chunks of 1024 on one worker, as 8 of 512 on two; the
    # (100, 5) temporaries come from the CLI's tuned heap or the workers' ones
    "null-tables": Case(WORKERS, 24, lambda w: [
        f"calibrate --n 20 --p 2 --reps 4096 --seed 3 --workers {w} --out-dir .",
        f"calibrate --n 100 --p 5 --reps 1024 --seed 3 --workers {w} --out-dir .",
    ]),
    # a replication's products take 240 kB at (1000, 4), so each chunk of 256
    # forms them in passes of 8 replications (engine.PRODUCT_BUDGET)
    "large-n": Case(WORKERS, 12, lambda w: [
        f"calibrate --n 1000 --p 4 --reps 1024 --seed 3 --workers {w} --out-dir .",
    ]),
    # the z3 b22 block's 56 distinct triples: the longest term-map rows and
    # the largest factor the engine inverts
    "p6": Case(WORKERS, 12, lambda w: [
        f"calibrate --n 100 --p 6 --reps 1024 --seed 3 --workers {w} --out-dir .",
    ]),
    # whole power studies, calibration included; at p = 3 the draw groups
    # stack up to 10 alternatives in one batch
    "power-p2": Case(WORKERS, 1, lambda w: [
        f"tables --which 2 --reps 200 --calib-reps 1000 --seed 5 --workers {w} --out power.csv",
    ]),
    "power-p3": Case(WORKERS, 1, lambda w: [
        f"tables --which 4 --reps 200 --calib-reps 1000 --seed 5 --workers {w} --out power.csv",
    ]),
    # 4096 replications run as 4 chunks of 1024 on one worker, as 8 of 512
    # on two, so the reports must not depend on the batch size either
    "power-reports": Case(WORKERS, 2, lambda w: [
        f"power --alt laplace2 --n 20 --p 2 --reps 4096 --null-dir ../nulls --format {fmt} "
        f"--workers {w} --out report.{fmt}" for fmt in ("csv", "json")
    ], setup=("calibrate --n 20 --p 2 --reps 1000 --seed 3 --workers 2 --out-dir nulls",)),
    # one sample and its rows reversed, each saved as data.csv in its own
    # directory, so that the JSON's "data" field agrees too
    "row-order": Case(("forward", "reversed"), 1, lambda _: [
        "test --data data.csv --null-dir ../nulls --json result.json",
    ], setup=("calibrate --n 30 --p 2 --reps 1000 --seed 3 --workers 2 --out-dir nulls",),
        data={"forward": SAMPLE, "reversed": SAMPLE[::-1]}),
    # one stacked evaluation of every alternative against one per alternative
    "population": Case(("stacked", "one-each"), 1, lambda v: [
        "popvalues --p 3 --out all.csv"
    ] if v == "stacked" else [
        f"popvalues --p 3 --alt {name} --out {i:02d}-{name}.csv"
        for i, name in enumerate(available_alternatives())
    ], join=True),
}


def cli(command, cwd):
    proc = subprocess.run([sys.executable, "-m", "cancornorm.cli", *command.split()],
                          cwd=cwd, env=ENV, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, f"{command}\n{proc.stderr}"


@pytest.mark.parametrize("name", CASES)
def test_invariant(name, tmp_path):
    case = CASES[name]
    for command in case.setup:
        cli(command, tmp_path)
    written = {}
    for value in case.values:
        d = tmp_path / value
        d.mkdir()
        if case.data is not None:
            np.savetxt(d / "data.csv", case.data[value], delimiter=",", fmt="%.17g")
        inputs = set(d.iterdir())
        for command in case.commands(value):
            cli(command, d)
        files = {f.name: f.read_bytes() for f in sorted(set(d.iterdir()) - inputs)}
        if case.join:
            files = {"bodies": b"".join(b.split(b"\n", 1)[1] for b in files.values())}
        assert len(files) == case.files, (value, sorted(files))
        written[value] = files
    first, *others = case.values
    for value in others:
        differ = [f for f in written[first].keys() | written[value].keys()
                  if written[first].get(f) != written[value].get(f)]
        assert not differ, f"{first} and {value} differ in {sorted(differ)}"
