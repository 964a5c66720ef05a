#!/usr/bin/env python3
"""Toy-size self-test of the benchmark harness.

    python3 perfbench/selftest.py

Runs every workload of BENCHMARK.json at toy size, untraced and traced, and
checks that the last output line has exactly the result keys, that the run
is correct, and that it reports exactly the metrics BENCHMARK.json names,
with their units.  It also checks that the benchmark fails, without a
result, in a copy that holds only BENCHMARK.json and the benchmark's files.
Takes a few minutes on two CPUs.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run(args: list[str], cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run(args, cwd=cwd, capture_output=True, text=True, timeout=600)


def check_result(stdout: str, expected: dict[str, str], label: str) -> list[str]:
    result = json.loads(stdout.strip().splitlines()[-1])
    errors = []
    if set(result) != RESULT_KEYS:
        errors.append(f"{label}: result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        errors.append(f"{label}: not correct: {stdout[-3000:]}")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        errors.append(f"{label}: attempted {result.get('attempted')!r}")
    metrics = result.get("metrics", {})
    if set(metrics) != set(expected):
        missing = sorted(set(expected) - set(metrics))
        extra = sorted(set(metrics) - set(expected))
        errors.append(f"{label}: missing metrics {missing}, unexpected {extra}")
    for name, m in metrics.items():
        if set(m) != {"value", "unit"} or not isinstance(m["value"], (int, float)):
            errors.append(f"{label}: malformed metric {name}: {m}")
        elif name in expected and m["unit"] != expected[name]:
            errors.append(f"{label}: {name} unit {m['unit']!r}, expected {expected[name]!r}")
    return errors


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    command = spec["command"]
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    errors = []
    if "setup_s" not in end_to_end or any(m["bound"] > 0.25 for m in spec["end_to_end"]):
        errors.append("end_to_end needs setup_s and bounds of at most 0.25")

    for workload in (w["name"] for w in spec["workloads"]):
        for trace, expected in ((0, end_to_end), (1, per_layer)):
            label = f"{workload} trace {trace}"
            proc = run(
                [*command, "--workload", workload, "--seed", "1", "--seconds", "1",
                 "--trace", str(trace), "--toy"],
                ROOT,
            )
            if proc.returncode != 0:
                errors.append(f"{label}: exit code {proc.returncode}: {proc.stderr[-3000:]}")
                continue
            errors += check_result(proc.stdout, expected, label)
            print(f"{label}: ran", flush=True)

    bare = ROOT / ".perfbench_out" / "selftest_bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in spec["paths"]:
        shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
    workload = spec["workloads"][0]["name"]
    proc = run([*command, "--workload", workload, "--seed", "1", "--seconds", "1",
                "--trace", "0"], bare)
    if proc.returncode == 0 or proc.stdout.strip():
        errors.append(f"without the source: exit code {proc.returncode}, output {proc.stdout!r}")
    shutil.rmtree(bare)

    for e in errors:
        print(f"FAIL {e}")
    print("selftest passed" if not errors else f"selftest failed: {len(errors)} problem(s)")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
