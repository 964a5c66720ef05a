"""Defects that the suite must catch, and a script that checks it does.

Each mutant is an exact source fragment of one package file, its
replacement, and the tests that must fail once the replacement is made.
For each mutant the script copies ``src/``, ``tests/`` and
``pyproject.toml`` to a temporary directory, checks that the fragment
occurs exactly once there (so a refactor that moves the code fails loudly
instead of leaving a mutant that no longer applies), makes the edit and
runs only the named tests on the copy.  A mutant is caught when every test
it names fails.  The unmutated copy must pass all the named tests first, so
a test that fails anyway proves nothing.

Run from anywhere, with pytest and the package's test dependencies
installed:

    python tests/mutants.py

It prints one line per mutant and exits 1 when the unmutated copy fails,
a fragment does not occur exactly once or a mutant is missed.  pytest does
not collect this file, since its name does not start with ``test_``.  A new
value-checking test adds its mutant to ``MUTANTS``.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import xml.etree.ElementTree as ET
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the repository root
    fragment: str
    replacement: str
    tests: tuple[str, ...]  # pytest node ids, each of which must fail


MUTANTS = (
    Mutant(
        "_entry_factor takes |pivot|, so it accepts a negative pivot",
        "src/cancornorm/engine.py",
        "s = np.sqrt(np.where((s > 0.0) & (s < np.inf), s, np.nan))",
        "s = np.sqrt(np.abs(s))",
        tuple(f"tests/test_engine.py::test_elementwise_failures_match_lapack[{p}]" for p in range(1, 7)),
    ),
    Mutant(
        "checked_factor skips the exact cond above the certified bound's limit",
        "src/cancornorm/engine.py",
        "        bound[suspect] = np.linalg.cond(a[suspect])\n",
        "        pass\n",
        (
            "tests/test_engine.py::test_degeneracy_decision_at_condition_limit[800000000000.0-True]",
            "tests/test_cancor.py::test_b22_decision_at_condition_limit",
        ),
    ),
    Mutant(
        "checked_factor returns unchecked once LAPACK fails the stack",
        "src/cancornorm/engine.py",
        "        except np.linalg.LinAlgError:\n            pass\n",
        "        except np.linalg.LinAlgError:\n            return _entry_factor(a)[0]\n",
        (
            *(f"tests/test_engine.py::test_elementwise_failures_match_lapack[{p}]" for p in range(3, 7)),
            "tests/test_engine.py::test_block_pass_failure_names_its_batch_item",
        ),
    ),
    Mutant(
        "the z2 b22 loses its m2 product",
        "src/cancornorm/engine.py",
        "b22 = m4 - m2p[:, :, None] * m2p[:, None, :]",
        "b22 = m4.copy()",
        (
            "tests/test_null_moments.py::test_z2_hl_matches_its_null_limit[2000-1-4096]",
            "tests/test_null_moments.py::test_z2_hl_matches_its_null_limit[2000-2-4096]",
            "tests/test_null_moments.py::test_z2_hl_matches_its_null_limit[1000-3-2048]",
        ),
    ),
)


def copy_tree(dest: Path) -> None:
    shutil.copytree(ROOT / "src", dest / "src", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(ROOT / "tests", dest / "tests", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy2(ROOT / "pyproject.toml", dest / "pyproject.toml")


def failed_tests(tree: Path, tests: tuple[str, ...]) -> set[str]:
    """The node ids among ``tests`` that fail (or do not run) in ``tree``."""
    report = tree / "report.xml"
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", f"--junitxml={report}", *tests],
        cwd=tree, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, check=False,
    )
    passed = set()
    if report.exists():
        for case in ET.parse(report).iter("testcase"):
            if not any(child.tag in ("failure", "error", "skipped") for child in case):
                module, name = case.get("classname", ""), case.get("name", "")
                passed.add(f"{module.replace('.', '/')}.py::{name}")
        report.unlink()
    return set(tests) - passed


def main() -> int:
    ok = True
    named = tuple(dict.fromkeys(test for mutant in MUTANTS for test in mutant.tests))
    with tempfile.TemporaryDirectory(prefix="mutants-") as scratch:
        tree = Path(scratch)
        copy_tree(tree)
        failing = failed_tests(tree, named)
        if failing:
            print(f"unmutated copy fails {sorted(failing)}")
            return 1
        print(f"unmutated copy passes all {len(named)} named tests")
        for mutant in MUTANTS:
            path = tree / mutant.path
            source = path.read_text()
            count = source.count(mutant.fragment)
            if count != 1:
                print(f"STALE   {mutant.name}: fragment occurs {count} times in {mutant.path}")
                ok = False
                continue
            path.write_text(source.replace(mutant.fragment, mutant.replacement))
            try:
                survivors = set(mutant.tests) - failed_tests(tree, mutant.tests)
            finally:
                path.write_text(source)
            if survivors:
                print(f"MISSED  {mutant.name}: {sorted(survivors)} still pass")
                ok = False
            else:
                print(f"caught  {mutant.name}: {len(mutant.tests)} test(s) fail")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
