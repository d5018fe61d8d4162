"""The committed hand mutants still fail the tests that name them.

Each ``*.patch`` in this directory plants one bug in ``src/``. Its
first line, ``Fails: <test id> ...``, names the tier-1 tests that must
catch it. Each patch is applied to a copy of ``src/`` in a temporary
directory, and the named tests run in a subprocess that imports
``repro`` from that copy; every one of them must fail. A patch that no
longer applies, or a named test that no longer exists, fails here too.
The README's table must list every patch with exactly the tests its
header names.
"""

import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

MUTANTS = Path(__file__).resolve().parent
ROOT = MUTANTS.parents[1]
PATCHES = sorted(MUTANTS.glob("*.patch"))
HEADER = "Fails: "


def named_tests(patch: Path) -> list:
    first = patch.read_text().splitlines()[0]
    assert first.startswith(HEADER), f"{patch.name} has no header line"
    return first[len(HEADER):].split()


def _failed(src: Path, tests: list) -> set:
    env = dict(os.environ, PYTHONPATH=str(src))
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "--tb=no", "-rf", *tests],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    return {
        line.split()[1]
        for line in result.stdout.splitlines()
        if line.startswith("FAILED ")
    }


@pytest.mark.parametrize("patch", PATCHES, ids=lambda path: path.stem)
def test_mutant_fails_its_tests(patch, tmp_path):
    shutil.copytree(
        ROOT / "src", tmp_path / "src",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    subprocess.run(
        ["patch", "-p1", "--forward", "--fuzz=0", "-s",
         "-d", str(tmp_path), "-i", str(patch)],
        check=True,
    )
    tests = named_tests(patch)
    assert set(tests) <= _failed(tmp_path / "src", tests)


def test_readme_lists_each_patch_with_its_header_tests():
    listed = {}
    for line in (MUTANTS / "README.md").read_text().splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if len(cells) == 3 and cells[0].endswith(".patch`"):
            listed[cells[0].strip("`")] = re.findall(r"`([^`]+)`", cells[2])
    assert listed == {patch.name: named_tests(patch) for patch in PATCHES}
