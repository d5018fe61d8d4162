"""The repo must satisfy its own determinism contract: the gate CI
runs from the repo root (``python -m repro.lint src tests
benchmarks``: per-file and whole-program rules) finds nothing."""

import os

from repro.lint.engine import lint_project

REPO_ROOT = os.path.dirname(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
)

def test_src_tree_is_lint_clean(monkeypatch):
    # Relative paths, as in CI: module names anchor at the first
    # ``repro`` path component, which a checkout's parent may contain.
    monkeypatch.chdir(REPO_ROOT)
    findings = lint_project(["src", "tests", "benchmarks"])
    rendered = "\n".join(f.render() for f in findings)
    assert not findings, f"determinism lint findings:\n{rendered}"
