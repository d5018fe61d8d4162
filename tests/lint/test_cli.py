"""The command-line contract of ``python -m repro.lint``: one
``path:line:col: CODE message`` line per finding and the 0/1/2 exit
codes."""

import os
import subprocess
import sys

import pytest

REPO_SRC = os.path.abspath(
    os.path.join(os.path.dirname(__file__), "..", "..", "src")
)

CLEAN = "def double(x):\n    return x * 2\n"
DIRTY = (
    "import random\n"
    "def draw():\n"
    "    return random.random()\n"
)


def run_lint(args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = REPO_SRC
    return subprocess.run(
        [sys.executable, "-m", "repro.lint"] + args,
        cwd=str(cwd),
        env=env,
        capture_output=True,
        text=True,
    )


@pytest.fixture()
def tree(tmp_path):
    package = tmp_path / "repro" / "synth"
    package.mkdir(parents=True)
    (package / "clean.py").write_text(CLEAN)
    return tmp_path


class TestExitCodes:
    def test_clean_exits_zero(self, tree):
        proc = run_lint(["repro"], tree)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == ""

    def test_findings_exit_one(self, tree):
        (tree / "repro" / "synth" / "dirty.py").write_text(DIRTY)
        proc = run_lint(["repro"], tree)
        assert proc.returncode == 1
        assert "DET001" in proc.stdout

    def test_usage_error_exits_two(self, tree):
        assert run_lint(["--bogus-flag"], tree).returncode == 2

    def test_missing_path_exits_two(self, tree):
        proc = run_lint(["repro", "does-not-exist"], tree)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == (
            "no such file or directory: does-not-exist\n"
        )

    def test_unjustified_suppression_fails_the_gate(self, tree):
        (tree / "repro" / "synth" / "hushed.py").write_text(
            "import random\n"
            "x = random.random()  # lint: disable=DET001\n"
        )
        proc = run_lint(["repro"], tree)
        assert proc.returncode == 1
        assert "SUP001" in proc.stdout

    def test_undecodable_file_is_a_parse_finding(self, tree):
        target = tree / "repro" / "synth" / "latin.py"
        target.write_bytes('x = "\xe9"\n'.encode("latin-1"))
        proc = run_lint(["repro"], tree)
        assert proc.returncode == 1
        assert proc.stdout == (
            f"{os.path.join('repro', 'synth', 'latin.py')}:1:0: "
            "PARSE could not decode as UTF-8\n"
        )
        assert "Traceback" not in proc.stderr

    def test_interprocedural_rules_run_by_default(self, tree):
        (tree / "repro" / "synth" / "timers.py").write_text(
            "def arm(sim):\n"
            "    sim.schedule(1.0, lambda: None)\n"
        )
        proc = run_lint(["repro"], tree)
        assert proc.returncode == 1
        assert "DET008" in proc.stdout


class TestRuleDocs:
    def test_explain_and_list_rules(self, tree):
        explain = run_lint(["--explain", "DET008"], tree)
        assert explain.returncode == 0
        assert "DET008" in explain.stdout
        unknown = run_lint(["--explain", "DET999"], tree)
        assert unknown.returncode == 2
        listing = run_lint(["--list-rules"], tree)
        assert listing.returncode == 0
        for code in ("DET001", "DET007", "DET010"):
            assert code in listing.stdout
