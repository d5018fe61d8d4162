"""End-to-end CLI crash-resume: ``python -m repro soak run --kill-at``
dies hard (exit 137) mid-chain, ``soak resume`` completes it, and the
resumed fingerprint JSON is byte-identical to an uninterrupted run.
Also covers ``soak replay`` against a real violation dump."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.checkpoint.core import code_version
from repro.faults.soak import SoakConfig, SoakHarness
from repro.sanitizer.core import InvariantViolation

from tests.checkpoint._corruption import TreeLoopCorruption
from tests.checkpoint.test_core import (
    FOREIGN_VERSIONS,
    save_foreign_checkpoint,
    version_id,
)

ROOT = Path(__file__).resolve().parents[2]

SOAK_FLAGS = [
    "--seed", "1", "--segments", "2", "--segment-length", "15",
    "--faults", "2",
]


def _repro(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )


def _fingerprint_line(completed):
    """The fingerprint JSON is the last stdout line of a soak run."""
    line = completed.stdout.strip().splitlines()[-1]
    return json.loads(line)


class TestSoakCliCrashResume:
    def test_kill_resume_matches_uninterrupted(self, tmp_path):
        out = str(tmp_path / "killed")
        killed = _repro(
            "soak", "run", *SOAK_FLAGS, "--dir", out, "--kill-at", "25",
        )
        assert killed.returncode == 137, killed.stderr
        # The crash left boundary checkpoints but no final fingerprint.
        assert sorted(
            p.name for p in (tmp_path / "killed").glob("*.ckpt")
        ) == ["soak-seed1-seg0.ckpt", "soak-seed1-seg1.ckpt"]

        resumed = _repro("soak", "resume", *SOAK_FLAGS, "--dir", out)
        assert resumed.returncode == 0, resumed.stderr

        control = _repro(
            "soak", "run", *SOAK_FLAGS, "--dir", str(tmp_path / "ctrl"),
        )
        assert control.returncode == 0, control.stderr
        assert _fingerprint_line(resumed) == _fingerprint_line(control)

    def test_resume_without_checkpoints_exits_2(self, tmp_path):
        empty = str(tmp_path / "empty")
        os.makedirs(empty)
        result = _repro("soak", "resume", *SOAK_FLAGS, "--dir", empty)
        assert result.returncode == 2
        assert "no soak checkpoint" in result.stderr

    @pytest.mark.parametrize("version", FOREIGN_VERSIONS, ids=version_id)
    def test_resume_from_old_checkpoint_exits_2(self, tmp_path, version):
        save_foreign_checkpoint(tmp_path / "soak-seed1-seg0.ckpt", version)
        result = _repro(
            "soak", "resume", *SOAK_FLAGS, "--dir", str(tmp_path)
        )
        assert result.returncode == 2
        assert (
            f"checkpoint version {str(version)[:12]} != supported "
            f"{code_version()[:12]}" in result.stderr
        )
        assert "Traceback" not in result.stderr

    def test_kill_before_the_start_time_exits_2(self, tmp_path):
        result = _repro(
            "soak", "run", *SOAK_FLAGS, "--dir", str(tmp_path),
            "--kill-at", "2",
        )
        assert result.returncode == 2
        [line] = result.stderr.strip().splitlines()
        assert "--kill-at 2 is before the world's start time 5" in line


class TestSoakCliReplay:
    def _write_violation_dump(self, out_dir):
        """Produce a real violation dump in-process (the corruption
        callback lives in an importable module, so the replay
        subprocess can unpickle it)."""
        config = SoakConfig(seed=1, segments=1, segment_length=15.0,
                            faults_per_segment=0)
        harness = SoakHarness(config=config, out_dir=out_dir)
        world = harness.build_world()
        world.sim.schedule_at(
            world.sim.now + 3.0,
            TreeLoopCorruption(world.scenario.bgmp, world.scenario.group),
            name="deliberate-corruption",
        )
        harness._save_boundary(world)
        try:
            harness.run_world(world)
        except InvariantViolation:
            pass
        assert world.sanitizer.dumps
        return world.sanitizer.dumps[0]

    def test_replay_reproduces_violation(self, tmp_path):
        dump_path = self._write_violation_dump(str(tmp_path))
        result = _repro("soak", "replay", dump_path)
        assert result.returncode == 0, result.stderr
        assert "reproduced:" in result.stdout
        assert "loop-free-trees" in result.stdout

    def test_replay_of_missing_dump_fails(self, tmp_path):
        result = _repro("soak", "replay", str(tmp_path / "no.dump"))
        assert result.returncode == 2
        assert "soak replay failed" in result.stderr
