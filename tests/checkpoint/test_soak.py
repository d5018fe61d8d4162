"""Soak harness semantics: segmented runs with boundary checkpoints
are byte-identical to uninterrupted runs, resume works from any
boundary (including mid-segment crashes), and invariant violations
write dumps that :func:`replay_dump` re-triggers deterministically."""

import json

import pytest

from repro.checkpoint import core as ckpt
from repro.faults.soak import (
    FAULT_STREAM,
    KILL_EVENT_NAME,
    SoakConfig,
    SoakHarness,
    _hard_exit,
    replay_dump,
)
from repro.sanitizer.core import InvariantViolation

from tests.checkpoint._corruption import TreeLoopCorruption

CONFIG = SoakConfig(seed=1, segments=3, segment_length=20.0,
                    faults_per_segment=2)


def _canon(fingerprint):
    return json.dumps(fingerprint, sort_keys=True)


@pytest.fixture(scope="module")
def control():
    """The uninterrupted, checkpoint-free reference run."""
    return SoakHarness(config=CONFIG).run()


class TestSoakIdentity:
    def test_checkpointing_run_matches_control(self, control, tmp_path):
        harness = SoakHarness(config=CONFIG, out_dir=str(tmp_path))
        result = harness.run()
        assert _canon(result.fingerprint) == _canon(control.fingerprint)
        names = [p.rsplit("/", 1)[-1] for p in harness.checkpoint_paths()]
        assert names == [
            f"soak-seed{CONFIG.seed}-seg{n}.ckpt"
            for n in range(CONFIG.segments + 1)
        ]

    def test_crash_mid_segment_then_resume_matches_control(
        self, control, tmp_path
    ):
        harness = SoakHarness(config=CONFIG, out_dir=str(tmp_path))
        world = harness.build_world()
        harness._save_boundary(world)
        harness.run_segment(world)
        harness._save_boundary(world)
        # "Crash": run part of segment 1, then abandon the world
        # without saving — exactly what a mid-segment kill leaves.
        world.sim.run(until=world.sim.now + 7.0)
        del world
        resumed = SoakHarness(
            config=CONFIG, out_dir=str(tmp_path)
        ).resume()
        assert _canon(resumed.fingerprint) == _canon(control.fingerprint)
        assert any("resumed segment 1" in msg for _, msg in resumed.log)

    def test_resume_from_every_boundary_matches_control(
        self, control, tmp_path
    ):
        harness = SoakHarness(config=CONFIG, out_dir=str(tmp_path))
        harness.run()
        for path in harness.checkpoint_paths():
            resumed = SoakHarness(
                config=CONFIG, out_dir=str(tmp_path)
            ).resume(path)
            assert _canon(resumed.fingerprint) == _canon(
                control.fingerprint
            ), f"divergence when resuming from {path}"

    def test_fault_stream_redraw_is_identical(self, tmp_path):
        """The persistent fault stream's state rides in the checkpoint,
        so the resumed segment re-draws the crashed attempt's plan."""
        harness = SoakHarness(config=CONFIG, out_dir=str(tmp_path))
        world = harness.build_world()
        harness._save_boundary(world)
        state_before = world.streams.stream(FAULT_STREAM).getstate()
        restored = ckpt.restore(ckpt.load(harness._boundary_path(world)))
        assert (
            restored.streams.stream(FAULT_STREAM).getstate()
            == state_before
        )

    def test_resume_with_no_checkpoint_fails_loudly(self, tmp_path):
        harness = SoakHarness(config=CONFIG, out_dir=str(tmp_path))
        with pytest.raises(ckpt.CheckpointError, match="no soak"):
            harness.resume()

    def test_resume_rejects_non_soak_checkpoint(self, tmp_path):
        path = tmp_path / "soak-seed1-seg0.ckpt"
        ckpt.save(ckpt.capture({"just": "a dict"}), path)
        harness = SoakHarness(config=CONFIG, out_dir=str(tmp_path))
        with pytest.raises(ckpt.CheckpointError, match="not a SoakWorld"):
            harness.resume()


class TestKillEvents:
    def test_kill_event_rides_checkpoint_and_disarm_cancels(
        self, control
    ):
        harness = SoakHarness(config=CONFIG)
        world = harness.build_world()
        world.sim.schedule_at(
            world.sim.now + 10.0, _hard_exit, name=KILL_EVENT_NAME
        )
        twin = ckpt.roundtrip(world)
        pending_kills = [
            event for _, _, event in twin.sim._heap
            if event.name == KILL_EVENT_NAME
        ]
        assert len(pending_kills) == 1 and not pending_kills[0].cancelled
        SoakHarness._disarm_kill(twin)
        assert pending_kills[0].cancelled
        # With the kill disarmed the chain completes, and the cancelled
        # event leaves no trace in the fingerprint.
        result = harness.run_world(twin)
        assert _canon(result.fingerprint) == _canon(control.fingerprint)


class TestViolationDumps:
    def _violating_harness(self, out_dir):
        """A soak world with a deliberate tree-loop corruption event
        scheduled inside segment 0 (it rides in the boundary
        checkpoint, so a replay re-triggers it)."""
        harness = SoakHarness(config=CONFIG, out_dir=out_dir)
        world = harness.build_world()
        world.sim.schedule_at(
            world.sim.now + 3.0,
            TreeLoopCorruption(world.bgmp, world.probe.group),
            name="deliberate-corruption",
        )
        harness._save_boundary(world)
        return harness, world

    def test_violation_writes_replayable_dump(self, tmp_path):
        harness, world = self._violating_harness(str(tmp_path))
        with pytest.raises(InvariantViolation) as exc_info:
            harness.run_world(world)
        assert exc_info.value.invariant == "loop-free-trees"
        assert len(world.sanitizer.dumps) == 1
        dump = ckpt.load_dump(world.sanitizer.dumps[0])
        assert dump.invariant == "loop-free-trees"
        assert dump.replayable
        assert dump.context["segment"] == 0
        assert dump.context["phase"] == "segment"
        assert dump.checkpoint.time <= dump.time <= dump.replay_until
        assert any("deliberate-corruption" in line for line in dump.trace)

    def test_replay_reproduces_the_exact_violation(self, tmp_path):
        harness, world = self._violating_harness(str(tmp_path))
        with pytest.raises(InvariantViolation) as exc_info:
            harness.run_world(world)
        original = exc_info.value
        reproduced = replay_dump(world.sanitizer.dumps[0])
        assert reproduced is not None
        assert reproduced.invariant == original.invariant
        assert reproduced.time == original.time
        assert reproduced.details == original.details
        assert [e.render() for e in reproduced.trace] == [
            e.render() for e in original.trace
        ]

    def test_replay_refuses_dump_without_checkpoint(self, tmp_path):
        dump = ckpt.ViolationDump(
            invariant="x", details=(), time=1.0, trace=(),
            replay_until=2.0, checkpoint=None,
        )
        path = tmp_path / "bare.dump"
        ckpt.save_dump(dump, path)
        with pytest.raises(ckpt.CheckpointError, match="no checkpoint"):
            replay_dump(str(path))
