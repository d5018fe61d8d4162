"""Satellite hardening case: a crash-restart fault pair landing
*exactly on* checkpoint boundaries. The boundary snapshot then
captures the world mid-outage (crashed router, withdrawn routes,
pending restart timer) and the resumed chain must still converge to
the uninterrupted run's fingerprint."""

import json

from repro.faults.plan import FaultPlan, RouterCrash, RouterRestart
from repro.faults.soak import SoakConfig, SoakHarness

#: SoakHarness.build_world hands over its world at t=5; with 15-long
#: segments the boundaries sit at t=20 (after segment 0) and t=35.
CONFIG = SoakConfig(seed=5, segments=2, segment_length=15.0,
                    faults_per_segment=0)
SETUP_TIME = 5.0
BOUNDARY_1 = SETUP_TIME + CONFIG.segment_length
BOUNDARY_2 = BOUNDARY_1 + CONFIG.segment_length

#: Crash exactly on the first boundary, restart exactly on the last.
BOUNDARY_PLAN = FaultPlan([
    RouterCrash(time=BOUNDARY_1, router="F2"),
    RouterRestart(time=BOUNDARY_2, router="F2"),
])


def _canon(fingerprint):
    return json.dumps(fingerprint, sort_keys=True)


def _armed_world(harness):
    world = harness.build_world()
    world.injector.schedule(BOUNDARY_PLAN)
    return world


def _control_fingerprint():
    harness = SoakHarness(config=CONFIG)
    return _canon(harness.run_world(_armed_world(harness)).fingerprint)


class TestFaultOnCheckpointBoundary:
    def test_crash_exactly_on_boundary_survives_resume(self, tmp_path):
        control = _control_fingerprint()
        harness = SoakHarness(config=CONFIG, out_dir=str(tmp_path))
        world = _armed_world(harness)
        harness._save_boundary(world)
        # Segment 0 ends at BOUNDARY_1 — the crash fault fires at that
        # exact clock tick, so the boundary checkpoint snapshots the
        # world mid-outage.
        harness.run_segment(world)
        assert world.sim.now == BOUNDARY_1
        harness._save_boundary(world)
        del world
        resumed = SoakHarness(
            config=CONFIG, out_dir=str(tmp_path)
        ).resume()
        assert _canon(resumed.fingerprint) == control

    def test_resume_from_each_boundary_with_boundary_faults(
        self, tmp_path
    ):
        control = _control_fingerprint()
        harness = SoakHarness(config=CONFIG, out_dir=str(tmp_path))
        first = harness.run_world(_armed_world(harness))
        assert _canon(first.fingerprint) == control
        for path in harness.checkpoint_paths():
            resumed = SoakHarness(
                config=CONFIG, out_dir=str(tmp_path)
            ).resume(path)
            assert _canon(resumed.fingerprint) == control, (
                f"divergence when resuming from {path}"
            )

    def test_mid_outage_checkpoint_restores_pending_restart(
        self, tmp_path
    ):
        from repro.checkpoint import core as ckpt

        harness = SoakHarness(config=CONFIG, out_dir=str(tmp_path))
        world = _armed_world(harness)
        harness._save_boundary(world)
        harness.run_segment(world)
        path = harness._save_boundary(world)
        restored = ckpt.restore(ckpt.load(path))
        # The restart timer for the crashed router must still be
        # pending in the restored queue, scheduled at BOUNDARY_2.
        times = [
            time for time, _, event in restored.sim._heap
            if not event.cancelled and time == BOUNDARY_2
        ]
        assert times, "restart timer lost across the boundary snapshot"
