"""The acceptance contract: a figure-3 chaos run checkpointed at an
arbitrary event index and restored — in-process or in a fresh pool
process — produces byte-identical fingerprints to the run that was
never interrupted."""

import json

from repro.checkpoint import core as ckpt
from repro.experiments.runner import parallel_map
from repro.faults.plan import FaultPlan
from repro.faults.soak import FAULT_STREAM, SoakConfig, SoakHarness

SEEDS = (0, 1, 2)
#: figure3_chaos_scenario hands over the world with its clock here.
SETUP_TIME = 5.0
SEGMENT_LENGTH = 30.0
END = SETUP_TIME + SEGMENT_LENGTH


def _armed_world(seed):
    """A figure-3 chaos world with a seeded fault schedule pending."""
    harness = SoakHarness(
        config=SoakConfig(
            seed=seed, segments=1, segment_length=SEGMENT_LENGTH,
            faults_per_segment=3,
        )
    )
    world = harness.build_world()
    assert world.sim.now == SETUP_TIME
    plan = FaultPlan.random_schedule(
        world.streams.stream(FAULT_STREAM),
        world.scenario.candidates,
        n_faults=world.config.faults_per_segment,
        start=world.sim.now + 1.0,
        window=5.0,
        repair_after=5.0,
    )
    world.injector.schedule(plan)
    return world


def _settle_and_fingerprint(world):
    world.injector.recover()
    world.sanitizer.check_converged()
    return json.dumps(world.fingerprint(), sort_keys=True)


def _capture_and_reference(item):
    """Phase-1 worker: run to ``event_index``, checkpoint, then finish
    the run uninterrupted for the reference fingerprint."""
    seed, event_index = item
    world = _armed_world(seed)
    # No `until` here: on a max_events early exit the engine would
    # advance the clock to `until` anyway, so the capture point would
    # not sit mid-chaos at the event's own time.
    if event_index:
        world.sim.run(max_events=event_index)
    checkpoint = ckpt.capture(world, label=f"seed {seed} @{event_index}")
    world.sim.run(until=END)
    return checkpoint, _settle_and_fingerprint(world)


def _restore_and_finish(checkpoint):
    """Phase-2 worker: restore in whatever process this runs in and
    finish the run from the checkpoint."""
    world = ckpt.restore(checkpoint)
    world.sim.run(until=END)
    return _settle_and_fingerprint(world)


class TestRoundTripIdentity:
    def test_serial_identity_across_seeds_and_indices(self):
        for seed in SEEDS:
            for event_index in (10, 57):
                checkpoint, reference = _capture_and_reference(
                    (seed, event_index)
                )
                assert checkpoint.events >= 0
                resumed = _restore_and_finish(checkpoint)
                assert resumed == reference, (
                    f"seed {seed} diverged after restore at event "
                    f"index {event_index}"
                )

    def test_identity_with_restore_in_fresh_processes(self):
        items = [(seed, 40) for seed in SEEDS]
        captured = parallel_map(
            _capture_and_reference, items, processes=4
        )
        checkpoints = [checkpoint for checkpoint, _ in captured]
        references = [reference for _, reference in captured]
        resumed = parallel_map(
            _restore_and_finish, checkpoints, processes=4
        )
        assert resumed == references

    def test_checkpoint_at_time_zero_of_chaos(self):
        checkpoint, reference = _capture_and_reference((1, 0))
        assert checkpoint.time == SETUP_TIME
        assert _restore_and_finish(checkpoint) == reference

    def test_restored_world_is_independent_of_origin(self):
        world = _armed_world(2)
        world.sim.run(max_events=25)
        checkpoint = ckpt.capture(world)
        twin = ckpt.restore(checkpoint)
        # Run the twin first: it must not advance or mutate the origin.
        twin.sim.run(until=END)
        twin_print = _settle_and_fingerprint(twin)
        assert world.sim.now < END
        world.sim.run(until=END)
        assert _settle_and_fingerprint(world) == twin_print
