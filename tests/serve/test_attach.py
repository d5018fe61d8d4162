"""serve attach: read-only soak join through boundary checkpoints.

The contract under test: attaching to a soak at a segment boundary
streams at least one full segment of telemetry, the attached run's
fingerprint byte-matches the hub-free control arm and an untraced
restore of the same checkpoint, and the soak directory — and therefore
the real chain's resume identity — is untouched.
"""

import hashlib
import json
import os

import pytest

from repro.faults.soak import SoakConfig, SoakHarness
from repro.serve.runner import ServeHook, attached_soak, run_built

CONFIG = SoakConfig(
    seed=5, segments=2, segment_length=15.0, faults_per_segment=1
)


def dir_digest(path):
    """SHA-256 over every file in ``path`` (name + content)."""
    digest = hashlib.sha256()
    for name in sorted(os.listdir(path)):
        digest.update(name.encode())
        with open(os.path.join(path, name), "rb") as handle:
            digest.update(handle.read())
    return digest.hexdigest()


@pytest.fixture(scope="module")
def soak_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("soak")
    SoakHarness(config=CONFIG, out_dir=str(out)).run()
    return str(out)


def canonical(fingerprint):
    return json.dumps(fingerprint, sort_keys=True)


def attach_served(soak_dir, checkpoint=None):
    """Attach with a hub (sampling every event); returns the outcome
    and the finished, stopped hook."""
    hook = ServeHook(sample_every=1)
    outcome = run_built(attached_soak(soak_dir, checkpoint), hook)
    hook.finish()
    hook.hub.stop()
    return outcome, hook


def restored(soak_dir, checkpoint=None):
    """The untraced world at a boundary checkpoint."""
    world, _ = SoakHarness(out_dir=soak_dir).restore_world(checkpoint)
    return world


class TestAttach:
    def test_attach_streams_a_full_segment(self, soak_dir):
        before = dir_digest(soak_dir)
        _, hook = attach_served(
            soak_dir, os.path.join(soak_dir, "soak-seed5-seg1.ckpt")
        )
        sink = hook.sink
        # One full segment of telemetry streamed through the sink.
        assert sink.frames_published > 1
        frames = sink.frames_since(0)
        assert frames[-1]["time"] >= frames[0]["time"]
        assert any(f["counters_delta"] for f in frames), (
            "a chaos segment moves counters"
        )
        assert sink.sources.target == "soak-attach"
        # Strictly read-only: not one byte of the soak dir changed.
        assert dir_digest(soak_dir) == before

    def test_attach_fingerprint_matches_control(self, soak_dir):
        # The control arm is `serve attach --control`: the same
        # instrumented run with no hub.
        checkpoint = os.path.join(soak_dir, "soak-seed5-seg1.ckpt")
        served, _ = attach_served(soak_dir, checkpoint)
        control = run_built(attached_soak(soak_dir, checkpoint))
        assert served.profiler.events > 0
        assert canonical(served.fingerprint) == canonical(
            control.fingerprint
        )
        assert served.fingerprint["events"] > 0

    def test_attach_fingerprint_matches_untraced_restore(self, soak_dir):
        # Tracing and profiling the restored copy change nothing: the
        # same checkpoint, restored and run with no tracer, agrees.
        checkpoint = os.path.join(soak_dir, "soak-seed5-seg1.ckpt")
        traced = run_built(attached_soak(soak_dir, checkpoint))
        assert len(traced.tracer) > 0
        world = restored(soak_dir, checkpoint)
        SoakHarness(world.config).run_segment(world)
        assert world.sanitizer.tracer is None
        assert canonical(traced.fingerprint) == canonical(
            world.fingerprint()
        )

    def test_attach_defaults_to_latest_checkpoint(self, soak_dir):
        # Latest boundary = all segments done (the world's setup ends
        # at 5.0, then two 15-long segments): nothing left to run, but
        # the fingerprint still reads out.
        assert restored(soak_dir).segment == 2
        outcome = run_built(attached_soak(soak_dir))
        assert outcome.fingerprint["time"] == 35.0
        assert outcome.fingerprint["events"] > 0

    def test_attach_restores_the_named_checkpoint(self, soak_dir):
        world = restored(
            soak_dir, os.path.join(soak_dir, "soak-seed5-seg1.ckpt")
        )
        assert (world.segment, world.sim.now) == (1, 20.0)

    def test_attach_missing_dir_raises_checkpoint_error(self, tmp_path):
        from repro.checkpoint.core import CheckpointError

        with pytest.raises(CheckpointError, match="no soak checkpoint"):
            attached_soak(str(tmp_path))

    def test_resume_identity_survives_an_attach(self, soak_dir):
        """The real chain, resumed after an attach happened, must
        fingerprint byte-identically to an uninterrupted run."""
        attach_served(
            soak_dir, os.path.join(soak_dir, "soak-seed5-seg1.ckpt")
        )
        resumed = SoakHarness(config=CONFIG, out_dir=soak_dir).resume(
            os.path.join(soak_dir, "soak-seed5-seg1.ckpt")
        )
        control = SoakHarness(config=CONFIG, out_dir=None).run()
        assert canonical(resumed.fingerprint) == canonical(
            control.fingerprint
        )
