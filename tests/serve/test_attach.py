"""serve attach: read-only soak join through boundary checkpoints.

The contract under test (ISSUE acceptance criteria): attaching to a
soak at a segment boundary streams at least one full segment of
telemetry, the attached run's fingerprint byte-matches a control arm
with no telemetry, and the soak directory — and therefore the real
chain's resume identity — is untouched.
"""

import hashlib
import json
import os

import pytest

from repro.faults.soak import SoakConfig, SoakHarness
from repro.serve.attach import AttachOptions, attach_serve
from repro.serve.runner import ServeHook

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


def attach_served(options):
    """Attach with a hub (sampling every event); returns the outcome
    and the finished, stopped hook."""
    hook = ServeHook(sample_every=1)
    outcome = attach_serve(options, on_sources=hook)
    hook.finish()
    hook.hub.stop()
    return outcome, hook


class TestAttach:
    def test_attach_streams_a_full_segment(self, soak_dir):
        before = dir_digest(soak_dir)
        _, hook = attach_served(AttachOptions(
            soak_dir=soak_dir,
            checkpoint=os.path.join(soak_dir, "soak-seed5-seg1.ckpt"),
        ))
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
        checkpoint = os.path.join(soak_dir, "soak-seed5-seg1.ckpt")
        served, _ = attach_served(AttachOptions(
            soak_dir=soak_dir, checkpoint=checkpoint
        ))
        control = attach_serve(AttachOptions(
            soak_dir=soak_dir, checkpoint=checkpoint
        ))
        assert control.tracer is None and control.profiler is None
        assert served.profiler.events > 0
        assert canonical(served.fingerprint) == canonical(
            control.fingerprint
        )
        assert served.fingerprint["events"] > 0

    def test_attach_defaults_to_latest_checkpoint(self, soak_dir):
        options = AttachOptions(soak_dir=soak_dir)
        outcome = attach_serve(options)
        # Latest boundary = all segments done: nothing left to run,
        # but the fingerprint still reads out.
        assert options.extra["checkpoint"].endswith("-seg2.ckpt")
        assert outcome.fingerprint["events"] > 0

    def test_attach_missing_dir_raises_checkpoint_error(self, tmp_path):
        from repro.checkpoint.core import CheckpointError

        with pytest.raises(CheckpointError, match="no soak checkpoint"):
            attach_serve(AttachOptions(soak_dir=str(tmp_path)))

    def test_resume_identity_survives_an_attach(self, soak_dir):
        """The real chain, resumed after an attach happened, must
        fingerprint byte-identically to an uninterrupted run."""
        attach_served(AttachOptions(
            soak_dir=soak_dir,
            checkpoint=os.path.join(soak_dir, "soak-seed5-seg1.ckpt"),
        ))
        resumed = SoakHarness(config=CONFIG, out_dir=soak_dir).resume(
            os.path.join(soak_dir, "soak-seed5-seg1.ckpt")
        )
        control = SoakHarness(config=CONFIG, out_dir=None).run()
        assert canonical(resumed.fingerprint) == canonical(
            control.fingerprint
        )
