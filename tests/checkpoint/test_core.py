"""Checkpoint primitives: capture/restore, file round trips, digest
verification, the simulator-specific snapshot details (cancelled
compaction, FIFO tie-break survival) and restores under another
string-hash seed."""

import dataclasses
import hashlib
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from repro.checkpoint import core as ckpt
from repro.sim.engine import Simulator

ROOT = Path(__file__).resolve().parents[2]


def _append(log, value):
    log.append(value)


def _noop():
    pass


def save_foreign_checkpoint(path, version):
    """A checkpoint file written by other code, carrying ``version``.
    Its payload names a trie node class no code defines any more, so
    anything that unpickles the payload before checking the version
    dies on AttributeError instead of refusing the file."""
    payload = b"crepro.addressing.trie\n_LpmNode\n."
    ckpt.save(
        ckpt.Checkpoint(
            payload=payload,
            digest=hashlib.sha256(payload).hexdigest(),
            version=version,
            time=0.0,
            events=0,
        ),
        path,
    )


#: Versions a file from other code carries: the integers 1 to 11 that
#: older code bumped by hand, and another code's digest.
FOREIGN_VERSIONS = [*range(1, 12), "0" * 64]


def version_id(version):
    return str(version) if isinstance(version, int) else "foreign-digest"


class TestCheckpointObject:
    def test_roundtrip_is_independent_copy(self):
        sim = Simulator()
        log = []
        sim.schedule_at(1.0, _append, log, "a")
        world = {"sim": sim, "log": log}
        copy = ckpt.roundtrip(world)
        assert copy["sim"] is not sim
        copy["sim"].run()
        assert copy["log"] == ["a"]
        # The origin world is untouched by the copy's run.
        assert log == []
        assert sim.pending == 1

    def test_capture_records_sim_metadata(self):
        sim = Simulator()
        sim.schedule_at(2.0, _noop)
        sim.run()
        checkpoint = ckpt.capture(sim, label="after run")
        assert checkpoint.time == 2.0
        assert checkpoint.events == 1
        assert checkpoint.label == "after run"
        assert checkpoint.version == ckpt.code_version()

    def test_capture_of_closure_on_queue_raises(self):
        sim = Simulator()
        marker = []

        def closure():
            marker.append(1)

        sim.schedule_at(1.0, closure)
        with pytest.raises(ckpt.CheckpointError, match="snapshot-safe"):
            ckpt.capture(sim)

    def test_verify_rejects_tampered_digest(self):
        checkpoint = ckpt.capture({"x": 1})
        bad = dataclasses.replace(checkpoint, digest="0" * 64)
        with pytest.raises(ckpt.CheckpointError, match="digest"):
            bad.verify()

    def test_verify_rejects_foreign_version(self):
        checkpoint = ckpt.capture({"x": 1})
        bad = dataclasses.replace(checkpoint, version="0" * 64)
        with pytest.raises(ckpt.CheckpointError, match="version"):
            bad.verify()


class TestCheckpointFiles:
    def test_save_load_roundtrip(self, tmp_path):
        sim = Simulator()
        sim.schedule_at(3.0, _noop)
        path = tmp_path / "world.ckpt"
        ckpt.save(ckpt.capture(sim), path)
        restored = ckpt.restore(ckpt.load(path))
        assert restored.pending == 1
        restored.run()
        assert restored.now == 3.0

    def test_load_rejects_corrupted_payload(self, tmp_path):
        path = tmp_path / "world.ckpt"
        ckpt.save(ckpt.capture({"x": 1}), path)
        raw = bytearray(path.read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(ckpt.CheckpointError):
            ckpt.load(path)

    @pytest.mark.parametrize("version", FOREIGN_VERSIONS, ids=version_id)
    def test_load_refuses_old_version_before_unpickling(
        self, tmp_path, version
    ):
        path = tmp_path / "old.ckpt"
        save_foreign_checkpoint(path, version)
        with pytest.raises(
            ckpt.CheckpointError,
            match=f"checkpoint version {str(version)[:12]} != supported "
                  f"{ckpt.code_version()[:12]}$",
        ):
            ckpt.load(path)

    def test_load_rejects_non_checkpoint_pickle(self, tmp_path):
        path = tmp_path / "other.ckpt"
        path.write_bytes(pickle.dumps({"not": "a checkpoint"}))
        with pytest.raises(ckpt.CheckpointError, match="not a Checkpoint"):
            ckpt.load(path)

    def test_load_rejects_garbage_bytes(self, tmp_path):
        path = tmp_path / "garbage.ckpt"
        path.write_bytes(b"this is not pickle data")
        with pytest.raises(ckpt.CheckpointError):
            ckpt.load(path)

    def test_save_is_atomic(self, tmp_path):
        path = tmp_path / "world.ckpt"
        ckpt.save(ckpt.capture({"x": 1}), path)
        assert not (tmp_path / "world.ckpt.tmp").exists()


class TestSimulatorSnapshot:
    def test_cancelled_events_compacted_out(self):
        sim = Simulator()
        keep = sim.schedule_at(1.0, _noop)
        drop = sim.schedule_at(2.0, _noop)
        drop.cancel()
        restored = ckpt.roundtrip(sim)
        # The cancelled timer is gone, not restored-as-cancelled.
        assert len(restored._heap) == 1
        assert restored.pending == 1
        assert keep is not None

    def test_fifo_tie_break_survives_restore(self):
        sim = Simulator()
        log = []
        for value in ("first", "second", "third"):
            sim.schedule_at(1.0, _append, log, value)
        restored = ckpt.roundtrip({"sim": sim, "log": log})
        restored["sim"].run()
        assert restored["log"] == ["first", "second", "third"]

    def test_new_events_continue_sequence(self):
        sim = Simulator()
        log = []
        sim.schedule_at(1.0, _append, log, "pre")
        restored = ckpt.roundtrip({"sim": sim, "log": log})
        # An event scheduled after restore at the same time must fire
        # after the restored one (sequence counter continued, not reset).
        restored["sim"].schedule_at(1.0, _append, restored["log"], "post")
        restored["sim"].run()
        assert restored["log"] == ["pre", "post"]

    def test_clock_and_counters_survive(self):
        sim = Simulator()
        sim.schedule_at(1.5, _noop)
        sim.schedule_at(4.0, _noop)
        sim.run(max_events=1)
        restored = ckpt.roundtrip(sim)
        assert restored.now == sim.now
        assert restored.processed == sim.processed
        assert restored.pending == sim.pending


#: Builds a converged 12-domain BGP world (the test runs it in-process
#: too).
_BUILD_WORLD = """
import random
from repro.addressing.prefix import Prefix
from repro.bgp.network import BgpNetwork
from repro.topology.generators import as_graph

network = BgpNetwork(as_graph(random.Random(7), node_count=12))
network.originate_from_domain(
    network.topology.domains[3], Prefix.parse("226.1.0.0/20")
)
network.converge()
"""

#: Checkpoints that world to the path given as the first argument.
_SAVE_WORLD = _BUILD_WORLD + """
import sys
from repro.checkpoint import core as ckpt
ckpt.save(ckpt.capture(network), sys.argv[1])
"""

#: Restores that world, looks every router up through the restored
#: topology, crashes AS0's first router and prints the converged digest.
_RESUME_WORLD = """
import sys
from repro.checkpoint import core as ckpt

network = ckpt.restore(ckpt.load(sys.argv[1]))
topology = network.topology
for router, speaker in network.speakers.items():
    found = topology.domain(router.domain.domain_id).router(router.name)
    assert network.speakers[found] is speaker, router
network.fail_router(network.topology.domains[0].router())
network.converge()
print(network.rib_digest())
"""


class TestHashSeedIndependence:
    def _python(self, code, seed, *args):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(ROOT / "src")
        env["PYTHONHASHSEED"] = str(seed)
        return subprocess.run(
            [sys.executable, "-c", code, *args],
            cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=120, check=True,
        ).stdout

    def test_routers_rehash_under_the_restoring_seed(self, tmp_path):
        """Routers hash by identity; a checkpoint written under one
        string-hash seed must rebuild its router-keyed tables in the
        process that restores it, and continue to the same RIBs."""
        path = tmp_path / "world.ckpt"
        self._python(_SAVE_WORLD, 1, str(path))
        resumed = self._python(_RESUME_WORLD, 2, str(path)).strip()
        scope = {}
        exec(_BUILD_WORLD, scope)
        network = scope["network"]
        network.fail_router(network.topology.domains[0].router())
        network.converge()
        assert resumed == network.rib_digest()


class TestViolationDump:
    def _dump(self, checkpoint=None):
        return ckpt.ViolationDump(
            invariant="loop-free-trees",
            details=("upstream loop through X",),
            time=7.5,
            trace=("#1 t=7 handler",),
            replay_until=10.0,
            checkpoint=checkpoint,
            context={"seed": 3, "segment": 1},
        )

    def test_save_load_roundtrip(self, tmp_path):
        dump = self._dump(checkpoint=ckpt.capture({"w": 1}))
        path = tmp_path / "v.dump"
        ckpt.save_dump(dump, path)
        loaded = ckpt.load_dump(path)
        assert loaded == dump
        assert loaded.replayable

    def test_render_mentions_everything(self):
        text = self._dump(checkpoint=ckpt.capture({"w": 1})).render()
        assert "loop-free-trees" in text
        assert "t=7.5" in text
        assert "seed=3" in text
        assert "replay until t=10" in text
        assert "upstream loop through X" in text

    def test_dump_without_checkpoint_is_not_replayable(self):
        assert not self._dump().replayable

    def test_load_rejects_non_dump(self, tmp_path):
        path = tmp_path / "v.dump"
        path.write_bytes(pickle.dumps([1, 2, 3]))
        with pytest.raises(ckpt.CheckpointError, match="not a ViolationDump"):
            ckpt.load_dump(path)

    def test_with_context_merges(self):
        dump = ckpt.with_context(self._dump(), phase="settle")
        assert dump.context == {
            "seed": 3, "segment": 1, "phase": "settle",
        }
