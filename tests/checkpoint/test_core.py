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

from repro import checkpoint as ckpt
from repro.sim.engine import Simulator

ROOT = Path(__file__).resolve().parents[2]


def _append(log, value):
    log.append(value)


def _noop():
    pass


def _save_old_checkpoint(path, version, payload):
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


def save_version_1_checkpoint(path):
    """A checkpoint file as version 1 wrote it: its payload names the
    trie node class that version 2 deleted, so anything that unpickles
    the payload before checking the version dies on AttributeError."""
    _save_old_checkpoint(path, 1, b"crepro.addressing.trie\n_LpmNode\n.")


def save_version_2_checkpoint(path):
    """A checkpoint file from version 2, whose ``BgpNetwork`` pickled
    per-speaker dirty sets and list-valued ``_last_sent`` where
    version 3 keeps dirty keys and advertised tables; this payload
    names a ``repro.bgp.rib`` function version 3 deleted, so it cannot
    even be unpickled."""
    _save_old_checkpoint(
        path, 2, b"crepro.bgp.rib\ndiff_type_entries\n."
    )


def save_version_3_checkpoint(path):
    """A checkpoint file from version 3, whose ``BgmpNetwork`` pickled
    dirty groups and per-group router masks where version 4 keeps
    (router, group) / (group, domain) repair candidates and per-table
    anchor indexes — it would unpickle, into a network whose next
    repair dies on a missing attribute. The payload names the MIGP
    presence hook version 4 deleted with the masks."""
    _save_old_checkpoint(
        path, 3, b"crepro.migp.base\non_membership\n."
    )


def save_version_4_checkpoint(path):
    """A checkpoint file from version 4, whose allocation-trie nodes
    have no ``used`` count and whose ``ClaimedSpace`` wraps a
    ``PrefixAllocator`` — it would unpickle, into a world whose next
    block request dies on a missing attribute. The payload names the
    subtree walk version 5 deleted with the recomputed sums."""
    _save_old_checkpoint(
        path, 4, b"crepro.addressing.trie\n_subtree_has_allocation\n."
    )


def save_version_5_checkpoint(path):
    """A checkpoint file from version 5, whose ``BgpNetwork`` has no
    cached per-router session list — it would unpickle, into a network
    whose next round dies on a missing attribute. The payload names
    the per-session export version 6 split into a per-terms export and
    a per-session diff."""
    _save_old_checkpoint(
        path, 5, b"\x80\x04crepro.bgp.network\nBgpNetwork._session_update\n."
    )


def save_version_6_checkpoint(path):
    """A checkpoint file from version 6, whose topology has no cached
    domain tuple, whose forwarding tables have no (S,G) index and whose
    BGMP routers hold no MIGP or speaker handle — it would unpickle,
    into a network whose next join dies on a missing attribute. The
    payload names the per-hop ``migp`` property version 7 replaced with
    a handle resolved at construction."""
    _save_old_checkpoint(
        path, 6, b"\x80\x04crepro.bgmp.router\nBgmpRouter.migp\n."
    )


def save_version_7_checkpoint(path):
    """A checkpoint file from version 7, whose ``BgpNetwork`` keeps one
    advertised table per session, no update groups and frozenset-keyed
    down sessions — it would unpickle, into a network whose next round
    dies on a missing attribute. The payload names the per-session
    diff version 8 replaced with one diff per update group."""
    _save_old_checkpoint(
        path, 7, b"\x80\x04crepro.bgp.network\nBgpNetwork._session_diff\n."
    )


def save_version_8_checkpoint(path):
    """A checkpoint file from version 8, whose ``BgpNetwork`` keeps
    dirty key sets per speaker and whose speakers keep no decisions due
    — it would unpickle, into a network whose next delivery dies on a
    missing attribute. The payload names the per-key dirty hook version
    9 replaced with the speaker's own record of the decisions due."""
    _save_old_checkpoint(
        path, 8, b"\x80\x04crepro.bgp.speaker\nBgpSpeaker._mark_dirty\n."
    )


def save_version_9_checkpoint(path):
    """A checkpoint file from version 9, whose BGP tables are keyed by
    (type, prefix) pairs where version 10 keys them by (network,
    length, type) triples — it would unpickle, into speakers whose
    next lookup misses every route. The payload names the canonical
    sort key version 10 replaced with the triple's natural order."""
    _save_old_checkpoint(
        path, 9, b"\x80\x04crepro.bgp.routes\nkey_order\n."
    )


def save_version_10_checkpoint(path):
    """A checkpoint file from version 10, whose ``BgpNetwork`` may keep
    a speaker rank that leaves out the routers crashed at capture —
    it would unpickle, into a network that never again settles a
    restored router's decisions. The payload names the hook version 11
    deleted: it dropped that rank on every session or router change."""
    _save_old_checkpoint(
        path, 10,
        b"\x80\x04crepro.bgp.network\nBgpNetwork._sessions_changed\n.",
    )


def save_version_11_checkpoint(path):
    """A checkpoint file from version 11, whose domains, routers and
    hosts compare by value and unpickle through a hook that sets their
    identity attributes first. The payload names that hook, which
    version 12 deleted: those objects now compare by identity."""
    _save_old_checkpoint(
        path, 11,
        b"\x80\x04crepro.topology.domain\n_restore_keyed\n.",
    )


#: Writers of files from versions this build must refuse, by version
#: (version 1 has its own tests: its message interpolates the constant).
OLD_VERSIONS = {
    2: save_version_2_checkpoint,
    3: save_version_3_checkpoint,
    4: save_version_4_checkpoint,
    5: save_version_5_checkpoint,
    6: save_version_6_checkpoint,
    7: save_version_7_checkpoint,
    8: save_version_8_checkpoint,
    9: save_version_9_checkpoint,
    10: save_version_10_checkpoint,
    11: save_version_11_checkpoint,
}


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
        assert checkpoint.version == ckpt.CHECKPOINT_VERSION

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
        bad = dataclasses.replace(
            checkpoint, version=ckpt.CHECKPOINT_VERSION + 1
        )
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

    def test_load_refuses_version_1_before_unpickling(self, tmp_path):
        path = tmp_path / "old.ckpt"
        save_version_1_checkpoint(path)
        with pytest.raises(
            ckpt.CheckpointError,
            match=f"checkpoint version 1 != supported "
                  f"{ckpt.CHECKPOINT_VERSION}",
        ):
            ckpt.load(path)

    @pytest.mark.parametrize("version", sorted(OLD_VERSIONS))
    def test_load_refuses_old_version_before_unpickling(
        self, tmp_path, version
    ):
        path = tmp_path / "old.ckpt"
        OLD_VERSIONS[version](path)
        with pytest.raises(
            ckpt.CheckpointError,
            match=f"checkpoint version {version} != supported 12",
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
from repro import checkpoint as ckpt
ckpt.save(ckpt.capture(network), sys.argv[1])
"""

#: Restores that world, looks every router up through the restored
#: topology, crashes AS0's first router and prints the converged digest.
_RESUME_WORLD = """
import sys
from repro import checkpoint as ckpt

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
