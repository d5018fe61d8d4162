"""Tests for BGMP forwarding entries and targets."""

import gc
import pickle
import random
import weakref

from repro.bgmp.entries import ForwardingEntry, ForwardingTable
from repro.bgmp.network import BgmpNetwork
from repro.bgmp.targets import MigpTarget, PeerTarget
from repro.topology.domain import Domain
from repro.topology.generators import as_graph


GROUP = 0xE0008001


def make_domains():
    a = Domain(0, name="A")
    b = Domain(1, name="B")
    return a, b


class TestTargets:
    def test_peer_target_equality(self):
        a, b = make_domains()
        assert PeerTarget(a.router("A1")) == PeerTarget(a.router("A1"))
        assert PeerTarget(a.router("A1")) != PeerTarget(b.router("B1"))

    def test_migp_target_equality(self):
        a, b = make_domains()
        assert MigpTarget(a) == MigpTarget(a)
        assert MigpTarget(a) != MigpTarget(b)

    def test_cross_kind_inequality(self):
        a, _ = make_domains()
        assert MigpTarget(a) != PeerTarget(a.router("A1"))

    def test_hashable(self):
        a, _ = make_domains()
        assert len({MigpTarget(a), MigpTarget(a)}) == 1

    def test_interned_per_object_and_rebuilt_on_restore(self):
        """One target per router or domain; a copy made through pickle
        holds its own targets, interned around its own objects, and
        never the original's."""
        a, _ = make_domains()
        peer, interior = PeerTarget(a.router("A1")), MigpTarget(a)
        assert PeerTarget(a.router("A1")) is peer
        assert MigpTarget(a) is interior
        copy_peer, copy_interior = pickle.loads(
            pickle.dumps((peer, interior))
        )
        assert copy_peer is not peer and copy_interior is not interior
        assert copy_peer.router.domain is copy_interior.domain
        assert PeerTarget(copy_peer.router) is copy_peer
        assert MigpTarget(copy_interior.domain) is copy_interior

    def test_the_intern_keeps_no_world_alive(self):
        """A discarded world goes in one collection: the intern table
        holds neither its targets nor the routers and domains they
        name, so it cannot keep the world for a second one."""
        topology = as_graph(random.Random(1), node_count=6)
        network = BgmpNetwork(topology)
        probe = weakref.ref(topology.domains[0])
        del topology, network
        gc.collect()
        assert probe() is None


class TestForwardingEntry:
    def test_target_list(self):
        a, b = make_domains()
        entry = ForwardingEntry(GROUP, PeerTarget(b.router("B1")))
        entry.add_child(MigpTarget(a))
        assert entry.targets() == [
            PeerTarget(b.router("B1")),
            MigpTarget(a),
        ]

    def test_add_child_idempotent(self):
        a, _ = make_domains()
        entry = ForwardingEntry(GROUP, None)
        assert entry.add_child(MigpTarget(a))
        assert not entry.add_child(MigpTarget(a))
        assert len(entry.children) == 1

    def test_remove_child(self):
        a, _ = make_domains()
        entry = ForwardingEntry(GROUP, None)
        entry.add_child(MigpTarget(a))
        assert entry.remove_child(MigpTarget(a))
        assert not entry.remove_child(MigpTarget(a))

    def test_bidirectional_outputs(self):
        # Data is forwarded to every target except the arrival target.
        a, b = make_domains()
        parent = PeerTarget(b.router("B1"))
        child = MigpTarget(a)
        entry = ForwardingEntry(GROUP, parent)
        entry.add_child(child)
        assert entry.outputs_for(parent) == [child]
        assert entry.outputs_for(child) == [parent]
        assert entry.outputs_for(None) == [parent, child]

    def test_source_specific_flag(self):
        a, _ = make_domains()
        assert not ForwardingEntry(GROUP, None).is_source_specific
        assert ForwardingEntry(GROUP, None, a).is_source_specific


class TestForwardingTable:
    def test_create_and_get(self):
        table = ForwardingTable()
        entry = table.create(GROUP, None)
        assert table.get(GROUP) is entry
        assert table.create(GROUP, None) is entry
        assert len(table) == 1

    def test_match_prefers_source_specific(self):
        a, _ = make_domains()
        table = ForwardingTable()
        star = table.create(GROUP, None)
        specific = table.create(GROUP, None, a)
        assert table.match(GROUP, a) is specific
        assert table.match(GROUP, None) is star
        other = Domain(9, name="Z")
        assert table.match(GROUP, other) is star

    def test_remove(self):
        table = ForwardingTable()
        table.create(GROUP, None)
        assert table.remove(GROUP)
        assert not table.remove(GROUP)

    def test_groups(self):
        a, _ = make_domains()
        table = ForwardingTable()
        table.create(GROUP, None)
        table.create(GROUP, None, a)
        table.create(GROUP + 5, None)
        assert table.groups() == [GROUP, GROUP + 5]

    def test_contains(self):
        a, _ = make_domains()
        table = ForwardingTable()
        table.create(GROUP, None, a)
        assert (GROUP, a) in table
        assert GROUP not in table  # no (*,G) entry
