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


def make_network():
    return BgmpNetwork(as_graph(random.Random(1), node_count=6))


def multi_router_domain(network):
    return next(
        domain for domain in network.topology.domains
        if len(domain.routers) > 1
    )


class TestTargets:
    def test_peer_target_equality(self):
        """Each router owns one peer target and hands out only it."""
        network = make_network()
        first, second = network.bgmp_routers()[:2]
        assert first.as_peer.router is first.router
        assert first.as_peer is network.router_of(first.router).as_peer
        assert first.as_peer != second.as_peer

    def test_migp_target_equality(self):
        """A domain's routers share one interior target (tree pruning
        tests a best exit's against other routers' entries); another
        domain's is another target."""
        network = make_network()
        domain = multi_router_domain(network)
        interiors = {
            id(network.router_of(router).interior)
            for router in domain.routers.values()
        }
        assert len(interiors) == 1
        interior = network.router_of(domain.router()).interior
        assert interior.domain is domain
        other = next(d for d in network.topology.domains if d is not domain)
        assert network.router_of(other.router()).interior != interior

    def test_cross_kind_inequality(self):
        a, _ = make_domains()
        assert MigpTarget(a) != PeerTarget(a.router("A1"))

    def test_hashable(self):
        a, _ = make_domains()
        interior = MigpTarget(a)
        assert len({interior, interior, MigpTarget(a)}) == 2

    def test_owned_per_router_and_rebuilt_on_restore(self):
        """A copy made through pickle owns its own targets, never the
        original's, and its domain's routers still share one interior
        target."""
        network = make_network()
        domain = multi_router_domain(network)
        copy = pickle.loads(pickle.dumps(network))
        copy_domain = copy.topology.domain(domain.domain_id)
        originals = network.bgmp_routers()
        for original, restored in zip(originals, copy.bgmp_routers()):
            assert restored.as_peer is not original.as_peer
            assert restored.interior is not original.interior
            assert restored.as_peer.router is restored.router
        assert len({
            id(copy.router_of(router).interior)
            for router in copy_domain.routers.values()
        }) == 1

    def test_no_table_keeps_a_world_alive(self):
        """A discarded world goes in one collection: no module-level
        table holds its targets or the routers and domains they name,
        so nothing keeps the world for a second one."""
        topology = as_graph(random.Random(1), node_count=6)
        network = BgmpNetwork(topology)
        probe = weakref.ref(topology.domains[0])
        del topology, network
        gc.collect()
        assert probe() is None


class TestForwardingEntry:
    def test_target_list(self):
        a, b = make_domains()
        parent, child = PeerTarget(b.router("B1")), MigpTarget(a)
        entry = ForwardingEntry(GROUP, parent)
        entry.add_child(child)
        assert entry.targets() == [parent, child]

    def test_add_child_idempotent(self):
        a, _ = make_domains()
        entry = ForwardingEntry(GROUP, None)
        child = MigpTarget(a)
        assert entry.add_child(child)
        assert not entry.add_child(child)
        assert len(entry.children) == 1

    def test_remove_child(self):
        a, _ = make_domains()
        entry = ForwardingEntry(GROUP, None)
        child = MigpTarget(a)
        entry.add_child(child)
        assert entry.remove_child(child)
        assert not entry.remove_child(child)

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
