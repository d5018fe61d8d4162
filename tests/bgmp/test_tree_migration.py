"""Tests for tree re-anchoring after G-RIB changes.

The paper's scenario (section 4.1): a domain whose demand outruns its
MASC space hands out addresses from its *parent's* range, so those
groups are initially rooted at the parent; once the child acquires its
own covering range and injects the more specific group route, the
root domain changes — and existing shared trees must migrate.
"""

import pytest

from repro.addressing.prefix import Prefix
from repro.scenarios.fixtures import (
    FIGURE3_GROUP as GROUP,
    figure3_bgmp_network,
)


@pytest.fixture
def network():
    # Initially only A's /16 exists: A is the root domain.
    return figure3_bgmp_network()


class TestRootMigration:
    def test_initial_root_is_parent(self, network):
        assert network.root_domain_of(GROUP).name == "A"

    def test_more_specific_route_moves_root(self, network):
        topology = network.topology
        # Members join while A is the root.
        for name in ("C", "D", "F"):
            assert network.join(topology.domain(name).host("m"), GROUP)
        before = {r.name for r in network.tree_routers(GROUP)}
        assert "B1" not in before  # tree rooted inside A
        # B acquires 224.0.128/24 and injects it: root moves to B.
        network.bgp.originate(
            topology.domain("B").router("B1"),
            Prefix.parse("224.0.128.0/24"),
        )
        network.converge()
        assert network.root_domain_of(GROUP).name == "B"
        migrations = network.refresh_trees()
        assert migrations > 0
        after = {r.name for r in network.tree_routers(GROUP)}
        assert "B1" in after
        # A3 (A's exit towards B) now parents at B1.
        a3 = network.router_of(
            topology.domain("A").router("A3")
        ).table.get(GROUP)
        b1 = topology.domain("B").router("B1")
        assert a3.parent is network.router_of(b1).as_peer

    def test_delivery_correct_after_migration(self, network):
        topology = network.topology
        members = ("C", "D", "F")
        for name in members:
            network.join(topology.domain(name).host("m"), GROUP)
        network.bgp.originate(
            topology.domain("B").router("B1"),
            Prefix.parse("224.0.128.0/24"),
        )
        network.converge()
        network.refresh_trees()
        report = network.send(topology.domain("E").host("s"), GROUP)
        for name in members:
            assert report.reached(topology.domain(name)), name
        assert report.duplicates == 0

    def test_refresh_idempotent(self, network):
        topology = network.topology
        network.join(topology.domain("C").host("m"), GROUP)
        network.bgp.originate(
            topology.domain("B").router("B1"),
            Prefix.parse("224.0.128.0/24"),
        )
        network.converge()
        assert network.refresh_trees() > 0
        assert network.refresh_trees() == 0

    def test_refresh_noop_without_changes(self, network):
        topology = network.topology
        network.join(topology.domain("C").host("m"), GROUP)
        assert network.refresh_trees() == 0

    def test_teardown_clean_after_migration(self, network):
        topology = network.topology
        hosts = []
        for name in ("C", "D", "F"):
            host = topology.domain(name).host("m")
            network.join(host, GROUP)
            hosts.append(host)
        network.bgp.originate(
            topology.domain("B").router("B1"),
            Prefix.parse("224.0.128.0/24"),
        )
        network.converge()
        network.refresh_trees()
        for host in hosts:
            network.leave(host, GROUP)
        assert network.forwarding_state_size() == 0

    def test_withdrawal_moves_root_back(self, network):
        topology = network.topology
        network.join(topology.domain("C").host("m"), GROUP)
        b1 = topology.domain("B").router("B1")
        network.bgp.originate(b1, Prefix.parse("224.0.128.0/24"))
        network.converge()
        network.refresh_trees()
        assert network.root_domain_of(GROUP).name == "B"
        # B's range expires (withdrawn): the root falls back to A.
        network.bgp.withdraw(b1, Prefix.parse("224.0.128.0/24"))
        network.converge()
        assert network.root_domain_of(GROUP).name == "A"
        network.refresh_trees()
        report = network.send(topology.domain("E").host("s"), GROUP)
        assert report.reached(topology.domain("C"))
        assert report.duplicates == 0
