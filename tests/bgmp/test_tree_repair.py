"""BGMP tree repair after router and link failures.

The recovery contract: state toward a dead next hop is torn down,
surviving members re-join along the new best G-RIB route once BGP has
reconverged, and packets hitting a gap mid-reconvergence are counted
as drops rather than crashing the forwarding plane.
"""

import pytest

from repro.addressing.prefix import Prefix
from repro.scenarios.fixtures import (
    FIGURE3_GROUP as GROUP,
    figure3_bgmp_network,
)


@pytest.fixture
def network():
    return figure3_bgmp_network()


def join_members(net, names):
    hosts = []
    for name in names:
        host = net.topology.domain(name).host("m")
        assert net.join(host, GROUP)
        hosts.append(host)
    return hosts


class TestRouterCrashRepair:
    def test_crash_wipes_dead_router_state(self, network):
        # F joins towards root A through its best exit F2 (F2-A4 is
        # the shortest AS path), putting F2 and A4 on the tree.
        join_members(network, ("F",))
        f2 = network.topology.domain("F").router("F2")
        assert network.router_of(f2).table.get(GROUP) is not None
        network.handle_router_crash(f2)
        assert len(network.router_of(f2).table) == 0

    def test_crash_tears_down_branches_toward_dead_router(self, network):
        join_members(network, ("F",))
        topology = network.topology
        f2 = topology.domain("F").router("F2")
        a4 = topology.domain("A").router("A4")
        entry = network.router_of(a4).table.get(GROUP)
        assert entry is not None
        assert network.router_of(f2).as_peer in entry.children
        network.handle_router_crash(f2)
        # A4 carried state only on F2's behalf: the branch is torn down.
        entry = network.router_of(a4).table.get(GROUP)
        assert (
            entry is None
            or network.router_of(f2).as_peer not in entry.children
        )

    def test_members_rejoin_after_reconvergence(self, network):
        join_members(network, ("C", "F"))
        topology = network.topology
        f2 = topology.domain("F").router("F2")
        network.handle_router_crash(f2)
        network.converge()
        counters = network.repair_trees()
        # F is multihomed: it re-joins through F1-B2.
        assert counters["rejoined"] >= 1
        f1 = topology.domain("F").router("F1")
        assert network.router_of(f1).table.get(GROUP) is not None
        report = network.send(topology.domain("E").host("s"), GROUP)
        for name in ("C", "F"):
            assert report.reached(topology.domain(name)), name
        assert report.duplicates == 0

    def test_restart_restores_original_paths(self, network):
        join_members(network, ("C", "F"))
        topology = network.topology
        f2 = topology.domain("F").router("F2")
        network.handle_router_crash(f2)
        network.converge()
        network.repair_trees()
        network.handle_router_restart(f2)
        network.converge()
        network.repair_trees()
        report = network.send(topology.domain("E").host("s"), GROUP)
        for name in ("C", "F"):
            assert report.reached(topology.domain(name)), name
        assert report.duplicates == 0

    def test_repair_is_idempotent(self, network):
        join_members(network, ("C", "F"))
        f2 = network.topology.domain("F").router("F2")
        network.handle_router_crash(f2)
        network.converge()
        network.repair_trees()
        counters = network.repair_trees()
        assert counters == {"migrations": 0, "rejoined": 0, "pruned": 0}


class TestGracefulDegradation:
    def test_send_toward_dead_router_counts_drop(self, network):
        join_members(network, ("F",))
        topology = network.topology
        f2 = topology.domain("F").router("F2")
        # Crash F2 in BGP only — leave the stale tree state at A4 in
        # place to model the window before teardown runs.
        network.bgp.fail_router(f2)
        report = network.send(topology.domain("C").host("s"), GROUP)
        assert report.dropped >= 1
        assert not report.reached(topology.domain("F"))

    def test_no_covering_route_counts_drop(self, network):
        topology = network.topology
        # Withdraw the only group range: senders have nowhere to root.
        a_router = topology.domain("A").router("A1")
        for router in topology.domain("A").routers.values():
            network.bgp.withdraw(router, Prefix.parse("224.0.0.0/16"))
        network.converge()
        report = network.send(topology.domain("C").host("s"), GROUP)
        assert report.dropped >= 1
        assert report.total_deliveries == 0

    def test_join_fails_cleanly_without_covering_route(self, network):
        topology = network.topology
        for router in topology.domain("A").routers.values():
            network.bgp.withdraw(router, Prefix.parse("224.0.0.0/16"))
        network.converge()
        network.repair_trees()
        assert not network.join(topology.domain("C").host("m"), GROUP)


class TestLinkFailureRepair:
    def test_link_down_reroutes_tree(self, network):
        join_members(network, ("F",))
        topology = network.topology
        f1 = topology.domain("F").router("F1")
        b2 = topology.domain("B").router("B2")
        network.bgp.set_session_state(f1, b2, up=False)
        network.converge()
        network.repair_trees()
        report = network.send(topology.domain("E").host("s"), GROUP)
        assert report.reached(topology.domain("F"))
        assert report.duplicates == 0

    def test_flap_prunes_detour_branch(self, network):
        # F migrates F2->F1 on failure and back on recovery; the
        # repair pass must tear down the detour branch through F1 or
        # the domain keeps two delivery paths (and loops packets).
        join_members(network, ("F",))
        topology = network.topology
        f1 = topology.domain("F").router("F1")
        f2 = topology.domain("F").router("F2")
        a4 = topology.domain("A").router("A4")
        network.bgp.set_session_state(f2, a4, up=False)
        network.converge()
        network.repair_trees()
        assert network.router_of(f1).table.get(GROUP) is not None
        network.bgp.set_session_state(f2, a4, up=True)
        network.converge()
        counters = network.repair_trees()
        assert counters["pruned"] >= 1
        assert network.router_of(f1).table.get(GROUP) is None
        report = network.send(topology.domain("E").host("s"), GROUP)
        assert report.reached(topology.domain("F"))
        assert report.duplicates == 0

    def test_link_recovery_converges_back(self, network):
        join_members(network, ("F", "C"))
        topology = network.topology
        f1 = topology.domain("F").router("F1")
        b2 = topology.domain("B").router("B2")
        network.bgp.set_session_state(f1, b2, up=False)
        network.converge()
        network.repair_trees()
        network.bgp.set_session_state(f1, b2, up=True)
        network.converge()
        network.repair_trees()
        report = network.send(topology.domain("E").host("s"), GROUP)
        assert report.reached(topology.domain("F"))
        assert report.reached(topology.domain("C"))
        assert report.duplicates == 0
