"""The paper's Figure 3 walk-throughs, executed end to end.

Covers the section 5.2 bidirectional-tree construction, the off-tree
sender in E, the DVMRP encapsulation case in F, and the section 5.3
source-specific branch F2 -> A4 with the prune back through F1 -> B2.
"""

import pytest

from repro.addressing.ipv4 import parse_address
from repro.addressing.prefix import Prefix
from repro.bgmp.network import BgmpNetwork
from repro.topology.generators import paper_figure3_topology
from tests.conftest import recompute_everything


GROUP = parse_address("224.0.128.1")


@pytest.fixture
def network():
    topology = paper_figure3_topology()
    net = BgmpNetwork(topology)
    net.originate_group_range(
        topology.domain("A"), Prefix.parse("224.0.0.0/16")
    )
    net.bgp.originate(
        topology.domain("B").router("B1"), Prefix.parse("224.0.128.0/24")
    )
    net.converge()
    return net


def join_members(net, *domain_names):
    hosts = {}
    for name in domain_names:
        domain = net.topology.domain(name)
        host = domain.host(f"{name}-member")
        assert net.join(host, GROUP)
        hosts[name] = host
    return hosts


class TestTreeConstruction:
    def test_root_domain_is_b(self, network):
        assert network.root_domain_of(GROUP).name == "B"

    def test_c_join_builds_paper_state(self, network):
        top = network.topology
        join_members(network, "C")
        a = top.domain("A")
        b = top.domain("B")
        c = top.domain("C")
        # C1: parent A2, child = its MIGP component.
        c1 = network.router_of(c.router("C1")).table.get(GROUP)
        assert c1.parent is network.router_of(a.router("A2")).as_peer
        assert c1.children == (network.router_of(c.router("C1")).interior,)
        # A2: parent = MIGP (towards exit A3), child C1.
        a2 = network.router_of(a.router("A2")).table.get(GROUP)
        assert a2.parent is network.router_of(a.router("A2")).interior
        assert a2.children == (network.router_of(c.router("C1")).as_peer,)
        # A3: parent B1 (external), child = MIGP component.
        a3 = network.router_of(a.router("A3")).table.get(GROUP)
        assert a3.parent is network.router_of(b.router("B1")).as_peer
        assert a3.children == (network.router_of(a.router("A3")).interior,)
        # B1 (root domain): parent = MIGP component, child A3.
        b1 = network.router_of(b.router("B1")).table.get(GROUP)
        assert b1.parent is network.router_of(b.router("B1")).interior
        assert b1.children == (network.router_of(a.router("A3")).as_peer,)

    def test_full_membership_tree(self, network):
        join_members(network, "B", "C", "D", "F", "H")
        routers = {r.name for r in network.tree_routers(GROUP)}
        # The shared tree spans the B-A spine plus each member branch.
        assert {"B1", "A3", "A2", "A4", "C1", "D1"} <= routers
        # F joined through B (F1-B2), H through G (H1-G2-B2 side).
        assert "F1" in routers
        assert "B2" in routers

    def test_root_member_only_needs_no_bgmp_state(self, network):
        join_members(network, "B")
        assert network.forwarding_state_size() == 0


class TestDataDelivery:
    def test_off_tree_sender_reaches_all_members(self, network):
        # Section 5.2: a host in E (no members) sends; data follows the
        # route towards the root domain until it hits the tree.
        hosts = join_members(network, "B", "C", "D", "F", "H")
        sender = network.topology.domain("E").host("e-sender")
        report = network.send(sender, GROUP)
        for name in hosts:
            assert report.reached(network.topology.domain(name)), (
                f"member in {name} missed"
            )
        assert report.total_deliveries == 5
        assert report.duplicates == 0

    def test_member_sender_bidirectional_shortcut(self, network):
        # Members in C and D communicate along the bidirectional tree
        # through A without detouring via the root domain B.
        join_members(network, "C", "D")
        sender = network.topology.domain("C").host("c-sender")
        report = network.send(sender, GROUP)
        assert report.reached(network.topology.domain("D"))
        assert report.duplicates == 0

    def test_sender_in_member_domain_counts_local_delivery(self, network):
        join_members(network, "C", "D")
        sender = network.topology.domain("C").host("c-sender2")
        report = network.send(sender, GROUP)
        assert report.reached(network.topology.domain("C"))

    def test_no_members_packet_dies_at_root(self, network):
        sender = network.topology.domain("E").host("e-sender")
        report = network.send(sender, GROUP)
        assert report.total_deliveries == 0
        assert report.duplicates == 0

    def test_unknown_group_is_dropped(self, network):
        sender = network.topology.domain("E").host("e-sender")
        report = network.send(sender, parse_address("238.1.2.3"))
        assert report.dropped == 1
        assert report.total_deliveries == 0


class TestEncapsulation:
    def test_dvmrp_rpf_forces_encapsulation_in_f(self, network):
        # Section 5.3: F's shortest path to sources in D is via F2, but
        # the shared tree delivers at F1 -> F1 encapsulates to F2.
        join_members(network, "B", "C", "D", "F", "H")
        sender = network.topology.domain("D").host("d-sender")
        report = network.send(sender, GROUP)
        assert report.reached(network.topology.domain("F"))
        f = network.topology.domain("F")
        assert (f.router("F1"), f.router("F2")) in report.decapsulations
        # H is multihomed the same way (footnote 10's H-D path runs
        # via C, but the tree delivers via G), so it encapsulates too.
        h = network.topology.domain("H")
        assert (h.router("H1"), h.router("H2")) in report.decapsulations
        assert report.encapsulations == 2

    def test_source_branch_removes_encapsulation(self, network):
        join_members(network, "B", "C", "D", "F", "H")
        topology = network.topology
        f = topology.domain("F")
        d = topology.domain("D")
        assert network.establish_source_branch(
            f.router("F2"), GROUP, d, prune_shared_at=f.router("F1")
        )
        # A4 (on the shared tree) terminates the branch: (S,G) state
        # copied from (*,G) plus the new child F2.
        a4 = network.router_of(
            topology.domain("A").router("A4")
        ).table.get(GROUP, d)
        assert a4 is not None
        assert network.router_of(f.router("F2")).as_peer in a4.children
        sender = d.host("d-sender")
        report = network.send(sender, GROUP)
        assert report.reached(f)
        # F's encapsulation is gone; only H's (no branch there) stays.
        assert (f.router("F1"), f.router("F2")) not in report.decapsulations
        assert report.encapsulations == 1
        assert report.duplicates == 0
        # All other members still served.
        for name in ("B", "C", "H"):
            assert report.reached(topology.domain(name))

    def test_branch_does_not_extend_past_shared_tree(self, network):
        join_members(network, "B", "C", "D", "F", "H")
        topology = network.topology
        f = topology.domain("F")
        d = topology.domain("D")
        network.establish_source_branch(
            f.router("F2"), GROUP, d, prune_shared_at=f.router("F1")
        )
        # D1 must NOT have (S,G) state: the join stopped at A4.
        d1 = network.router_of(d.router("D1")).table.get(GROUP, d)
        assert d1 is None

    def test_other_sources_still_use_shared_tree(self, network):
        join_members(network, "B", "C", "D", "F", "H")
        topology = network.topology
        f = topology.domain("F")
        d = topology.domain("D")
        network.establish_source_branch(
            f.router("F2"), GROUP, d, prune_shared_at=f.router("F1")
        )
        # A source in E is unaffected by the (S,G) state for D.
        sender = topology.domain("E").host("e-sender")
        report = network.send(sender, GROUP)
        assert report.reached(f)
        assert report.duplicates == 0
        # Sources in E reach F along the shared tree via F1 — and with
        # no (E,G) branch, F1's DVMRP encapsulation to the E-facing
        # RPF router applies as usual only if paths diverge; E's
        # packets arrive via B2-F1 while F's unicast route to E runs
        # via F2-A4-A1, so F encapsulates here too.
        assert report.encapsulations >= 0


class TestTeardown:
    def test_leave_tears_down_tree(self, network):
        hosts = join_members(network, "C", "D")
        assert network.forwarding_state_size() > 0
        for name, host in hosts.items():
            network.leave(host, GROUP)
        assert network.forwarding_state_size() == 0

    def test_partial_leave_keeps_shared_spine(self, network):
        hosts = join_members(network, "C", "D")
        network.leave(hosts["C"], GROUP)
        routers = {r.name for r in network.tree_routers(GROUP)}
        assert "D1" in routers and "A4" in routers
        assert "C1" not in routers

    def test_leave_with_remaining_local_members(self, network):
        c = network.topology.domain("C")
        first = c.host("m1")
        second = c.host("m2")
        network.join(first, GROUP)
        network.join(second, GROUP)
        network.leave(first, GROUP)
        # One member remains: the tree must stay up.
        routers = {r.name for r in network.tree_routers(GROUP)}
        assert "C1" in routers


class TestMigpIndependence:
    @pytest.mark.parametrize("kind", ["pim-sm", "cbt", "mospf", "dvmrp"])
    def test_delivery_identical_across_migps(self, kind):
        topology = paper_figure3_topology()
        net = BgmpNetwork(topology, migp_selector=lambda d: kind)
        net.originate_group_range(
            topology.domain("A"), Prefix.parse("224.0.0.0/16")
        )
        net.bgp.originate(
            topology.domain("B").router("B1"),
            Prefix.parse("224.0.128.0/24"),
        )
        net.converge()
        for name in ("B", "C", "D", "F", "H"):
            domain = topology.domain(name)
            assert net.join(domain.host(f"{name}-m"), GROUP)
        report = net.send(topology.domain("E").host("e-s"), GROUP)
        assert report.total_deliveries == 5
        assert report.duplicates == 0

    def test_only_dense_migps_encapsulate(self):
        results = {}
        for kind in ("dvmrp", "pim-dm", "pim-sm", "cbt"):
            topology = paper_figure3_topology()
            net = BgmpNetwork(topology, migp_selector=lambda d: kind)
            net.originate_group_range(
                topology.domain("A"), Prefix.parse("224.0.0.0/16")
            )
            net.bgp.originate(
                topology.domain("B").router("B1"),
                Prefix.parse("224.0.128.0/24"),
            )
            net.converge()
            for name in ("B", "C", "D", "F", "H"):
                domain = topology.domain(name)
                net.join(domain.host(f"{name}-m"), GROUP)
            report = net.send(topology.domain("D").host("d-s"), GROUP)
            results[kind] = report.encapsulations
        # F and H both need RPF encapsulation under dense-mode MIGPs;
        # sparse/shared-tree MIGPs never do.
        assert results["dvmrp"] == 2
        assert results["pim-dm"] == 2
        assert results["pim-sm"] == 0
        assert results["cbt"] == 0


class TestRepairAgainstOracle:
    """Every single and double fault of the Figure 3 world (multi-router
    domains, H multihomed, F's second link unicast-only): with each
    session down in turn, crash and restore every border router. The
    repair that looks only at what moved must equal the one that looks
    at everything after every step. Interior transit (A2 -> A3, G2 ->
    G1) and redundant interior branches (a transit router that loses
    its last external child after the domain's exit moved) are where a
    (domain, group) that was never flagged would hide."""

    #: Rooted at B (its /24), at A (the /16 alone) and at F (a stub
    #: whose two providers then transit for everyone else).
    GROUPS = (
        GROUP, parse_address("224.0.1.1"), parse_address("224.0.64.1")
    )
    LATE_GROUP = parse_address("224.0.2.2")

    def _world(self):
        topology = paper_figure3_topology()
        topology.set_multicast_capable(
            topology.domain("F").router("F2"),
            topology.domain("A").router("A4"),
            False,
        )
        net = BgmpNetwork(topology)
        net.originate_group_range(
            topology.domain("A"), Prefix.parse("224.0.0.0/16")
        )
        net.bgp.originate(
            topology.domain("B").router("B1"), Prefix.parse("224.0.128.0/24")
        )
        net.originate_group_range(
            topology.domain("F"), Prefix.parse("224.0.64.0/24")
        )
        net.converge()
        for group in self.GROUPS:
            for domain in topology.domains:
                assert net.join(domain.host("m"), group)
        return net

    def _run(self):
        net = self._world()
        topology = net.topology
        steps = []

        def record(label, counters):
            steps.append((
                label,
                tuple(sorted(counters.items())),
                net.forwarding_digest(),
                tuple(
                    (bgmp.joins_sent, bgmp.prunes_sent)
                    for bgmp in net.bgmp_routers()
                ),
            ))

        def settle(label):
            net.converge()
            record(label, net.repair_trees())

        settle("start")
        for link in [None, *topology.links]:
            name = "-".join(r.name for r in link) if link else "no link"
            if link:
                net.bgp.set_session_state(*link, up=False)
                settle(f"down {name}")
            for router in topology.routers():
                net.handle_router_crash(router)
                settle(f"{name} down, crash {router.name}")
                net.handle_router_restart(router)
                settle(f"{name} down, restart {router.name}")
            if link:
                net.bgp.set_session_state(*link, up=True)
                settle(f"up {name}")
        # A join made while a session is down and the G-RIB still
        # points across it is held parentless; when the session is back
        # before BGP ever noticed, no delta names the entry.
        for link in topology.links:
            name = "-".join(r.name for r in link)
            net.bgp.set_session_state(*link, up=False)
            for domain in topology.domains:
                net.join(domain.host("late"), self.LATE_GROUP)
            net.bgp.set_session_state(*link, up=True)
            record(f"mend {name}", net.repair_trees())
            settle(f"settle {name}")
            for domain in topology.domains:
                net.leave(domain.host("late"), self.LATE_GROUP)
            settle(f"left {name}")
        return steps

    def test_every_fault_repairs_like_the_oracle(self):
        with recompute_everything():
            expected = self._run()
        actual = self._run()
        for want, got in zip(expected, actual):
            assert want == got, want[0]
        assert len(actual) == len(expected)
        # The schedule did exercise all three phases.
        totals = {}
        for _label, counters, _digest, _traffic in actual:
            for name, count in counters:
                totals[name] = totals.get(name, 0) + count
        assert all(totals[k] for k in ("migrations", "rejoined", "pruned"))
