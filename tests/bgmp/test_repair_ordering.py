"""Regression: repair must prune redundant branches before re-joining.

The failure this pins down: a member domain whose best exit router
moves (a root-domain flip makes another border router's external route
the domain's exit) while the old exit's entry keeps its unchanged
external anchor. The refresh phase is then a no-op there, the old
interior-only branch still serves the members — so a re-join-first
repair skips the domain as on-tree, and the prune phase tears down
that branch as redundant, stranding the members until the *next*
repair pass. Observed via the chaos harness's reachability invariant
(``check_members_reachable``) under consecutive root-domain flips;
fixed by running the prune phase before the re-join phase.
"""

import pytest

from repro.addressing.prefix import Prefix
from repro.bgmp.network import BgmpNetwork
from repro.faults.chaos import (
    check_loop_free_trees,
    check_members_reachable,
)
from repro.sanitizer.core import InvariantSanitizer
from repro.topology.domain import DomainKind
from repro.topology.network import Topology
from tests.conftest import recompute_everything

GROUP = 0xE0000101
COVERING = Prefix.parse("224.0.0.0/16")
MORE_SPECIFIC = Prefix.parse("224.0.0.0/20")


def exit_flip_topology() -> Topology:
    """A diamond where a root flip moves the member domain's best
    exit without moving the old exit's own external anchor.

    M peers with C (via M1) and A (via M2); the flip domain B is a
    customer of both A and C; the steady-state root R hangs off A
    alone. With the /16 at R, M's only external route is at M2. When B
    originates the /20, both M1 and M2 see it externally (C is created
    first, so M1 becomes the best exit) while M2's anchor stays A1 —
    the refresh no-op + redundant-branch combination the repair
    ordering must survive.
    """
    topology = Topology()
    c = topology.add_domain(name="C", kind=DomainKind.REGIONAL)
    a = topology.add_domain(name="A", kind=DomainKind.BACKBONE)
    b = topology.add_domain(name="B", kind=DomainKind.STUB)
    m = topology.add_domain(name="M", kind=DomainKind.STUB)
    r = topology.add_domain(name="R", kind=DomainKind.STUB)
    topology.connect(m.router("M1"), c.router("C1"))
    m.add_peer(c)
    topology.connect(m.router("M2"), a.router("A1"))
    m.add_peer(a)
    topology.connect(b.router("B1"), a.router("A2"))
    a.add_customer(b)
    topology.connect(b.router("B2"), c.router("C2"))
    c.add_customer(b)
    topology.connect(r.router("R1"), a.router("A3"))
    a.add_customer(r)
    return topology


@pytest.fixture(params=(True, False), ids=("full", "incremental"))
def network(request):
    """The exit-flip world; the ``full`` arm runs the whole test under
    the walk-everything oracle, ``incremental`` on dirty sets."""
    with recompute_everything(bgp=False, bgmp=request.param):
        topology = exit_flip_topology()
        network = BgmpNetwork(topology)
        network.originate_group_range(topology.domain("R"), COVERING)
        network.converge()
        assert network.join(topology.domain("M").host("member"), GROUP)
        yield network


class TestRepairOrdering:
    def test_members_reachable_after_every_flip_repair(self, network):
        topology = network.topology
        member = topology.domain("M")
        flipper = topology.domain("B")
        source = topology.domain("R").host("src")
        for flip in range(3):
            network.originate_group_range(flipper, MORE_SPECIFIC)
            network.converge()
            network.repair_trees()
            assert (
                check_members_reachable(
                    network, GROUP, source, [member]
                )
                == []
            ), f"stranded after flip {flip} (root moved to B)"
            network.bgp.withdraw(flipper.router(), MORE_SPECIFIC)
            network.converge()
            network.repair_trees()
            assert (
                check_members_reachable(
                    network, GROUP, source, [member]
                )
                == []
            ), f"stranded after flip {flip} (root moved back to R)"
            assert check_loop_free_trees(network, GROUP) == []

    def test_single_pass_repair_rejoins_pruned_domain(self, network):
        # The flip makes M1 the best exit while M2 holds the only
        # (interior-only, still-anchored) branch: one repair pass must
        # both prune it and re-join through M1.
        topology = network.topology
        network.originate_group_range(
            topology.domain("B"), MORE_SPECIFIC
        )
        network.converge()
        member = topology.domain("M")
        assert network.best_exit_router(member, GROUP).name == "M1"
        counters = network.repair_trees()
        assert counters["pruned"] >= 1
        assert counters["rejoined"] >= 1
        m1_entry = network.router_of(member.routers["M1"]).table.get(
            GROUP
        )
        assert m1_entry is not None
        assert (
            network.router_of(member.routers["M2"]).table.get(GROUP)
            is None
        )

    def test_sanitizer_verdict_clean_after_flips(self, network):
        topology = network.topology
        flipper = topology.domain("B")
        sanitizer = InvariantSanitizer(
            bgmp=network,
            groups=(GROUP,),
            raise_on_violation=False,
        )
        for _ in range(2):
            network.originate_group_range(flipper, MORE_SPECIFIC)
            network.converge()
            network.repair_trees()
            sanitizer.check_converged()
            network.bgp.withdraw(flipper.router(), MORE_SPECIFIC)
            network.converge()
            network.repair_trees()
            sanitizer.check_converged()
        assert sanitizer.violations == []
