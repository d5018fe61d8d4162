"""BGP under failures: session flaps, router crashes, and the
converged-vs-gave-up contract.

A down session withdraws everything learned over it (BGP's session
semantics); a crashed router loses its volatile RIBs but keeps its
configuration (origins) for the restart; and the propagation engine
reports non-convergence instead of silently stopping at the round
budget.
"""

import random

import pytest

from repro.addressing.ipv4 import parse_address
from repro.addressing.prefix import Prefix
from repro.bgp.network import BgpNetwork, ConvergenceError, ConvergenceResult
from repro.experiments.churn import group_prefix
from repro.topology.generators import as_graph, paper_figure3_topology

GROUP_PREFIX = Prefix.parse("224.1.0.0/16")
GROUP = parse_address("224.1.0.1")


@pytest.fixture
def network():
    net = BgpNetwork(paper_figure3_topology())
    b1 = net.topology.domain("B").router("B1")
    net.originate(b1, GROUP_PREFIX)
    net.converge()
    return net


def has_route(net, router):
    return net.group_next_hop(router, GROUP) is not None


class TestSessionFlap:
    def test_session_down_withdraws_learned_routes(self, network):
        topology = network.topology
        b1 = topology.domain("B").router("B1")
        a3 = topology.domain("A").router("A3")
        assert has_route(network, a3)
        network.set_session_state(b1, a3, up=False)
        network.converge()
        # B's only transit link is B1-A3: the route disappears from
        # every other domain, not just A.
        assert not has_route(network, a3)
        assert not has_route(network, topology.domain("E").router("E1"))

    def test_recovery_readvertises(self, network):
        topology = network.topology
        b1 = topology.domain("B").router("B1")
        a3 = topology.domain("A").router("A3")
        network.set_session_state(b1, a3, up=False)
        network.converge()
        network.set_session_state(b1, a3, up=True)
        network.converge()
        assert has_route(network, a3)
        assert has_route(network, topology.domain("E").router("E1"))

    def test_multihomed_domain_reroutes_around_down_link(self, network):
        topology = network.topology
        f1 = topology.domain("F").router("F1")
        b2 = topology.domain("B").router("B2")
        route_before = network.group_next_hop(f1, GROUP)
        assert route_before.next_hop == b2
        network.set_session_state(f1, b2, up=False)
        network.converge()
        # F is multihomed (F2-A4): F1 re-selects through the interior.
        route_after = network.group_next_hop(f1, GROUP)
        assert route_after is not None
        assert route_after.from_internal

    def test_down_session_is_idempotent(self, network):
        topology = network.topology
        b1 = topology.domain("B").router("B1")
        a3 = topology.domain("A").router("A3")
        network.set_session_state(b1, a3, up=False)
        network.set_session_state(b1, a3, up=False)
        assert not network.session_up(b1, a3)
        network.set_session_state(b1, a3, up=True)
        assert network.session_up(b1, a3)


class TestRouterCrash:
    def test_crash_withdraws_routes_network_wide(self, network):
        topology = network.topology
        b1 = topology.domain("B").router("B1")
        network.fail_router(b1)
        network.converge()
        assert not network.router_up(b1)
        assert not has_route(network, topology.domain("A").router("A3"))

    def test_crashed_router_loses_volatile_state(self, network):
        topology = network.topology
        b1 = topology.domain("B").router("B1")
        assert network.speaker(b1).loc_rib.routes()
        network.fail_router(b1)
        assert not network.speaker(b1).loc_rib.routes()
        # Configuration survives the crash.
        assert network.speaker(b1).origins()

    def test_restart_reannounces_origins(self, network):
        topology = network.topology
        b1 = topology.domain("B").router("B1")
        network.fail_router(b1)
        network.converge()
        network.restore_router(b1)
        network.converge()
        assert has_route(network, topology.domain("A").router("A3"))
        assert has_route(network, topology.domain("E").router("E1"))

    def test_down_routers_listed(self, network):
        b1 = network.topology.domain("B").router("B1")
        assert network.down_routers() == []
        network.fail_router(b1)
        assert network.down_routers() == [b1]
        network.restore_router(b1)
        assert network.down_routers() == []


class TestConvergenceContract:
    def test_converge_returns_rounds_when_converged(self, network):
        assert isinstance(network.converge(), int)

    def test_converge_raises_when_budget_exhausted(self, network):
        with pytest.raises(ConvergenceError) as exc:
            network.converge(max_rounds=0)
        assert exc.value.rounds == 0

    def test_try_converge_reports_success(self, network):
        result = network.try_converge()
        assert isinstance(result, ConvergenceResult)
        assert result.converged
        assert result.rounds >= 1
        assert bool(result)

    def test_try_converge_reports_giving_up_without_raising(self, network):
        result = network.try_converge(max_rounds=0)
        assert not result.converged
        assert result.rounds == 0
        assert not bool(result)

    def test_partial_budgets_resume_where_they_stopped(self):
        # An exhausted budget must remember the speakers that still
        # have unexported changes: one round per call reaches the same
        # fixpoint, in as many calls as a one-shot converge takes
        # rounds, sending the same UPDATEs.
        def build():
            net = BgpNetwork(as_graph(random.Random(5), node_count=40))
            for domain in net.topology.domains:
                net.originate_from_domain(
                    domain, group_prefix(domain.domain_id)
                )
            return net

        def withdraw(net):
            domain = net.topology.domains[7]
            net.withdraw(domain.router(), group_prefix(domain.domain_id))

        one_shot, stepped = build(), build()
        # First the origination burst itself, then a withdrawal.
        for mutate in (lambda net: None, withdraw):
            mutate(one_shot)
            mutate(stepped)
            rounds = one_shot.converge()
            calls = 1
            while not stepped.try_converge(max_rounds=1):
                calls += 1
            assert calls == rounds > 2
            assert stepped.updates_sent == one_shot.updates_sent
            assert stepped.rib_digest() == one_shot.rib_digest()
