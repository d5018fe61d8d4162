"""Tests for the event-driven BGP engine."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.addressing.ipv4 import parse_address
from repro.addressing.prefix import Prefix
from repro.bgp.events import EventDrivenBgp
from repro.bgp.network import BgpNetwork
from repro.bgp.routes import RouteType
from repro.sim.engine import Simulator
from repro.topology.generators import (
    as_graph,
    linear_chain,
    paper_figure1_topology,
    transit_stub,
)

PREFIX = Prefix.parse("226.1.0.0/16")
ADDRESS = parse_address("226.1.2.3")


class TestPropagation:
    def test_chain_propagation_takes_time(self):
        from repro.bgp.policy import PromiscuousPolicy

        topology = linear_chain(5)
        sim = Simulator()
        engine = EventDrivenBgp(
            topology, sim, policy=PromiscuousPolicy(), external_delay=1.0
        )
        origin = topology.domain("N0")
        engine.inject(origin.router(), PREFIX)
        elapsed = engine.run_to_quiescence()
        # Four inter-domain hops at 1.0 each (plus internal hops).
        assert elapsed >= 4.0
        last = topology.domain("N4").router()
        assert engine.group_next_hop(last, ADDRESS) is not None

    def test_partial_state_mid_flight(self):
        from repro.bgp.policy import PromiscuousPolicy

        topology = linear_chain(4)
        sim = Simulator()
        engine = EventDrivenBgp(
            topology, sim, policy=PromiscuousPolicy(), external_delay=1.0
        )
        engine.inject(topology.domain("N0").router(), PREFIX)
        sim.run(until=1.5)  # one external hop delivered
        assert engine.group_next_hop(
            topology.domain("N1").router("N1-to-N0"), ADDRESS
        ) is not None
        assert engine.group_next_hop(
            topology.domain("N3").router(), ADDRESS
        ) is None
        engine.run_to_quiescence()
        assert engine.group_next_hop(
            topology.domain("N3").router(), ADDRESS
        ) is not None

    def test_withdrawal_propagates(self):
        topology = linear_chain(4)
        sim = Simulator()
        engine = EventDrivenBgp(topology, sim)
        origin = topology.domain("N0").router()
        engine.inject(origin, PREFIX)
        engine.run_to_quiescence()
        assert engine.retract(origin, PREFIX)
        engine.run_to_quiescence()
        for domain in topology.domains:
            assert engine.group_next_hop(
                domain.router(), ADDRESS
            ) is None

    def test_withdrawal_on_a_cycle_leaves_no_stale_route(self):
        """On a triangle S and X each fall back on the other once O
        withdraws; each fallback is announced to the domain it runs
        through, and that looped announcement must displace what the
        sender advertised before or both keep a route nobody
        originates."""
        from repro.bgp.policy import PromiscuousPolicy
        from repro.topology.network import Topology

        def triangle():
            topology = Topology()
            o, s, x = (topology.add_domain(name) for name in "OSX")
            for a, b in ((o, s), (o, x), (s, x)):
                topology.connect(
                    a.router(f"{a.name}-to-{b.name}"),
                    b.router(f"{b.name}-to-{a.name}"),
                )
            return topology

        topology = triangle()
        event = EventDrivenBgp(
            topology, Simulator(), policy=PromiscuousPolicy()
        )
        origin = topology.domain("O").router("O-to-S")
        event.inject(origin, PREFIX)
        event.run_to_quiescence()
        assert all(
            event.group_next_hop(router, ADDRESS) is not None
            for router in topology.routers()
        )
        assert event.retract(origin, PREFIX)
        event.run_to_quiescence()

        reference = triangle()
        sync = BgpNetwork(reference, policy=PromiscuousPolicy())
        sync.originate(reference.domain("O").router("O-to-S"), PREFIX)
        sync.converge()
        sync.withdraw(reference.domain("O").router("O-to-S"), PREFIX)
        sync.converge()
        for network in (sync, event):
            assert all(
                len(speaker.loc_rib) == 0
                for speaker in network.speakers.values()
            )
        assert event.rib_digest() == sync.rib_digest()

    def test_counters(self):
        topology = linear_chain(3)
        sim = Simulator()
        engine = EventDrivenBgp(topology, sim)
        engine.inject(topology.domain("N0").router(), PREFIX)
        engine.run_to_quiescence()
        assert engine.updates_sent > 0
        assert engine.routes_announced > 0
        assert engine.routes_withdrawn == 0


class TestEquivalenceWithSynchronousEngine:
    def _final_state(self, network):
        state = {}
        for router, speaker in network.speakers.items():
            route = speaker.loc_rib.lookup(RouteType.GROUP, ADDRESS)
            if route is None:
                state[router] = None
            else:
                state[router] = (
                    route.next_hop,
                    route.as_path,
                    route.from_internal,
                )
        return state

    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_same_fixpoint_as_synchronous(self, seed):
        rng = random.Random(seed)
        build = rng.choice(["as-graph", "transit-stub"])
        if build == "as-graph":
            topo_a = as_graph(random.Random(seed), node_count=40)
            topo_b = as_graph(random.Random(seed), node_count=40)
        else:
            topo_a = transit_stub(random.Random(seed), 3, 5)
            topo_b = transit_stub(random.Random(seed), 3, 5)
        origin_index = rng.randrange(len(topo_a))

        sync = BgpNetwork(topo_a)
        sync.originate_from_domain(topo_a.domain(origin_index), PREFIX)
        sync.converge()

        sim = Simulator()
        event = EventDrivenBgp(topo_b, sim)
        event.inject(topo_b.domain(origin_index).router(), PREFIX)
        event.run_to_quiescence()

        def normalized(network):
            def hop(router):
                if router is None:
                    return None
                return (router.domain.name, router.name)

            return {
                (r.domain.name, r.name): (
                    None
                    if value is None
                    else (hop(value[0]), value[1], value[2])
                )
                for r, value in self._final_state(network).items()
            }

        assert normalized(sync) == normalized(event)
        assert sync.rib_digest() == event.rib_digest()

        # ... and back: the event-driven withdrawal still hunts through
        # alternative paths before the prefix is gone everywhere (the
        # synchronous engine withholds superseded ones); both end empty.
        sync.withdraw(topo_a.domain(origin_index).router(), PREFIX)
        sync.converge()
        assert event.retract(topo_b.domain(origin_index).router(), PREFIX)
        event.run_to_quiescence()
        assert set(normalized(event).values()) == {None}
        assert sync.rib_digest() == event.rib_digest()

    def test_figure1_equivalence(self):
        topo_a = paper_figure1_topology()
        sync = BgpNetwork(topo_a)
        sync.originate(topo_a.domain("B").router("B1"),
                       Prefix.parse("224.0.128.0/24"))
        sync.originate(topo_a.domain("A").router("A1"),
                       Prefix.parse("224.0.0.0/16"))
        sync.converge()

        topo_b = paper_figure1_topology()
        sim = Simulator()
        event = EventDrivenBgp(topo_b, sim)
        event.inject(topo_b.domain("B").router("B1"),
                     Prefix.parse("224.0.128.0/24"))
        event.inject(topo_b.domain("A").router("A1"),
                     Prefix.parse("224.0.0.0/16"))
        event.run_to_quiescence()

        group = parse_address("224.0.128.1")
        for name in ("A", "B", "C", "D", "E", "F", "G"):
            sync_hit = sync.group_next_hop(
                topo_a.domain(name).router(), group
            )
            event_hit = event.group_next_hop(
                topo_b.domain(name).router(), group
            )
            assert (sync_hit is None) == (event_hit is None)
            if sync_hit is not None:
                assert sync_hit.prefix == event_hit.prefix
                sync_hop = sync_hit.next_hop.name if sync_hit.next_hop else None
                event_hop = (
                    event_hit.next_hop.name if event_hit.next_hop else None
                )
                assert sync_hop == event_hop


class TestFaultsReachTheSynchronousFixpoint:
    """A crash, a restore and a session going down or up, each run to
    quiescence, leave the event-driven engine on the Loc-RIBs the
    synchronous engine converges to."""

    FIRST = Prefix.parse("226.1.0.0/20")
    SECOND = Prefix.parse("226.2.0.0/20")

    @staticmethod
    def _engines(mrai=0.0):
        return (
            BgpNetwork(as_graph(random.Random(7), node_count=12)),
            EventDrivenBgp(
                as_graph(random.Random(7), node_count=12),
                Simulator(),
                mrai=mrai,
            ),
        )

    @staticmethod
    def _settle(engine):
        if isinstance(engine, EventDrivenBgp):
            engine.run_to_quiescence()
        else:
            engine.converge()

    @staticmethod
    def _originate(engine, domain_index, prefix):
        router = engine.topology.domains[domain_index].router()
        if isinstance(engine, EventDrivenBgp):
            engine.inject(router, prefix)
        else:
            engine.originate(router, prefix)

    def _step(self, engines, action):
        for engine in engines:
            action(engine, engine.topology.domains)
            self._settle(engine)
        sync, event = engines
        assert event.rib_digest() == sync.rib_digest()

    def test_crash_restore_and_session_flap(self):
        engines = self._engines()

        def session(engine, up):
            domains = engine.topology.domains
            engine.set_session_state(
                domains[3].router("AS3-to-AS0"),
                domains[0].router("AS0-to-AS3"),
                up,
            )

        self._step(
            engines,
            lambda engine, _domains: self._originate(engine, 3, self.FIRST),
        )
        self._step(
            engines, lambda engine, domains: engine.fail_router(
                domains[3].router()
            )
        )
        _sync, event = engines
        # Nobody routes to the crashed origin any more.
        assert all(
            event.group_next_hop(router, self.FIRST.network) is None
            for router in event.topology.routers()
        )
        self._step(
            engines,
            lambda engine, _domains: self._originate(engine, 5, self.SECOND),
        )
        # The crashed router ran no decision process while down.
        crashed = event.topology.domains[3].router()
        assert len(event.speaker(crashed).loc_rib) == 0
        self._step(
            engines, lambda engine, domains: engine.restore_router(
                domains[3].router()
            )
        )
        assert event.group_next_hop(
            event.topology.domains[9].router(), self.FIRST.network
        ) is not None
        self._step(engines, lambda engine, _domains: session(engine, False))
        self._step(engines, lambda engine, _domains: session(engine, True))

    @pytest.mark.parametrize(
        "crash_at, withdrawn",
        [(0.01, None), (0.05, FIRST)],
        ids=["pending", "in-flight"],
    )
    def test_crash_with_an_update_pending_or_in_flight(
        self, crash_at, withdrawn
    ):
        """The origin's first UPDATE to AS0's router facing it waits
        for MRAI until 0.03 and is on the wire until 0.08; the router
        crashes at ``crash_at``, and whatever was pending or in flight
        to it must not survive into its restart."""
        sync, event = self._engines(mrai=0.03)
        for engine in (sync, event):
            self._originate(engine, 3, self.FIRST)
            self._originate(engine, 5, self.SECOND)
        sync.converge()
        event.sim.run(until=crash_at)
        for engine in (sync, event):
            crashed = engine.topology.domains[0].router("AS0-to-AS3")
            engine.fail_router(crashed)
            self._settle(engine)
            if withdrawn is not None:
                origin = engine.topology.domains[3].router()
                if isinstance(engine, EventDrivenBgp):
                    engine.retract(origin, withdrawn)
                else:
                    engine.withdraw(origin, withdrawn)
                self._settle(engine)
            engine.restore_router(crashed)
            self._settle(engine)
        assert event.rib_digest() == sync.rib_digest()


class TestMrai:
    def test_batching_reduces_updates(self):
        def run(mrai):
            topology = transit_stub(random.Random(3), 4, 6)
            sim = Simulator()
            engine = EventDrivenBgp(topology, sim, mrai=mrai)
            for index, domain in enumerate(topology.domains[:5]):
                engine.inject(
                    domain.router(),
                    Prefix.parse(f"226.{index}.0.0/16"),
                )
            engine.run_to_quiescence()
            return engine.updates_sent

        assert run(mrai=5.0) <= run(mrai=0.0)
