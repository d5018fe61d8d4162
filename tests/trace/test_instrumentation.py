"""Tests for the protocol-layer instrumentation: MASC claim spans,
BGP convergence spans, BGMP join walks, and unified metrics."""

import random

from repro.addressing.prefix import Prefix
from repro.bgmp.network import BgmpNetwork
from repro.bgp.routes import RouteType
from repro.masc.config import MascConfig
from repro.masc.node import MascNode, MascOverlay
from repro.sim.engine import Simulator
from repro.topology.generators import paper_figure3_topology
from repro.trace.tracer import Tracer
from repro.trace.metrics import collect_metrics

GROUP = 0xE0008001


def _masc_pair():
    sim = Simulator()
    tracer = Tracer().bind_clock(sim)
    overlay = MascOverlay(sim, delay=0.1)
    config = MascConfig(
        claim_policy="first", waiting_period=2.0,
        reannounce_interval=None,
    )
    parent = MascNode(0, "MP", overlay, config=config,
                      rng=random.Random(0), tracer=tracer)
    siblings = [
        MascNode(i, f"M{i}", overlay, config=config,
                 rng=random.Random(i), tracer=tracer)
        for i in (1, 2)
    ]
    return sim, tracer, parent, siblings


class TestMascClaimSpans:
    def test_confirmed_claim_has_announce_event(self):
        sim, tracer, parent, _ = _masc_pair()
        parent.start_claim(8)
        sim.run(until=5.0)
        spans = tracer.spans_named("masc.claim")
        assert len(spans) == 1
        span = spans[0]
        assert span.status == "confirmed"
        assert span.layer == "masc"
        assert span.attrs["node"] == "MP"
        assert [e.name for e in span.events][0] == "announce"

    def test_collision_produces_one_span_across_retries(self):
        sim, tracer, parent, siblings = _masc_pair()
        parent.start_claim(8)
        sim.run(until=5.0)
        for node in siblings:
            node.set_parent(parent)
        # Same-length claims from both siblings: the loser backs off
        # and retries inside its original span.
        for node in siblings:
            node.start_claim(16)
        sim.run(until=30.0)
        claim_spans = [
            s for s in tracer.spans_named("masc.claim")
            if s.attrs.get("node") in ("M1", "M2")
        ]
        assert len(claim_spans) == 2
        assert all(s.status == "confirmed" for s in claim_spans)
        event_names = {
            e.name for s in claim_spans for e in s.events
        }
        assert "announce" in event_names

    def test_crash_finishes_open_spans(self):
        sim, tracer, parent, _ = _masc_pair()
        parent.start_claim(8)
        sim.run(until=0.05)  # claim still waiting
        parent.crash()
        spans = tracer.spans_named("masc.claim")
        assert spans[0].status == "crashed"


class TestBgpConvergeSpan:
    def test_converge_span_and_rounds(self):
        from repro.bgp.network import BgpNetwork

        topology = paper_figure3_topology()
        bgp = BgpNetwork(topology)
        tracer = Tracer()
        bgp.tracer = tracer
        bgp.originate_from_domain(
            topology.domain("A"),
            Prefix.parse("224.0.0.0/16"),
            RouteType.GROUP,
        )
        rounds = bgp.converge()
        spans = tracer.spans_named("bgp.converge")
        assert len(spans) == 1
        span = spans[0]
        assert span.status == "converged"
        assert span.attrs["rounds"] == rounds
        round_events = [e for e in span.events if e.name == "round"]
        assert len(round_events) == rounds
        assert round_events[-1].attrs["changed"] is False

    def test_updates_sent_counts_messages(self):
        from repro.bgp.network import BgpNetwork

        topology = paper_figure3_topology()
        bgp = BgpNetwork(topology)
        assert bgp.updates_sent == 0
        # Nothing originated: every advertisement set is empty, and
        # empty/unchanged sets are suppressed, so no UPDATEs flow.
        bgp.converge()
        assert bgp.updates_sent == 0
        bgp.originate_from_domain(
            topology.domain("A"),
            Prefix.parse("224.0.0.0/16"),
            RouteType.GROUP,
        )
        bgp.converge()
        assert bgp.updates_sent > 0
        # A converge over an already-stable network sends nothing.
        stable = bgp.updates_sent
        bgp.converge()
        assert bgp.updates_sent == stable


class TestBgmpJoinSpans:
    def _network(self):
        topology = paper_figure3_topology()
        network = BgmpNetwork(topology)
        network.originate_group_range(
            topology.domain("A"), Prefix.parse("224.0.0.0/16")
        )
        network.converge()
        tracer = Tracer()
        network.tracer = tracer
        network.bgp.tracer = tracer
        return topology, network, tracer

    def test_join_span_records_graft_walk(self):
        topology, network, tracer = self._network()
        host = topology.domain("F").host("m")
        assert network.join(host, GROUP)
        spans = tracer.spans_named("bgmp.join")
        assert len(spans) == 1
        span = spans[0]
        assert span.status == "grafted"
        assert span.attrs["domain"] == "F"
        names = [e.name for e in span.events]
        assert "bgmp.graft" in names
        assert "bgmp.join_sent" in names

    def test_second_member_domain_walks_fewer_hops(self):
        topology, network, tracer = self._network()
        network.join(topology.domain("F").host("m"), GROUP)
        first = tracer.spans_named("bgmp.join")[0]
        network.join(topology.domain("F").host("m2"), GROUP)
        second = tracer.spans_named("bgmp.join")[1]
        assert len(second.events) < len(first.events)

    def test_leave_produces_prune_span(self):
        topology, network, tracer = self._network()
        host = topology.domain("F").host("m")
        network.join(host, GROUP)
        network.leave(host, GROUP)
        spans = tracer.spans_named("bgmp.prune")
        assert len(spans) == 1
        assert "bgmp.prune_sent" in [e.name for e in spans[0].events]

    def test_send_span_reports_deliveries(self):
        topology, network, tracer = self._network()
        network.join(topology.domain("F").host("m"), GROUP)
        network.send(topology.domain("E").host("s"), GROUP)
        span = tracer.spans_named("bgmp.send")[0]
        assert span.status == "delivered"
        assert span.attrs["deliveries"] == 1
        assert span.attrs["dropped"] == 0


class TestCollectMetrics:
    def test_masc_and_bgmp_layers(self):
        sim, tracer, parent, siblings = _masc_pair()
        parent.start_claim(8)
        sim.run(until=5.0)
        topology = paper_figure3_topology()
        network = BgmpNetwork(topology)
        network.originate_group_range(
            topology.domain("A"), Prefix.parse("224.0.0.0/16")
        )
        network.converge()
        network.join(topology.domain("F").host("m"), GROUP)
        registry = collect_metrics(
            masc_nodes=[parent] + siblings,
            bgp=network.bgp,
            bgmp=network,
        )
        counters = registry.counters
        assert counters["masc.claims_confirmed"] == 1
        assert counters["masc.claims_confirmed{node=MP}"] == 1
        assert counters["bgp.updates_sent"] > 0
        assert counters["bgmp.joins_sent"] > 0
        gauges = registry.gauges
        assert gauges["bgmp.forwarding_entries"] == (
            network.forwarding_state_size()
        )
        assert gauges["masc.claimed_prefixes{node=MP}"] == 1

    def test_snapshot_independent_of_input_order(self):
        sim, tracer, parent, siblings = _masc_pair()
        parent.start_claim(8)
        sim.run(until=5.0)
        nodes = [parent] + siblings
        forward = collect_metrics(masc_nodes=nodes).to_json()
        backward = collect_metrics(masc_nodes=nodes[::-1]).to_json()
        assert forward == backward


class TestSanitizerSpanContext:
    def test_violation_carries_open_spans(self):
        from repro.sanitizer.core import InvariantSanitizer

        tracer = Tracer()
        open_span = tracer.start_span("masc.claim", layer="masc")
        sim = Simulator()

        class Claimed:
            def prefixes(self):
                return [Prefix.parse("224.0.0.0/24")]

        class FakeNode:
            name = "X"
            claimed = Claimed()

        sanitizer = InvariantSanitizer(
            masc_siblings=[[FakeNode(), FakeNode()]],
            raise_on_violation=False,
            tracer=tracer,
        ).attach(sim)
        sim.schedule(1.0, lambda: None)
        sim.run()
        sanitizer.detach()
        assert sanitizer.violations
        assert open_span.render() in sanitizer.violations[0]
        assert "open spans" in sanitizer.violations[0]
