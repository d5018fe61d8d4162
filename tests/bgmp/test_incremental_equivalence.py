"""Candidate-driven BGMP tree maintenance vs the walk-everything oracle.

Restricting every repair phase to the (router, group) entries and
(domain, group) memberships that G-RIB deltas, entry churn and broken
joins raised is an optimization, not a semantic change: over an identical BGP substrate and identical inputs it must
produce byte-identical forwarding state, repair counters, join/prune
control traffic, trace events, and sanitizer verdicts as a run in
which every repair walks every tree (the oracle in
``tests/conftest.py``, applied to the BGMP layer only). These tests
drive both through churn workloads, fault sequences, and chaos
schedules, and compare fingerprints byte for byte — the BGMP-layer
mirror of ``tests/bgp/test_incremental_equivalence.py``.
"""

from repro.addressing.prefix import Prefix
from repro.bgmp.network import BgmpNetwork
from repro.experiments.churn import (
    ChurnConfig,
    build_schedule,
    run_churn_workload,
)
from repro.topology.generators import paper_figure3_topology
from repro.trace.tracer import Tracer
from tests.conftest import recompute_everything
from tests.faults._chaos import chaos_summary

SEEDS = (0, 1, 2, 3, 4)

#: Small enough to run 5 seeds x 2 arms inside the tier-1 budget,
#: big enough to exercise flaps, maintenance sweeps, and churn.
SMALL = ChurnConfig(
    domains=16,
    group_domains=5,
    groups_per_domain=4,
    churn_per_phase=12,
    phases=2,
    maintain_every=4,
)


def _against_oracle(run):
    """``run()``'s outcome under the walk-everything oracle and on the
    engine — over the same dirty-set BGP substrate, so only the
    tree-maintenance layer varies."""
    with recompute_everything(bgp=False):
        expected = run()
    return expected, run()


def _seed_figure3(tracer=None):
    topology = paper_figure3_topology()
    network = BgmpNetwork(topology)
    if tracer is not None:
        network.tracer = tracer
    network.originate_group_range(
        topology.domain("A"), Prefix.parse("224.0.0.0/16")
    )
    network.converge()
    group = 0xE0000101
    for name in ("F", "H", "G"):
        assert network.join(topology.domain(name).host("m"), group)
    return network, group


class TestChurnWorkloadEquivalence:
    def test_fingerprints_match_across_seeds(self):
        for seed in SEEDS:
            expected, actual = _against_oracle(
                lambda: run_churn_workload(SMALL, seed)
            )
            assert (
                expected.fingerprint() == actual.fingerprint()
            ), f"engine diverged on seed {seed}"
            assert actual.repairs, "workload ran no repairs"

    def test_schedules_are_engine_independent(self):
        # The schedule is built before the network runs; both arms of
        # every seed replayed the same event list.
        for seed in SEEDS:
            schedule = build_schedule(SMALL, seed)
            assert schedule == build_schedule(SMALL, seed)
            kinds = {event[0] for event in schedule}
            assert {"join", "flap", "repair"} <= kinds


class TestFaultSequenceEquivalence:
    def test_session_flap_and_router_crash(self):
        def run():
            network, group = _seed_figure3()
            topology = network.topology
            f1 = topology.domain("F").routers["F1"]
            b2 = topology.domain("B").routers["B2"]
            h1 = topology.domain("H").routers["H1"]
            steps = []
            network.bgp.set_session_state(f1, b2, up=False)
            network.converge()
            steps.append(tuple(sorted(network.repair_trees().items())))
            network.bgp.set_session_state(f1, b2, up=True)
            network.converge()
            steps.append(tuple(sorted(network.repair_trees().items())))
            network.handle_router_crash(h1)
            network.converge()
            steps.append(tuple(sorted(network.repair_trees().items())))
            network.handle_router_restart(h1)
            network.converge()
            steps.append(tuple(sorted(network.repair_trees().items())))
            steps.append(network.forwarding_digest())
            steps.append(network.bgp.rib_digest())
            steps.append(
                sorted(
                    (b.router.name, b.joins_sent, b.prunes_sent)
                    for b in network.bgmp_routers()
                )
            )
            report = network.send(
                topology.domain("E").host("s"), group
            )
            steps.append(
                (report.total_deliveries, report.external_hops)
            )
            return steps

        expected, actual = _against_oracle(run)
        assert expected == actual

    def test_root_flip_sequence(self):
        # Consecutive root-domain moves: the covering /16 stays up
        # while a more-specific /20 appears and disappears repeatedly.
        more_specific = Prefix.parse("224.0.0.0/20")

        def run():
            network, _group = _seed_figure3()
            f_domain = network.topology.domain("F")
            steps = []
            for _ in range(3):
                network.originate_group_range(f_domain, more_specific)
                network.converge()
                steps.append(
                    tuple(sorted(network.repair_trees().items()))
                )
                network.bgp.withdraw(f_domain.router(), more_specific)
                network.converge()
                steps.append(
                    tuple(sorted(network.repair_trees().items()))
                )
                steps.append(network.forwarding_digest())
            return steps

        expected, actual = _against_oracle(run)
        assert expected == actual


class TestTraceEquivalence:
    def _bgmp_events(self, tracer):
        """Every bgmp.* event across all spans plus orphans, in
        emission order — the control-traffic trace both arms must
        reproduce exactly. (Repair *span attrs* legitimately differ:
        ``refreshed`` / ``domains_checked`` report how much was looked
        at.)"""
        events = []
        for span in tracer.spans:
            for event in span.events:
                if event.name.startswith("bgmp."):
                    events.append((event.name, dict(event.attrs)))
        for event in tracer.orphan_events:
            if event.name.startswith("bgmp."):
                events.append((event.name, dict(event.attrs)))
        return events

    def test_join_and_prune_events_match(self):
        more_specific = Prefix.parse("224.0.0.0/20")

        def run():
            tracer = Tracer()
            network, _group = _seed_figure3(tracer)
            f_domain = network.topology.domain("F")
            network.originate_group_range(f_domain, more_specific)
            network.converge()
            network.repair_trees()
            network.bgp.withdraw(f_domain.router(), more_specific)
            network.converge()
            network.repair_trees()
            return self._bgmp_events(tracer)

        expected, actual = _against_oracle(run)
        assert expected == actual
        assert any(name == "bgmp.join_sent" for name, _attrs in actual)

    def test_repair_span_reports_its_scope(self):
        def run():
            tracer = Tracer()
            network, _group = _seed_figure3(tracer)
            network.repair_trees()
            return tracer.spans_named("bgmp.repair")[-1].attrs, (
                network.forwarding_state_size()
            )

        (full, entries), (product, _entries) = _against_oracle(run)
        # The oracle re-asks every entry; the joins moved no G-RIB key,
        # so the product re-asks none and checks only the domains whose
        # entries the joins created.
        assert full["refreshed"] == entries > 0
        assert product["refreshed"] == 0
        assert 3 <= product["domains_checked"] <= full["domains_checked"]


class TestChaosScenarioEquivalence:
    def test_chaos_schedules_byte_identical_across_engines(self):
        def run():
            return [chaos_summary(seed) for seed in range(3)]

        for first, second in zip(*_against_oracle(run)):
            # Identical sanitizer verdicts, schedules, fingerprints and
            # recovery records.
            assert not first["violations"], first["violations"]
            assert first == second


class TestContinuityLoss:
    def test_invalidate_falls_back_to_full_walk(self):
        network, _group = _seed_figure3()
        network.tracer = tracer = Tracer()
        network.repair_trees()  # drain what the joins raised
        # Wholesale substrate invalidation loses delta continuity; the
        # next repair must look at everything (and still be a no-op
        # here).
        network.bgp.invalidate()
        network.converge()
        counters = network.repair_trees()
        assert counters["migrations"] == 0
        span_free = network.forwarding_digest()
        # And the engine returns to delta-driven operation afterwards.
        assert network.dirty_group_count() == 0
        assert network.forwarding_digest() == span_free
        network.repair_trees()
        entries = network.forwarding_state_size()
        on_tree = {router.domain for router in network.tree_routers(_group)}
        # Domains the joins created entries in; every entry and the
        # three member domains; nothing.
        assert [
            (span.attrs["refreshed"], span.attrs["domains_checked"])
            for span in tracer.spans_named("bgmp.repair")
        ] == [(0, len(on_tree)), (entries, 3), (0, 0)]
