"""Dirty-set convergence engine vs the recompute-everything oracle.

Dirty tracking is an optimization, not a semantic change: on identical
inputs the engine must walk the same rounds, deliver the same UPDATEs,
and land every Loc-RIB on identical contents as a run in which every
speaker is treated as dirty before every converge (the oracle in
``tests/conftest.py``). These tests drive both through churn
workloads, fault sequences, and every chaos scenario schedule, and
compare fingerprints byte for byte.
"""

import random

from repro.addressing.prefix import Prefix
from repro.bgp.network import BgpNetwork
from repro.bgp.routes import RouteType
from repro.bgmp.network import BgmpNetwork
from repro.experiments.churn import group_prefix
from repro.topology.generators import (
    as_graph,
    paper_figure3_topology,
)
from repro.trace.tracer import Tracer
from tests.conftest import recompute_everything
from tests.faults._chaos import chaos_summary

SEEDS = (0, 1, 2, 3, 4)


def _against_oracle(run):
    """``run()``'s outcome under the oracle and on the engine."""
    with recompute_everything():
        expected = run()
    return expected, run()


def _flap_trail(topology_seed, domains, flap_seed, flaps, idle_converges):
    """Originate a group /20 and a unicast /24 per domain, converge,
    then withdraw / re-originate randomly chosen group ranges with
    ``idle_converges`` no-change converges after each (the call
    pattern of the MASC layer). Returns every converge's outcome with
    the running UPDATE total, then the Loc-RIB digest."""
    topology = as_graph(random.Random(topology_seed), node_count=domains)
    engine = BgpNetwork(topology)
    for domain in topology.domains:
        engine.originate_from_domain(
            domain,
            BgmpNetwork.domain_unicast_prefix(domain),
            RouteType.UNICAST,
        )
        engine.originate_from_domain(
            domain, group_prefix(domain.domain_id), RouteType.GROUP
        )
    trail = []

    def converge():
        trail.append((engine.try_converge(500), engine.updates_sent))

    converge()
    rng = random.Random(flap_seed)
    for _ in range(flaps):
        domain = topology.domains[rng.randrange(len(topology.domains))]
        prefix = group_prefix(domain.domain_id)
        engine.withdraw(domain.router(), prefix, RouteType.GROUP)
        converge()
        engine.originate_from_domain(domain, prefix, RouteType.GROUP)
        for _ in range(1 + idle_converges):
            converge()
    trail.append(engine.rib_digest())
    return trail


def _figure3_engine(with_f=False):
    engine = BgpNetwork(paper_figure3_topology())
    engine.originate_from_domain(
        engine.topology.domain("A"),
        Prefix.parse("224.0.0.0/16"),
        RouteType.GROUP,
    )
    if with_f:
        engine.originate_from_domain(
            engine.topology.domain("F"),
            Prefix.parse("224.0.128.0/20"),
            RouteType.GROUP,
        )
    engine.converge()
    return engine


class TestChurnWorkloadEquivalence:
    def test_bench_workload_fingerprints_match_across_seeds(self):
        for seed in SEEDS:
            expected, actual = _against_oracle(
                lambda: _flap_trail(seed, 24, seed, 3, 1)
            )
            assert expected == actual, f"engine diverged on seed {seed}"
            assert all(result.converged for result, _sent in actual[:-1])

    def test_updates_and_rounds_match_per_converge(self):
        expected, actual = _against_oracle(
            lambda: _flap_trail(7, 25, 11, 6, 0)
        )
        for step, (want, got) in enumerate(zip(expected, actual)):
            assert want == got, f"diverged at converge {step}"
        # Not vacuous: every withdraw and re-originate sent UPDATEs.
        sent = [updates for _result, updates in actual[:-1]]
        assert len(sent) == 1 + 6 * 2
        assert all(before < after for before, after in zip(sent, sent[1:]))


class TestFaultSequenceEquivalence:
    def test_session_flap_router_crash_and_restore(self):
        def run():
            engine = _figure3_engine()
            topology = engine.topology
            f1 = topology.domain("F").routers["F1"]
            b2 = topology.domain("B").routers["B2"]
            h1 = topology.domain("H").routers["H1"]
            steps = []
            engine.set_session_state(f1, b2, up=False)
            steps.append((engine.try_converge(), engine.updates_sent))
            engine.set_session_state(f1, b2, up=True)
            steps.append((engine.try_converge(), engine.updates_sent))
            engine.fail_router(h1)
            steps.append((engine.try_converge(), engine.updates_sent))
            engine.restore_router(h1)
            steps.append((engine.try_converge(), engine.updates_sent))
            steps.append(engine.rib_digest())
            return steps

        expected, actual = _against_oracle(run)
        assert expected == actual

    def test_idempotent_fault_calls_do_not_diverge(self):
        def run():
            engine = _figure3_engine(with_f=True)
            topology = engine.topology
            h2 = topology.domain("H").routers["H2"]
            c2 = topology.domain("C").routers["C2"]
            # Redundant transitions must be no-ops.
            engine.set_session_state(h2, c2, up=True)
            engine.restore_router(h2)
            steps = [(engine.try_converge(), engine.updates_sent)]
            engine.set_session_state(h2, c2, up=False)
            engine.set_session_state(h2, c2, up=False)
            steps.append((engine.try_converge(), engine.updates_sent))
            engine.fail_router(h2)
            engine.fail_router(h2)
            steps.append((engine.try_converge(), engine.updates_sent))
            engine.restore_router(h2)
            engine.set_session_state(h2, c2, up=True)
            steps.append((engine.try_converge(), engine.updates_sent))
            steps.append(engine.rib_digest())
            return steps

        expected, actual = _against_oracle(run)
        assert expected == actual


class TestTraceEquivalence:
    def test_converge_spans_match_round_for_round(self):
        def run():
            engine = BgpNetwork(paper_figure3_topology())
            tracer = Tracer()
            engine.tracer = tracer
            engine.originate_from_domain(
                engine.topology.domain("A"),
                Prefix.parse("224.0.0.0/16"),
                RouteType.GROUP,
            )
            engine.converge()
            engine.converge()  # steady-state no-op converge
            return [
                (
                    span.status,
                    span.attrs.get("rounds"),
                    [(e.name, dict(e.attrs)) for e in span.events],
                )
                for span in tracer.spans_named("bgp.converge")
            ]

        expected, actual = _against_oracle(run)
        assert expected == actual
        assert len(actual) == 2


class TestChaosScenarioEquivalence:
    def test_chaos_schedules_byte_identical_across_engines(self):
        def run():
            return [chaos_summary(seed) for seed in range(3)]

        for first, second in zip(*_against_oracle(run)):
            assert not first["violations"], first["violations"]
            assert first["fingerprint"]["claim_tables"]
            assert first == second


class TestBgmpOverIncremental:
    def test_forwarding_digest_matches_after_joins(self):
        def run():
            topology = paper_figure3_topology()
            network = BgmpNetwork(topology)
            network.originate_group_range(
                topology.domain("A"), Prefix.parse("224.0.0.0/16")
            )
            network.converge()
            group = 0xE0000101
            for name in ("F", "H", "G"):
                assert network.join(
                    topology.domain(name).host("m"), group
                )
            return network.forwarding_digest(), network.bgp.rib_digest()

        expected, actual = _against_oracle(run)
        assert expected == actual
