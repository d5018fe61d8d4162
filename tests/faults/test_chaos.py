"""Chaos runs: seeded schedules, invariants, determinism."""

import random
from functools import partial

from repro.addressing.prefix import Prefix
from repro.experiments.runner import parallel_map
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.masc.config import MascConfig
from repro.masc.node import MascNode, MascOverlay
from repro.sanitizer.core import (
    check_loop_free_trees,
    check_no_overlapping_claims,
)
from repro.scenarios.fixtures import FIGURE3_GROUP as GROUP
from repro.sim.engine import Simulator
from tests.faults._chaos import chaos_summary


class TestChaosRuns:
    def test_single_fault_seeds_pass_invariants(self):
        for run in parallel_map(partial(chaos_summary, faults=1), range(5)):
            assert not run["violations"], run

    def test_double_fault_seeds_pass_invariants(self):
        for run in parallel_map(partial(chaos_summary, faults=2), range(5)):
            assert not run["violations"], run

    def test_same_seed_is_deterministic(self):
        assert chaos_summary(3) == chaos_summary(3)

    def test_reconvergence_is_bounded(self):
        for run in parallel_map(partial(chaos_summary, faults=1), range(5)):
            assert run["recoveries"], run["schedule"]
            for record in run["recoveries"]:
                assert record.converged
                assert record.rounds <= 50

    def test_schedules_vary_across_seeds(self):
        schedules = {
            tuple(chaos_summary(seed, faults=1)["schedule"])
            for seed in range(6)
        }
        assert len(schedules) > 1


class TestMascScheduledScenarios:
    """Plan-driven MASC failure scenarios with invariant checks."""

    def build_overlay(self):
        sim = Simulator()
        overlay = MascOverlay(sim, delay=0.1)
        config = MascConfig(
            claim_policy="first", waiting_period=2.0,
            reannounce_interval=None, auto_renew=True,
            hello_interval=1.0, liveness_timeout=3.0,
        )
        primary = MascNode(0, "P0", overlay, config=config,
                           rng=random.Random(0))
        backup = MascNode(1, "P1", overlay, config=config,
                          rng=random.Random(1))
        child = MascNode(2, "C", overlay, config=config,
                         rng=random.Random(2))
        primary.add_top_level_peer(backup)
        backup.add_top_level_peer(primary)
        primary.start_claim(8)
        backup.start_claim(8)
        sim.run(until=8.0)
        child.set_parent(primary)
        child.add_parent(backup)
        for node in (primary, backup, child):
            node.start_liveness()
        sim.run(until=10.0)
        return sim, overlay, primary, backup, child

    def test_parent_failure_schedule_fails_over(self):
        sim, overlay, primary, backup, child = self.build_overlay()
        injector = FaultInjector(
            sim, masc_overlay=overlay,
            masc_nodes=(primary, backup, child),
        )
        injector.schedule(
            FaultPlan().crash_masc_node("P0", at=12.0, restart_after=10.0)
        )
        sim.run(until=20.0)
        assert child.parent is backup
        assert child.failovers == 1
        prefix = child.start_claim(16)
        sim.run(until=30.0)
        assert prefix is not None
        assert prefix in child.claimed.prefixes()
        assert check_no_overlapping_claims(
            [[primary, backup], [child]]
        ) == []

    def test_partition_and_heal_schedule(self):
        sim, overlay, primary, backup, child = self.build_overlay()
        injector = FaultInjector(
            sim, masc_overlay=overlay,
            masc_nodes=(primary, backup, child),
        )
        injector.schedule(
            FaultPlan().partition(
                ("C",), ("P0", "P1"), at=11.0, heal_after=6.0
            )
        )
        sim.run(until=12.0)
        prefix = child.start_claim(16)
        sim.run(until=16.0)
        # Claim messages vanished into the partition: nothing heard.
        assert prefix not in primary.heard_claims
        sim.run(until=40.0)
        # After the heal the child (re-announcing via retry or a fresh
        # claim) can allocate again and nothing overlaps.
        if prefix not in child.claimed.prefixes():
            prefix = child.start_claim(16)
            sim.run(until=50.0)
        assert prefix is not None
        assert prefix in child.claimed.prefixes()
        assert check_no_overlapping_claims(
            [[primary, backup], [child]]
        ) == []


class _FakeEntry:
    def __init__(self, upstream):
        self.upstream = upstream


class _FakeTable:
    def __init__(self, entry):
        self._entry = entry

    def get(self, group):
        return self._entry


class _FakeBgmpRouter:
    def __init__(self, entry):
        self.table = _FakeTable(entry)


class _FakeBgmp:
    """Just enough surface for the loop check."""

    def __init__(self, upstream_of):
        self._routers = {
            router: _FakeBgmpRouter(_FakeEntry(up))
            for router, up in upstream_of.items()
        }

    def tree_routers(self, group):
        return sorted(self._routers, key=lambda r: r.name)

    def router_of(self, router):
        return self._routers[router]


class _NamedRouter:
    def __init__(self, name):
        self.name = name

    def __repr__(self):
        return self.name


class TestInvariantChecks:
    def test_loop_free_walk_accepts_chain(self):
        a, b, c = (_NamedRouter(n) for n in "abc")
        bgmp = _FakeBgmp({a: b, b: c, c: None})
        assert check_loop_free_trees(bgmp, GROUP) == []

    def test_loop_free_walk_detects_cycle(self):
        a, b, c = (_NamedRouter(n) for n in "abc")
        bgmp = _FakeBgmp({a: b, b: c, c: a})
        violations = check_loop_free_trees(bgmp, GROUP)
        assert violations
        assert "loop" in violations[0]

    def test_overlap_check_flags_intersecting_claims(self):
        class Node:
            def __init__(self, name, prefixes):
                self.name = name
                self.claimed = type(
                    "T", (), {"prefixes": lambda _self: prefixes}
                )()

        left = Node("L", [Prefix.parse("224.1.0.0/16")])
        right = Node("R", [Prefix.parse("224.1.128.0/17")])
        violations = check_no_overlapping_claims([[left, right]])
        assert violations and "overlap" in violations[0]

    def test_overlap_check_passes_disjoint_claims(self):
        class Node:
            def __init__(self, name, prefixes):
                self.name = name
                self.claimed = type(
                    "T", (), {"prefixes": lambda _self: prefixes}
                )()

        left = Node("L", [Prefix.parse("224.1.0.0/16")])
        right = Node("R", [Prefix.parse("224.2.0.0/16")])
        assert check_no_overlapping_claims([[left, right]]) == []
