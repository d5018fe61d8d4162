"""Unit tests for the scenario engine and shared fixtures."""

from pathlib import Path

from repro.scenarios.fixtures import (
    FIGURE3_GROUP,
    figure3_bgmp_network,
    small_masc_tree,
)
from repro.scenarios.engine import (
    ScenarioRunner,
    fingerprint,
    normalize_target,
    render_target,
    run_scenario,
)
from repro.scenarios.loader import load_scenario, parse_scenario
from repro.sanitizer.core import check_no_overlapping_claims
from repro.serve.snapshots import ServeSources
from repro.sim.engine import Simulator
from repro.trace.tracer import NULL_TRACER

SCENARIO_DIR = Path(__file__).resolve().parents[2] / "scenarios"


def run_text(text, path="inline.toml"):
    return run_scenario(parse_scenario(text, path))


BGMP_PREAMBLE = """\
[scenario]
name = "inline"

[topology]
builder = "figure3"

[[group]]
address = "224.0.128.1"
range = "224.0.0.0/16"
root = "A"

"""


class TestTargets:
    def test_normalize_bare_router_name(self):
        assert normalize_target("B2") == "peer:B2"

    def test_normalize_keeps_qualified_forms(self):
        assert normalize_target("peer:B2") == "peer:B2"
        assert normalize_target("migp:F") == "migp:F"
        assert normalize_target("none") == "none"

    def test_render_none(self):
        assert render_target(None) == "none"


class TestFailureRecording:
    def test_assertion_failure_is_recorded_not_raised(self):
        outcome = run_text(
            BGMP_PREAMBLE
            + '[[step]]\nat = 1.0\nassert = "root-domain"\n'
            'group = "224.0.128.1"\ndomain = "B"\n'
        )
        assert not outcome.ok
        assert len(outcome.failures) == 1
        # Anchored at the scenario file line of the failing step, and
        # tagged with the step description.
        assert outcome.failures[0].startswith("inline.toml:12: ")
        assert "assert root-domain @1" in outcome.failures[0]
        assert "root domain is A, expected B" in outcome.failures[0]

    def test_one_run_reports_every_broken_expectation(self):
        outcome = run_text(
            BGMP_PREAMBLE
            + '[[step]]\nat = 1.0\nassert = "root-domain"\n'
            'group = "224.0.128.1"\ndomain = "B"\n\n'
            '[[step]]\nat = 2.0\nassert = "root-domain"\n'
            'group = "224.0.128.1"\ndomain = "C"\n'
        )
        assert len(outcome.failures) == 2

    def test_send_expectation_mismatch_fails(self):
        outcome = run_text(
            BGMP_PREAMBLE
            + '[[step]]\nat = 1.0\ndo = "join"\nhost = "F:m"\n'
            'group = "224.0.128.1"\n\n'
            '[[step]]\nat = 2.0\ndo = "send"\nfrom = "E:s"\n'
            'group = "224.0.128.1"\nexpect_reach = ["F", "H"]\n'
        )
        assert len(outcome.failures) == 1
        assert "H" in outcome.failures[0]


class TestSnapshots:
    def test_snapshot_records_sends_and_members(self):
        outcome = run_text(
            BGMP_PREAMBLE
            + '[[step]]\nat = 1.0\ndo = "join"\nhost = "F:m"\n'
            'group = "224.0.128.1"\n\n'
            '[[step]]\nat = 2.0\ndo = "send"\nfrom = "E:s"\n'
            'group = "224.0.128.1"\nexpect_reach = ["F"]\n'
        )
        assert outcome.ok
        snapshot = outcome.snapshot
        assert snapshot["groups"]["224.0.128.1"]["members"] == ["F"]
        assert snapshot["groups"]["224.0.128.1"]["root"] == "A"
        [send] = snapshot["sends"]
        assert send["reached"] == ["F"]
        assert send["duplicates"] == 0

    def test_fingerprint_ignores_key_order(self):
        assert fingerprint({"a": 1, "b": 2}) == fingerprint(
            {"b": 2, "a": 1}
        )

    def test_identical_runs_identical_fingerprints(self):
        text = (
            BGMP_PREAMBLE
            + '[[step]]\nat = 1.0\ndo = "join"\nhost = "F:m"\n'
            'group = "224.0.128.1"\n'
        )
        assert run_text(text).fingerprint == run_text(text).fingerprint

    def test_digest_assertion_detects_tree_change(self):
        # Record the converged digest, crash an on-tree exit router,
        # and require the forwarding digest to have moved.
        outcome = run_text(
            BGMP_PREAMBLE
            + '[[step]]\nat = 1.0\ndo = "join"\nhost = "F:m"\n'
            'group = "224.0.128.1"\n\n'
            '[[step]]\nat = 2.0\ndo = "record-digest"\n'
            'label = "before"\n\n'
            '[[step]]\nat = 3.0\ndo = "link-down"\na = "F2"\n'
            'b = "A4"\n\n'
            '[[step]]\nat = 8.0\nassert = "digest"\n'
            'same_as = "before"\nequal = false\n'
        )
        assert outcome.ok, outcome.failures


class TestFixtures:
    def test_figure3_network_roots_at_a(self):
        network = figure3_bgmp_network(members=("F", "H"))
        assert network.root_domain_of(FIGURE3_GROUP).name == "A"

    def test_figure3_member_joins_are_preconditions(self):
        network = figure3_bgmp_network(members=("F",))
        host = network.topology.domain("E").host("s")
        report = network.send(host, FIGURE3_GROUP)
        assert report.reached(network.topology.domain("F"))

    def test_small_masc_tree_claims_are_disjoint(self):
        sim = Simulator()
        overlay, parent, siblings = small_masc_tree(sim)
        sim.run(until=30.0)
        assert parent.claimed.prefixes()
        for node in siblings:
            assert node.claimed.prefixes(), f"{node.name} never claimed"
        assert check_no_overlapping_claims([siblings]) == []

    def test_small_masc_tree_is_deterministic(self):
        def build():
            sim = Simulator()
            _, parent, siblings = small_masc_tree(sim)
            sim.run(until=30.0)
            return [
                sorted(str(p) for p in node.claimed.prefixes())
                for node in (parent, *siblings)
            ]

        assert build() == build()


class TestTracedWorld:
    def test_tracing_leaves_the_outcome_unchanged(self):
        spec = load_scenario(SCENARIO_DIR / "uplink_f_shut_noshut.toml")
        traced = ScenarioRunner(spec)
        tracer = traced.world.trace()
        traced_outcome = traced.run()
        plain = ScenarioRunner(spec)
        plain_outcome = plain.run()
        assert traced_outcome.ok and plain_outcome.ok
        assert traced_outcome.fingerprint == plain_outcome.fingerprint
        assert traced_outcome.snapshot == plain_outcome.snapshot
        # The traced world recorded the run; the plain one has no
        # tracer in any layer.
        assert len(tracer) > 0
        assert traced.world.bgmp.bgp.tracer is tracer
        world = plain.world
        assert world.bgmp.tracer is NULL_TRACER
        assert world.bgmp.bgp.tracer is NULL_TRACER
        assert world.injector.tracer is NULL_TRACER
        assert world.sanitizer.tracer is None

    def test_a_masc_only_world_traces_and_serves(self):
        spec = load_scenario(SCENARIO_DIR / "masc_basic_tree.toml")
        traced = ScenarioRunner(spec)
        tracer = traced.world.trace()
        sources = ServeSources.from_world(
            traced.world, "scenario", spec.seed, tracer=tracer
        )
        assert traced.run().fingerprint == run_scenario(spec).fingerprint
        assert traced.world.bgmp is None and sources.bgp is None
        assert all(
            node.tracer is tracer for node in traced.world.masc_nodes
        )
        assert sources.registry_snapshot().counters
