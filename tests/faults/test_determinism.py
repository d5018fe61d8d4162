"""Determinism contract, end to end: the same seeded chaos scenario,
run twice under the invariant sanitizer, must agree on every
observable — event counts, the fault log, final MASC claim tables,
and a stable hash of the full BGMP forwarding state."""

from repro.experiments.runner import parallel_map
from repro.faults.chaos import ChaosHarness
from repro.faults.scenarios import figure3_chaos_scenario as build_scenario


class TestSanitizedDoubleRun:
    def test_same_seed_twice_is_bit_identical(self):
        harness = ChaosHarness(build_scenario, n_faults=2, sanitize=True)
        first, second = harness.run(3), harness.run(3)
        assert first.ok and second.ok, (
            first.violations, second.violations
        )
        assert first.schedule == second.schedule
        assert first.log == second.log
        assert first.events == second.events
        assert first.events > 0
        assert first.claim_tables == second.claim_tables
        assert first.claim_tables  # MASC nodes actually claimed
        assert first.forwarding_digest == second.forwarding_digest
        assert len(first.forwarding_digest) == 64

    def test_sanitized_runs_pass_invariants_across_seeds(self):
        harness = ChaosHarness(build_scenario, n_faults=1, sanitize=True)
        for result in parallel_map(harness.run, range(5)):
            assert result.ok, (result.schedule, result.violations)

    def test_sanitize_off_leaves_fingerprints_populated(self):
        # The fingerprints come from the run, not the sanitizer: the
        # unsanitized harness fills them too, so older callers can
        # compare runs without opting into per-event checks.
        result = ChaosHarness(build_scenario, n_faults=1).run(0)
        assert result.events > 0
        assert result.forwarding_digest

    def test_check_every_does_not_change_the_outcome(self):
        dense = ChaosHarness(
            build_scenario, n_faults=2, sanitize=True, check_every=1
        ).run(4)
        sparse = ChaosHarness(
            build_scenario, n_faults=2, sanitize=True, check_every=5
        ).run(4)
        assert dense.ok and sparse.ok
        assert dense.forwarding_digest == sparse.forwarding_digest
        assert dense.events == sparse.events
