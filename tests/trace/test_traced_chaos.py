"""Tracing must not perturb the determinism contract: a sanitized
chaos run with telemetry enabled still fingerprints identically across
same-seed runs, and the telemetry artifacts themselves are
byte-identical."""

from repro.faults.chaos import ChaosHarness
from repro.faults.scenarios import figure3_chaos_scenario
from repro.trace.export import trace_to_chrome, trace_to_jsonl


def _run(seed):
    harness = ChaosHarness(
        figure3_chaos_scenario, n_faults=2, sanitize=True, trace=True
    )
    return harness.run(seed=seed)


def _fingerprint(result):
    return (result.events, result.claim_tables, result.forwarding_digest)


class TestTracedChaosDeterminism:
    def test_fingerprints_match_untraced_run(self):
        traced = _run(seed=7)
        untraced = ChaosHarness(
            figure3_chaos_scenario, n_faults=2, sanitize=True, trace=False
        ).run(seed=7)
        assert _fingerprint(traced) == _fingerprint(untraced)

    def test_same_seed_telemetry_is_byte_identical(self):
        first = _run(seed=7)
        second = _run(seed=7)
        assert _fingerprint(first) == _fingerprint(second)
        assert trace_to_jsonl(first.tracer) == trace_to_jsonl(second.tracer)
        assert trace_to_chrome(first.tracer) == trace_to_chrome(
            second.tracer
        )
        assert first.metrics.to_json() == second.metrics.to_json()

    def test_traced_run_passes_invariants(self):
        result = _run(seed=3)
        assert not result.violations
        assert result.tracer is not None
        assert len(result.tracer) > 0
        assert result.metrics is not None
        counters = result.metrics.counters
        # Each scheduled fault is applied and later repaired; both go
        # through the injector, so applications >= scheduled faults.
        assert counters["faults.applied"] >= 2

    def test_untraced_run_has_no_telemetry(self):
        result = ChaosHarness(
            figure3_chaos_scenario, n_faults=1, sanitize=False
        ).run(seed=1)
        assert result.tracer is None
        assert result.metrics is None
