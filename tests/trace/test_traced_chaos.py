"""Tracing must not perturb the determinism contract: a sanitized
chaos run with telemetry enabled still fingerprints identically across
same-seed runs, and the telemetry artifacts themselves are
byte-identical."""

from repro.serve.runner import run_target
from repro.trace.export import trace_to_chrome, trace_to_jsonl
from repro.trace.tracer import NULL_TRACER
from tests.faults._chaos import chaos_world


def _run(seed):
    return run_target("chaos", seed, faults=2)


class TestTracedChaosDeterminism:
    def test_fingerprints_match_untraced_run(self):
        traced = _run(seed=7).fingerprint
        plan, world = chaos_world(7, faults=2)
        assert (
            traced["schedule"], traced["events"], traced["claim_tables"],
            traced["forwarding_digest"],
        ) == (
            plan.describe(), world.sim.processed, world.claim_tables(),
            world.bgmp.forwarding_digest(),
        )

    def test_same_seed_telemetry_is_byte_identical(self):
        first = _run(seed=7)
        second = _run(seed=7)
        assert first.fingerprint == second.fingerprint
        assert trace_to_jsonl(first.tracer) == trace_to_jsonl(second.tracer)
        assert trace_to_chrome(first.tracer) == trace_to_chrome(
            second.tracer
        )
        assert first.registry.to_json() == second.registry.to_json()

    def test_traced_run_passes_invariants(self):
        result = _run(seed=3)
        assert not result.violations
        assert result.tracer is not None
        assert len(result.tracer) > 0
        counters = result.registry.counters
        # Each scheduled fault is applied and later repaired; both go
        # through the injector, so applications >= scheduled faults.
        assert counters["faults.applied"] >= 2

    def test_untraced_run_has_no_telemetry(self):
        _, world = chaos_world(1, faults=1)
        assert world.bgmp.tracer is NULL_TRACER
        assert world.injector.tracer is NULL_TRACER
        assert world.sanitizer.tracer is None
