"""Fingerprint neutrality: served runs == unserved runs, byte for byte.

The acceptance contract for serve mode (docs §13): attaching the
telemetry sink and hub to a workload must not change a single byte of
its determinism fingerprint. These tests run each workload twice —
hub attached vs. a control with no ``on_sources`` hook — and compare
the canonical-JSON fingerprints exactly.
"""

import json

from repro.serve.runner import ServeHook, run_target


def canonical(fingerprint):
    return json.dumps(fingerprint, sort_keys=True)


def served(target, seed, sample_every, **sizes):
    hook = ServeHook(sample_every=sample_every)
    outcome = run_target(target, seed, on_sources=hook, **sizes)
    hook.finish()
    hook.hub.stop()
    return outcome, hook.sink


def run_pair(target, seed, sample_every, **sizes):
    outcome, sink = served(target, seed, sample_every, **sizes)
    control = run_target(target, seed, **sizes)
    return outcome, sink, control


class TestServeNeutrality:
    def test_chaos_fingerprint_byte_identical(self):
        outcome, sink, control = run_pair("chaos", 7, 5)
        assert canonical(outcome.fingerprint) == canonical(
            control.fingerprint
        )
        # The comparison is meaningful: real state was fingerprinted
        # and real telemetry was produced.
        assert outcome.fingerprint["events"] > 0
        assert outcome.fingerprint["forwarding_digest"]
        assert sink.frames_published > 0

    def test_fig2_fingerprint_byte_identical(self):
        outcome, sink, control = run_pair(
            "fig2", 3, 10, tops=3, children=3, days=5.0
        )
        assert canonical(outcome.fingerprint) == canonical(
            control.fingerprint
        )
        assert outcome.fingerprint["claim_tables"]
        assert sink.frames_published > 0

    def test_sampling_rate_does_not_matter(self):
        # Frame cadence is pure observation: wildly different
        # sample_every values must agree too.
        fast, fast_sink = served("chaos", 11, 1)
        slow, slow_sink = served("chaos", 11, 500)
        assert canonical(fast.fingerprint) == canonical(
            slow.fingerprint
        )
        assert fast_sink.frames_published > slow_sink.frames_published
