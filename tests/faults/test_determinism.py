"""Determinism contract, end to end: the same seeded chaos scenario,
run twice under the invariant sanitizer, must agree on every
observable — event counts, the fault log, final MASC claim tables,
and a stable hash of the full BGMP forwarding state."""

import hashlib
import json
from functools import partial

import pytest

from repro.experiments.runner import parallel_map
from repro.serve.runner import run_target
from tests.faults._chaos import chaos_summary, chaos_world

#: sha256 (first 16 hex digits) of ``run_target("chaos", seed,
#: faults=2)``'s fingerprint as sorted-key JSON, by seed. The same
#: under every PYTHONHASHSEED.
CHAOS_PINS = {
    0: "8abae5c6db58428e",
    1: "98675b61f04ef00e",
    2: "78df7ac7d1138f63",
    3: "bdf7987ac73552f1",
    4: "f67674e4455533bc",
}


@pytest.mark.parametrize("seed", sorted(CHAOS_PINS))
def test_chaos_fingerprint_is_pinned(seed):
    outcome = run_target("chaos", seed, faults=2)
    assert not outcome.violations
    canonical = json.dumps(outcome.fingerprint, sort_keys=True)
    digest = hashlib.sha256(canonical.encode()).hexdigest()[:16]
    assert digest == CHAOS_PINS[seed]


class TestSanitizedDoubleRun:
    def test_same_seed_twice_is_bit_identical(self):
        first, second = chaos_summary(3), chaos_summary(3)
        assert not first["violations"], first["violations"]
        assert first == second
        fingerprint = first["fingerprint"]
        assert fingerprint["events"] > 0
        assert fingerprint["claim_tables"]  # MASC nodes actually claimed
        assert len(fingerprint["forwarding_digest"]) == 64

    def test_sanitized_runs_pass_invariants_across_seeds(self):
        for run in parallel_map(partial(chaos_summary, faults=1), range(5)):
            assert not run["violations"], (run["schedule"], run)

    def test_sanitize_off_leaves_fingerprints_populated(self):
        # The fingerprints come from the run, not the sanitizer: a
        # world whose sanitizer never runs its per-event checks fills
        # them, and fills them alike.
        _, checked = chaos_world(0, faults=1)
        _, unchecked = chaos_world(0, faults=1, check_every=10**9)
        assert unchecked.sanitizer.checks_run == 0
        assert unchecked.fingerprint()["forwarding_digest"]
        assert unchecked.fingerprint() == checked.fingerprint()

    def test_check_every_does_not_change_the_outcome(self):
        _, dense = chaos_world(4, faults=2, check_every=1)
        _, sparse = chaos_world(4, faults=2, check_every=5)
        assert not dense.sanitizer.violations
        assert not sparse.sanitizer.violations
        assert dense.fingerprint() == sparse.fingerprint()
