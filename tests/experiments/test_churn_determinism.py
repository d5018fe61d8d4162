"""Determinism of the membership-churn workload.

Everything except the wall clock must be bit-stable: the seeded
schedule, the per-run fingerprint, and the full labelled metrics
snapshot must be identical across repeated runs (dirty-set repairs
and the walk-everything oracle alike) and across serial vs
multiprocess execution through ``runner.parallel_map``.
"""

import json

from repro.experiments.churn import (
    ChurnConfig,
    build_churn_schedule,
    run_churn_seeds,
    run_churn_workload,
    schedule_digest,
)
from tests.conftest import recompute_everything

SEEDS = (0, 1, 2, 3)

#: Deliberately tiny: determinism does not need the default 100-domain
#: scale, and this keeps 4 seeds x 2 process counts inside tier-1.
TINY = ChurnConfig(
    domains=12,
    group_domains=4,
    groups_per_domain=3,
    initial_members=2,
    churn_per_flap=10,
    flaps=1,
    maintain_every=3,
)


class TestScheduleDeterminism:
    def test_same_seed_same_schedule(self):
        for seed in SEEDS:
            first = build_churn_schedule(TINY, seed)
            second = build_churn_schedule(TINY, seed)
            assert first == second
            assert schedule_digest(first) == schedule_digest(second)

    def test_different_seeds_differ(self):
        digests = {
            schedule_digest(build_churn_schedule(TINY, seed))
            for seed in SEEDS
        }
        assert len(digests) == len(SEEDS)

    def test_schedule_is_json_canonical(self):
        # The digest hashes a JSON serialization; every event must
        # round-trip so the digest cannot depend on repr() quirks.
        schedule = build_churn_schedule(TINY, 0)
        payload = json.dumps(schedule, separators=(",", ":"))
        assert json.loads(payload) == [
            list(event) for event in schedule
        ]


class TestWorkloadDeterminism:
    def test_repeated_runs_are_identical(self):
        for walk_everything in (True, False):
            with recompute_everything(bgp=False, bgmp=walk_everything):
                first = run_churn_workload(TINY, 0)
                second = run_churn_workload(TINY, 0)
            assert first.fingerprint() == second.fingerprint()
            assert first.metrics_json == second.metrics_json

    def test_serial_and_parallel_runs_match(self):
        serial = run_churn_seeds(SEEDS, config=TINY, processes=1)
        parallel = run_churn_seeds(SEEDS, config=TINY, processes=4)
        assert [r.seed for r in serial] == list(SEEDS)
        assert [r.seed for r in parallel] == list(SEEDS)
        for one, four in zip(serial, parallel):
            assert one.fingerprint() == four.fingerprint()
            # The full metrics snapshot (dirty-set counters included)
            # must survive pickling through worker processes.
            assert one.metrics_json == four.metrics_json

    def test_parallel_runs_preserve_seed_order(self):
        shuffled = (2, 0, 3, 1)
        results = run_churn_seeds(shuffled, config=TINY, processes=4)
        assert [r.seed for r in results] == list(shuffled)
