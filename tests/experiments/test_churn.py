"""Determinism of the churn workload, in both its shapes (at test scale).

The benchmark runs the route-views graph; these tests pin the
contracts at a size that runs in seconds. Seeded schedules are
reproducible and JSON-canonical. The workload fingerprint is pinned
per shape and seed, and identical across repeated runs (dirty-set
repairs and the walk-everything oracle alike) and across serial vs
pooled sweeps through ``runner.parallel_map`` — the full labelled
metrics snapshot included. The three wall-clock timings stay outside
it.
"""

import dataclasses
import functools
import hashlib
import json

import pytest

from repro.experiments.churn import (
    ChurnConfig,
    build_schedule,
    run_churn_workload,
    schedule_digest,
)
from repro.experiments.runner import parallel_map
from tests.conftest import recompute_everything

SEEDS = (0, 1, 2, 3)

#: Deliberately tiny: determinism does not need the default scale, and
#: this keeps 4 seeds x 2 process counts x 2 shapes inside tier-1.
SHAPES = {
    "churn": ChurnConfig(
        domains=12,
        group_domains=4,
        groups_per_domain=3,
        churn_per_phase=10,
        phases=1,
        maintain_every=3,
    ),
    "internet": ChurnConfig(
        domains=60,
        group_domains=6,
        groups_per_domain=4,
        churn_per_phase=30,
        phases=2,
        maintain_every=10,
        internet=True,
    ),
}

#: sha256(repr(fingerprint())) per (shape, seed), with (events, state
#: size, joins sent, prunes sent) beside it to localise a drift.
PINNED = {
    ("churn", 0): (
        "eaa173b93d79eb98b40e506f3e0b147c2720d40d711f4e6e132eb9ca3930f332",
        (14, 80, 98, 30),
    ),
    ("churn", 1): (
        "d2278549c25d5b538d88a44879464f99c34524ffe2abe5bd412b0a8cb6eed200",
        (14, 68, 115, 59),
    ),
    ("internet", 0): (
        "7c6f2a29352b2d2ae645780d66f0e3fa67c34fbc95626202e39174d404225fed",
        (70, 203, 374, 193),
    ),
    ("internet", 1): (
        "24698baebc9182bc3e84db2865ef574b7c606bdf372b7377140b900c18f99aac",
        (70, 233, 386, 173),
    ),
}


def _sha(result):
    return hashlib.sha256(repr(result.fingerprint()).encode()).hexdigest()


def _sweep(config, seeds, processes):
    return parallel_map(
        functools.partial(run_churn_workload, config),
        seeds,
        processes=processes,
    )


@pytest.fixture(params=sorted(SHAPES))
def shape(request):
    return request.param


class TestSchedule:
    def test_same_seed_same_schedule(self, shape):
        for seed in SEEDS:
            first = build_schedule(SHAPES[shape], seed)
            second = build_schedule(SHAPES[shape], seed)
            assert first == second
            assert schedule_digest(first) == schedule_digest(second)

    def test_different_seeds_differ(self, shape):
        digests = {
            schedule_digest(build_schedule(SHAPES[shape], seed))
            for seed in SEEDS
        }
        assert len(digests) == len(SEEDS)

    def test_schedule_is_json_canonical(self, shape):
        # The digest hashes a JSON serialization; every event must
        # round-trip so the digest cannot depend on repr() quirks.
        schedule = build_schedule(SHAPES[shape], 0)
        payload = json.dumps(schedule, separators=(",", ":"))
        assert json.loads(payload) == [
            list(event) for event in schedule
        ]

    def test_each_phase_ends_with_flap_then_fault(self):
        config = SHAPES["internet"]
        schedule = build_schedule(config, 3)
        kinds = [event[0] for event in schedule]
        assert kinds.count("flap") == config.phases
        assert kinds.count("fault") == config.phases
        assert kinds[-2:] == ["flap", "fault"]
        # Faults hit transit domains, never the covering root or a
        # group domain (their flaps are modelled separately).
        for event in schedule:
            if event[0] == "fault":
                assert event[1] > config.group_domains
        # The churn shape flaps and never faults.
        kinds = [event[0] for event in build_schedule(SHAPES["churn"], 3)]
        assert kinds.count("flap") == SHAPES["churn"].phases
        assert "fault" not in kinds

    def test_needs_transit_domains(self):
        with pytest.raises(ValueError):
            build_schedule(
                ChurnConfig(domains=7, group_domains=6, internet=True), 0
            )


class TestWorkload:
    def test_repeated_runs_are_identical(self, shape):
        config = SHAPES[shape]
        for walk_everything in (True, False):
            with recompute_everything(bgp=False, bgmp=walk_everything):
                first = run_churn_workload(config, 2)
                second = run_churn_workload(config, 2)
            assert first.fingerprint() == second.fingerprint()
            assert first.metrics_json == second.metrics_json
        per_phase = 2 if config.internet else 1
        assert len(first.phase_digests) == per_phase * config.phases
        assert first.events > 0
        assert first.state_size > 0

    def test_serial_matches_pooled(self, shape):
        serial = _sweep(SHAPES[shape], SEEDS, processes=1)
        pooled = _sweep(SHAPES[shape], SEEDS, processes=4)
        assert [r.seed for r in serial] == list(SEEDS)
        assert [r.seed for r in pooled] == list(SEEDS)
        for one, four in zip(serial, pooled):
            assert one.fingerprint() == four.fingerprint()
            # The full metrics snapshot (dirty-set counters included)
            # must survive pickling through worker processes.
            assert one.metrics_json == four.metrics_json
        assert [_sha(r) for r in pooled[:2]] == [
            PINNED[shape, 0][0], PINNED[shape, 1][0]
        ]

    def test_parallel_runs_preserve_seed_order(self):
        shuffled = (2, 0, 3, 1)
        results = _sweep(SHAPES["churn"], shuffled, processes=4)
        assert [r.seed for r in results] == list(shuffled)

    @pytest.mark.parametrize("pinned_shape, seed", sorted(PINNED))
    def test_fingerprint_is_pinned(self, pinned_shape, seed):
        digest, counts = PINNED[pinned_shape, seed]
        result = run_churn_workload(SHAPES[pinned_shape], seed)
        assert (
            result.events,
            result.state_size,
            result.joins_sent,
            result.prunes_sent,
        ) == counts
        assert _sha(result) == digest

    def test_timings_reported_outside_the_fingerprint(self, shape):
        result = run_churn_workload(SHAPES[shape], seed=0)
        assert 0 < result.converge_seconds <= result.setup_seconds
        assert result.seconds > 0
        untimed = dataclasses.replace(
            result, setup_seconds=0.0, converge_seconds=0.0, seconds=0.0
        )
        assert untimed.fingerprint() == result.fingerprint()
