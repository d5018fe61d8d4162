"""Determinism of the internet-scale workload (at test scale).

The benchmark runs the route-views graph; these tests pin the
contracts at a size that runs in seconds: seeded schedules are
reproducible, the workload fingerprint is pinned per seed and
identical across repeated runs and across serial vs pooled sweeps,
and the three wall-clock timings stay outside it.
"""

import dataclasses
import functools
import hashlib

import pytest

from repro.experiments.internet import (
    InternetConfig,
    build_internet_schedule,
    run_internet_workload,
)
from repro.experiments.runner import parallel_map

TINY = InternetConfig(
    domains=60,
    group_domains=6,
    groups_per_domain=4,
    churn_per_phase=30,
    phases=2,
    maintain_every=10,
)


#: sha256(repr(fingerprint())) per seed, with (events, state size,
#: joins sent, prunes sent) beside it to localise a drift.
PINNED = {
    0: (
        "7c6f2a29352b2d2ae645780d66f0e3fa67c34fbc95626202e39174d404225fed",
        (70, 203, 374, 193),
    ),
    1: (
        "24698baebc9182bc3e84db2865ef574b7c606bdf372b7377140b900c18f99aac",
        (70, 233, 386, 173),
    ),
}


def _sha(result):
    return hashlib.sha256(repr(result.fingerprint()).encode()).hexdigest()


class TestSchedule:
    def test_same_config_and_seed_reproduces(self):
        assert build_internet_schedule(TINY, 7) == (
            build_internet_schedule(TINY, 7)
        )

    def test_seeds_differ(self):
        assert build_internet_schedule(TINY, 0) != (
            build_internet_schedule(TINY, 1)
        )

    def test_each_phase_ends_with_flap_then_fault(self):
        schedule = build_internet_schedule(TINY, 3)
        kinds = [event[0] for event in schedule]
        assert kinds.count("flap") == TINY.phases
        assert kinds.count("fault") == TINY.phases
        assert kinds[-2:] == ["flap", "fault"]
        # Faults hit transit domains, never the covering root or a
        # group domain (their flaps are modelled separately).
        for event in schedule:
            if event[0] == "fault":
                assert event[1] > TINY.group_domains

    def test_needs_transit_domains(self):
        with pytest.raises(ValueError):
            build_internet_schedule(
                InternetConfig(domains=7, group_domains=6), 0
            )


class TestWorkloadDeterminism:
    def test_repeated_runs_are_identical(self):
        first = run_internet_workload(TINY, seed=2)
        second = run_internet_workload(TINY, seed=2)
        assert first.fingerprint() == second.fingerprint()
        assert len(first.phase_digests) == 2 * TINY.phases
        assert first.events > 0
        assert first.state_size > 0

    def test_serial_matches_pooled(self):
        # The serial side is test_fingerprint_is_pinned.
        pooled = parallel_map(
            functools.partial(run_internet_workload, TINY),
            (0, 1),
            processes=2,
        )
        assert [_sha(r) for r in pooled] == [PINNED[0][0], PINNED[1][0]]

    @pytest.mark.parametrize("seed", sorted(PINNED))
    def test_fingerprint_is_pinned(self, seed):
        digest, counts = PINNED[seed]
        result = run_internet_workload(TINY, seed)
        assert (
            result.events,
            result.state_size,
            result.joins_sent,
            result.prunes_sent,
        ) == counts
        assert _sha(result) == digest

    def test_timings_reported_outside_the_fingerprint(self):
        result = run_internet_workload(TINY, seed=0)
        assert 0 < result.converge_seconds <= result.setup_seconds
        assert result.seconds > 0
        untimed = dataclasses.replace(
            result, setup_seconds=0.0, converge_seconds=0.0, seconds=0.0
        )
        assert untimed.fingerprint() == result.fingerprint()
