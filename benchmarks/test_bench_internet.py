"""The route-views-shape churn workload: where an internet-scale run
spends its time.

One serial seed of :func:`repro.experiments.churn.run_churn_workload`
in its route-views shape — the whole architecture on a route-views-like
AS graph: thousands of groups, membership churn, root flaps and router
faults — printed as ``setup_seconds`` (entry to the timed loop),
``converge_seconds`` (the initial BGP convergence inside it) and
``seconds`` (the timed loop) beside the event count and
forwarding-state size. The default is the 800-domain CI smoke shape;
``REPRO_PAPER_SCALE=1`` runs the full 3326-domain
:data:`~repro.experiments.churn.ROUTE_VIEWS` configuration. Both
shapes' fingerprints are pinned.
"""

import dataclasses
import hashlib

from conftest import emit, paper_scale

from repro.analysis.report import format_table
from repro.experiments.churn import (
    ROUTE_VIEWS,
    ChurnConfig,
    run_churn_workload,
)

#: Wall-clock ceiling for the timed loop at smoke scale. The loop runs
#: in seconds on a laptop; the ceiling only catches an
#: order-of-magnitude regression (a digest cache that stopped caching,
#: a mask walk that fell back to scanning every router) without being
#: flaky on slow CI runners.
SMOKE_SECONDS_PER_SEED = 180.0

#: sha256(repr(fingerprint())) of the smoke-scale run, seed 0.
SMOKE_SHA = "e7e4ba3a3bf278d3d045fae5cc2f7d7ca90fca7a3fe921529a0b6fbf40d6627c"

#: The same for the full ROUTE_VIEWS run (``REPRO_PAPER_SCALE=1``), so
#: a route-views speedup is byte-identical by test, not by hand.
PAPER_SHA = "b8bea3789f81608db5dc922c4234dec0510ac28bf8bd6b08a87428df59a95792"


def _bench_config() -> ChurnConfig:
    if paper_scale():
        return ROUTE_VIEWS
    # CI smoke scale: same shape, quarter-size graph.
    return dataclasses.replace(
        ROUTE_VIEWS,
        domains=800,
        group_domains=24,
        groups_per_domain=24,
        churn_per_phase=200,
    )


def test_bench_internet_scale(benchmark):
    config = _bench_config()
    run = benchmark.pedantic(
        run_churn_workload,
        args=(config, 0),
        rounds=1,
        iterations=1,
    )
    emit(
        f"Internet-scale churn ({config.domains} domains, "
        f"{config.total_groups} groups, {config.phases} flap+fault "
        "phases, seed 0)",
        format_table(
            ("setup_seconds", "converge_seconds", "seconds", "events",
             "entries"),
            [(run.setup_seconds, run.converge_seconds, run.seconds,
              run.events, run.state_size)],
        ),
    )
    # The workload actually ran at scale: the full schedule executed
    # and left forwarding state behind.
    assert run.events > 0
    assert run.state_size > 0
    assert len(run.phase_digests) == 2 * config.phases
    digest = hashlib.sha256(repr(run.fingerprint()).encode())
    assert digest.hexdigest() == (PAPER_SHA if paper_scale() else SMOKE_SHA)
    # The full-scale budget scales with the configured graph.
    budget = SMOKE_SECONDS_PER_SEED * (config.domains / 800.0)
    assert run.seconds <= budget, (
        f"timed loop took {run.seconds:.1f}s (> {budget:.0f}s)"
    )
