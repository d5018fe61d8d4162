"""The internet-scale workload: where a route-views-scale run spends
its time.

One serial seed of :func:`repro.experiments.internet.run_internet_workload`
— the whole architecture on a route-views-like AS graph: thousands of
groups, membership churn, root flaps and router faults — printed as
``setup_seconds`` (entry to the timed loop), ``converge_seconds`` (the
initial BGP convergence inside it) and ``seconds`` (the timed loop)
beside the event count and forwarding-state size. The default is the
800-domain CI smoke shape; ``REPRO_PAPER_SCALE=1`` runs the full
3326-domain configuration.
"""

from conftest import emit, paper_scale

from repro.analysis.report import format_table
from repro.experiments.internet import (
    InternetConfig,
    run_internet_workload,
)

#: Wall-clock ceiling for the timed loop at smoke scale. The loop runs
#: in seconds on a laptop; the ceiling only catches an
#: order-of-magnitude regression (a digest cache that stopped caching,
#: a mask walk that fell back to scanning every router) without being
#: flaky on slow CI runners.
SMOKE_SECONDS_PER_SEED = 180.0


def _bench_config() -> InternetConfig:
    if paper_scale():
        return InternetConfig()
    # CI smoke scale: same shape, quarter-size graph.
    return InternetConfig(
        domains=800,
        group_domains=24,
        groups_per_domain=24,
        churn_per_phase=200,
    )


def test_bench_internet_scale(benchmark):
    config = _bench_config()
    run = benchmark.pedantic(
        run_internet_workload,
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
    # The full-scale budget scales with the configured graph.
    budget = SMOKE_SECONDS_PER_SEED * (config.domains / 800.0)
    assert run.seconds <= budget, (
        f"timed loop took {run.seconds:.1f}s (> {budget:.0f}s)"
    )
