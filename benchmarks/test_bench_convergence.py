"""Group-route propagation dynamics.

When MASC hands a fresh range to BGP, the range's group route must
reach every border router before BGMP can root trees in it everywhere
(section 4.2's glue role). The bench measures the convergence time
and UPDATE traffic of one group-route origination as the internetwork
grows; time should track the topology diameter (times the link
delay), not the domain count.

Convergence-engine speed is gated in absolute numbers by
``BENCHMARK.json`` (``root_flap``; see ``bench/README.md``).
"""

import random

from conftest import emit, paper_scale

from repro.addressing.prefix import Prefix
from repro.analysis.report import format_table
from repro.bgp.events import EventDrivenBgp
from repro.bgp.routes import RouteType
from repro.sim.engine import Simulator
from repro.topology.generators import as_graph

PREFIX = Prefix.parse("226.4.0.0/16")
DELAY = 0.05


def run_sweep(node_counts, seed):
    rows = []
    outcomes = {}
    for count in node_counts:
        topology = as_graph(random.Random(seed), node_count=count)
        sim = Simulator()
        engine = EventDrivenBgp(
            topology, sim, external_delay=DELAY, internal_delay=DELAY / 5
        )
        origin = topology.domains[0]
        engine.inject(origin.router(), PREFIX)
        elapsed = engine.run_to_quiescence()
        eccentricity = topology.eccentricity(origin)
        covered = sum(
            1
            for domain in topology.domains
            if engine.group_next_hop(
                domain.router(), PREFIX.network + 1
            )
            is not None
        )
        rows.append(
            (
                count,
                eccentricity,
                elapsed,
                engine.updates_sent,
                covered / count,
            )
        )
        outcomes[count] = (elapsed, eccentricity, covered / count)
    return rows, outcomes


def test_bench_convergence(benchmark):
    node_counts = (100, 400, 1000) if not paper_scale() else (
        100, 400, 1000, 3326,
    )
    rows, outcomes = benchmark.pedantic(
        run_sweep, args=(node_counts, 0), rounds=1, iterations=1
    )
    emit(
        "Group-route propagation: convergence time and UPDATE traffic",
        format_table(
            ("domains", "eccentricity", "time", "updates", "coverage"),
            rows,
        ),
    )
    for count, (elapsed, eccentricity, coverage) in outcomes.items():
        # Time tracks the diameter, not the size: each hop costs one
        # external delay plus bounded intra-domain hand-offs.
        assert elapsed <= (eccentricity * 3 + 5) * DELAY, (
            f"{count} domains took {elapsed}"
        )
        # Every domain can resolve the route (all-customer AS graph).
        assert coverage == 1.0
    # Larger networks send more UPDATEs, but time stays near-flat.
    small_time = outcomes[node_counts[0]][0]
    large_time = outcomes[node_counts[-1]][0]
    assert large_time < small_time * 6
