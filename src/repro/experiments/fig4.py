"""Figure 4: path lengths on the four distribution-tree types.

Paper setup (section 5.4): a 3326-node AS-level topology derived from
route-views BGP dumps; group sizes from 1 to 1000; for each group, a
random source and the group rooted at the initiator's domain; path
lengths in inter-domain hops, normalized to the shortest-path tree.

Paper result (shape): unidirectional shared trees average about twice
the shortest-path lengths (worst case up to ~6x); bidirectional trees
stay within ~30% on average (max ~4.5x); hybrid trees within ~20%
(max ~4x). Ordering: unidirectional >> bidirectional > hybrid > 1.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.analysis.report import format_table
from repro.analysis.trees import GroupScenario, compare_trees
from repro.topology.generators import as_graph
from repro.topology.network import Topology
from repro.trace.tracer import NULL_TRACER

DEFAULT_GROUP_SIZES = (1, 2, 5, 10, 20, 50, 100, 200, 500, 1000)
TREE_KINDS = ("unidirectional", "bidirectional", "hybrid")


@dataclass
class Figure4Config:
    """Sweep parameters. ``node_count`` defaults to the paper's 3326."""

    node_count: int = 3326
    group_sizes: Sequence[int] = DEFAULT_GROUP_SIZES
    trials_per_size: int = 5
    seed: int = 0


@dataclass
class SizePoint:
    """Aggregates for one group size (one x-position of the figure)."""

    group_size: int
    average_ratio: Dict[str, float]
    max_ratio: Dict[str, float]


@dataclass
class Figure4Result:
    """The six curves of Figure 4 (avg and max per tree type)."""

    config: Figure4Config
    points: List[SizePoint] = field(default_factory=list)

    def curve(self, kind: str, statistic: str = "average") -> List[tuple]:
        """(group size, ratio) series for one curve."""
        if kind not in TREE_KINDS:
            raise ValueError(f"unknown tree kind {kind!r}")
        if statistic == "average":
            return [(p.group_size, p.average_ratio[kind]) for p in self.points]
        if statistic == "max":
            return [(p.group_size, p.max_ratio[kind]) for p in self.points]
        raise ValueError(f"unknown statistic {statistic!r}")

    def table(self) -> str:
        """All curves as a text table (one row per group size)."""
        rows = []
        for point in self.points:
            rows.append(
                (
                    point.group_size,
                    point.average_ratio["unidirectional"],
                    point.max_ratio["unidirectional"],
                    point.average_ratio["bidirectional"],
                    point.max_ratio["bidirectional"],
                    point.average_ratio["hybrid"],
                    point.max_ratio["hybrid"],
                )
            )
        return format_table(
            (
                "receivers",
                "uni_avg", "uni_max",
                "bidir_avg", "bidir_max",
                "hybrid_avg", "hybrid_max",
            ),
            rows,
        )

    def overall(self) -> Dict[str, Dict[str, float]]:
        """Whole-sweep summary: mean of averages, max of maxima."""
        summary: Dict[str, Dict[str, float]] = {}
        for kind in TREE_KINDS:
            averages = [p.average_ratio[kind] for p in self.points]
            maxima = [p.max_ratio[kind] for p in self.points]
            summary[kind] = {
                "average": sum(averages) / len(averages),
                "max": max(maxima),
            }
        return summary


class _SweepClock:
    """Ordinal trace clock for the (simulator-less) fig4 sweep: each
    group size occupies one unit of trace time."""

    def __init__(self) -> None:
        self.now = 0.0


def run_figure4(
    config: Optional[Figure4Config] = None,
    topology: Optional[Topology] = None,
    tracer=None,
) -> Figure4Result:
    """Run the Figure 4 sweep.

    Pass a prebuilt ``topology`` to amortize graph construction across
    runs (the bench suite does). A :class:`~repro.trace.Tracer` traces
    the sweep on an ordinal clock (one tick per group size).
    """
    if config is None:
        config = Figure4Config()
    if tracer is None:
        tracer = NULL_TRACER
    clock = _SweepClock()
    if tracer.enabled:
        tracer.bind_clock(clock)
    rng = random.Random(config.seed)
    if topology is None:
        topology = as_graph(rng, node_count=config.node_count)
    result = Figure4Result(config=config)
    with tracer.span(
        "fig4.sweep",
        layer="analysis",
        nodes=len(topology),
        trials=config.trials_per_size,
    ) as sweep:
        for index, size in enumerate(config.group_sizes):
            clock.now = float(index)
            size = min(size, len(topology))
            sums = {kind: 0.0 for kind in TREE_KINDS}
            maxima = {kind: 0.0 for kind in TREE_KINDS}
            with tracer.span(
                "fig4.size", layer="analysis", receivers=size
            ) as point_span:
                for _ in range(config.trials_per_size):
                    scenario = GroupScenario.random(topology, rng, size)
                    comparisons = compare_trees(scenario)
                    for kind in TREE_KINDS:
                        sums[kind] += comparisons[kind].average_ratio
                        maxima[kind] = max(
                            maxima[kind], comparisons[kind].max_ratio
                        )
                clock.now = float(index + 1)
                point_span.finish(
                    status="ok",
                    bidir_avg=sums["bidirectional"]
                    / config.trials_per_size,
                    uni_avg=sums["unidirectional"]
                    / config.trials_per_size,
                )
            result.points.append(
                SizePoint(
                    group_size=size,
                    average_ratio={
                        kind: sums[kind] / config.trials_per_size
                        for kind in TREE_KINDS
                    },
                    max_ratio=dict(maxima),
                )
            )
        sweep.finish(status="ok", sizes=len(result.points))
    return result
