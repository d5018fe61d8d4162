"""Figure 2: MASC address-space utilization and G-RIB size over time.

Paper setup (section 4.3.3): 50 top-level domains, each with 50 child
domains; each child's allocation server requests 256-address blocks
with 30-day lifetimes at uniform random intervals between 1 and 95
hours; the run lasts 800 days.

Paper result (shape): a startup transient while demand ramps (first
~30 days), then utilization converges (the paper reports ~50% with the
75% occupancy threshold at both levels) and the G-RIB size drops from
its transient peak to a stable plateau — strong aggregation given the
tens of thousands of live blocks.

Exact-placement note: this reproduction allocates real, positioned
prefixes at every level, so parent-space fragmentation (children's
claims scattered across a parent's range by the randomized claim rule)
caps top-level packing below the idealized threshold; steady
utilization here lands near 20-35% rather than the paper's 50%, while
the transient shape, convergence, and G-RIB aggregation match. See
EXPERIMENTS.md.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.analysis.report import format_table
from repro.masc.config import HOURS_PER_DAY, MascConfig
from repro.masc.simulation import (
    ClaimSimulation,
    SimulationConfig,
    SimulationResult,
)


@dataclass
class Figure2Config:
    """Scaled-down defaults: the full paper shape (50x50, 800 days)
    runs in under two minutes; the default keeps the same dynamics at
    ~20% of the domain count and runs in a few seconds."""

    top_count: int = 10
    children_per_top: int = 50
    duration_days: float = 200.0
    seed: int = 0
    transient_days: float = 60.0
    masc: MascConfig = field(default_factory=MascConfig)

    def simulation(self, tracer=None) -> ClaimSimulation:
        """The claim simulation this config describes, not yet run."""
        return ClaimSimulation(
            SimulationConfig(
                top_count=self.top_count,
                children_per_top=self.children_per_top,
                duration_days=self.duration_days,
                seed=self.seed,
                masc=self.masc,
            ),
            tracer=tracer,
        )


@dataclass
class Figure2Result:
    """The two series of Figure 2 plus steady-state summaries."""

    config: Figure2Config
    simulation: SimulationResult

    def utilization_series(self) -> List[tuple]:
        """(day, utilization) samples — Figure 2(a)."""
        return [
            (t / HOURS_PER_DAY, v)
            for t, v in self.simulation.utilization
        ]

    def grib_series(self) -> List[tuple]:
        """(day, mean G-RIB, max G-RIB) samples — Figure 2(b)."""
        means = dict(self.simulation.grib_mean)
        maxes = dict(self.simulation.grib_max)
        return [
            (t / HOURS_PER_DAY, means[t], maxes[t])
            for t in sorted(means)
        ]

    def steady_state(self) -> Dict[str, float]:
        """Post-transient summary (utilization mean, G-RIB mean/max)."""
        return self.simulation.steady_state(self.config.transient_days)

    def transient_peak_grib(self) -> float:
        """Largest G-RIB mean during the startup transient."""
        window = self.simulation.grib_mean.window(
            0.0, self.config.transient_days * HOURS_PER_DAY
        )
        return window.max()

    def table(self, every_days: int = 20) -> str:
        """The figure's series as a text table."""
        rows = []
        for day, utilization in self.utilization_series():
            if day % every_days:
                continue
            mean = self.simulation.grib_mean.value_at(day * HOURS_PER_DAY)
            peak = self.simulation.grib_max.value_at(day * HOURS_PER_DAY)
            rows.append((int(day), utilization, mean, peak))
        return format_table(
            ("day", "utilization", "grib_mean", "grib_max"), rows
        )


def run_figure2(
    config: Optional[Figure2Config] = None,
    tracer=None,
) -> Figure2Result:
    """Run the Figure 2 simulation and wrap its results.

    Pass a :class:`~repro.trace.tracer.Tracer` to trace the run (off by
    default, no overhead).
    """
    if config is None:
        config = Figure2Config()
    return Figure2Result(
        config=config, simulation=config.simulation(tracer).run()
    )


def paper_scale_config(seed: int = 0) -> Figure2Config:
    """The paper's exact 50x50 / 800-day configuration."""
    return Figure2Config(
        top_count=50,
        children_per_top=50,
        duration_days=800.0,
        seed=seed,
        transient_days=60.0,
    )
