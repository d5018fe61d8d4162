"""The Figure 2 experiment engine.

Simulates MASC address allocation over a domain hierarchy driven by
the paper's demand model, and samples the two quantities of Figure 2:

- **address space utilization** — "the fraction of the total addresses
  obtained from 224/4 that were actually requested by the local address
  allocation servers";
- **G-RIB size** — at a top-level domain, the number of globally
  advertised prefixes plus the prefixes of its children; at a child,
  the globally advertised prefixes plus the prefixes claimed by its
  siblings.

The claim *algorithm* objects are the same ones the protocol stack
uses; what is abstracted away is per-message latency (the paper's
Figure 2 likewise simulates the claim algorithm, not packet dynamics).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.addressing.prefix import Prefix
from repro.masc.config import HOURS_PER_DAY, MascConfig
from repro.masc.maas import MaasServer
from repro.masc.manager import DomainSpaceManager, RootClaimSource
from repro.sim.engine import Simulator
from repro.sim.heap import collector_scope
from repro.sim.randomness import RandomStreams
from repro.sim.stats import TimeSeries
from repro.trace.tracer import NULL_TRACER


@dataclass
class SimulationConfig:
    """Shape and duration of a claim-algorithm simulation run."""

    top_count: int = 50
    children_per_top: int = 50
    duration_days: float = 800.0
    sample_interval_hours: float = 24.0
    seed: int = 0
    masc: MascConfig = field(default_factory=MascConfig)
    #: Heterogeneous hierarchies: per-top child counts override
    #: ``children_per_top`` when given.
    children_counts: Optional[List[int]] = None

    def child_count_of(self, top_index: int) -> int:
        """Number of children under the ``top_index``-th top domain."""
        if self.children_counts is not None:
            return self.children_counts[top_index]
        return self.children_per_top


@dataclass
class SimulationResult:
    """Time series and summary counters from one run."""

    utilization: TimeSeries
    grib_mean: TimeSeries
    grib_max: TimeSeries
    global_prefixes: TimeSeries
    live_blocks: TimeSeries
    requests_served: int
    requests_failed: int
    claims_made: int
    doublings: int
    consolidations: int

    def steady_state(self, from_day: float) -> Dict[str, float]:
        """Summary of the post-transient regime (paper: after ~day 30)."""
        start = from_day * HOURS_PER_DAY
        end = self.utilization.times[-1]
        util = self.utilization.window(start, end)
        mean_rib = self.grib_mean.window(start, end)
        max_rib = self.grib_max.window(start, end)
        return {
            "utilization_mean": util.mean(),
            "grib_mean": mean_rib.mean(),
            "grib_max": max_rib.max(),
        }


class ClaimSimulation:
    """One MASC allocation run over a two-level (or heterogeneous)
    hierarchy with the Figure 2 demand model."""

    def __init__(
        self,
        config: Optional[SimulationConfig] = None,
        tracer=None,
    ):
        self.config = config if config is not None else SimulationConfig()
        self.sim = Simulator()
        #: Telemetry sink shared by every manager (the null tracer by
        #: default; a real Tracer is re-clocked onto this simulator).
        self.tracer = tracer if tracer is not None else NULL_TRACER
        if self.tracer.enabled:
            self.tracer.bind_clock(self.sim)
        self.streams = RandomStreams(self.config.seed)
        self.root = RootClaimSource()
        self.tops: List[DomainSpaceManager] = []
        self.children: Dict[int, List[DomainSpaceManager]] = {}
        self.maases: Dict[str, MaasServer] = {}
        self._live_blocks = 0
        self._build()
        # Results
        self.utilization = TimeSeries("utilization")
        self.grib_mean = TimeSeries("grib-mean")
        self.grib_max = TimeSeries("grib-max")
        self.global_prefixes = TimeSeries("global-prefixes")
        self.live_blocks_series = TimeSeries("live-blocks")

    # ------------------------------------------------------------------
    # Construction

    def _build(self) -> None:
        masc = self.config.masc
        clock = lambda: self.sim.now  # noqa: E731
        for t in range(self.config.top_count):
            top = DomainSpaceManager(
                f"T{t}",
                source=self.root,
                config=masc,
                rng=self.streams.stream(f"claims/T{t}"),
                clock=clock,
                tracer=self.tracer,
            )
            self.tops.append(top)
            self.children[t] = []
            for c in range(self.config.child_count_of(t)):
                name = f"T{t}C{c}"
                child = DomainSpaceManager(
                    name,
                    source=top,
                    config=masc,
                    rng=self.streams.stream(f"claims/{name}"),
                    clock=clock,
                    tracer=self.tracer,
                )
                self.children[t].append(child)
                self.maases[name] = MaasServer(
                    child,
                    config=masc,
                    rng=self.streams.stream(f"demand/{name}"),
                )

    # ------------------------------------------------------------------
    # Demand events

    def _schedule_initial_demand(self) -> None:
        for name, maas in self.maases.items():
            delay = maas.rng.uniform(
                0.0, self.config.masc.inter_request_max
            )
            self.sim.schedule(delay, self._request, maas)

    def _request(self, maas: MaasServer) -> None:
        lease = maas.request_block(self.sim.now)
        if lease is not None:
            self._live_blocks += 1
            self.sim.schedule(
                lease.expires_at - self.sim.now, self._expire, maas
            )
        self.sim.schedule(maas.next_request_delay(), self._request, maas)

    def _expire(self, maas: MaasServer) -> None:
        expired = maas.expire_blocks(self.sim.now)
        self._live_blocks -= len(expired)

    # ------------------------------------------------------------------
    # Sampling

    def _maintain(self) -> None:
        """Daily lifetime maintenance: children first so their drained
        spaces release before parents decide on their own renewals."""
        for children in self.children.values():
            for child in children:
                child.maintain()
        for top in self.tops:
            top.maintain()

    def _sample(self) -> None:
        self._maintain()
        allocated = self.root.allocated_total()
        requested = self._live_blocks * self.config.masc.block_size
        utilization = requested / allocated if allocated else 0.0
        self.utilization.record(self.sim.now, utilization)

        top_counts = [top.prefix_count() for top in self.tops]
        global_count = sum(top_counts)
        total_rib = 0
        max_rib = 0
        domain_count = 0
        for t, top in enumerate(self.tops):
            child_counts = [
                child.prefix_count() for child in self.children[t]
            ]
            child_sum = sum(child_counts)
            top_rib = global_count + child_sum
            total_rib += top_rib
            max_rib = max(max_rib, top_rib)
            domain_count += 1
            for count in child_counts:
                child_rib = global_count + (child_sum - count)
                total_rib += child_rib
                max_rib = max(max_rib, child_rib)
                domain_count += 1
        mean_rib = total_rib / domain_count if domain_count else 0.0
        self.grib_mean.record(self.sim.now, mean_rib)
        self.grib_max.record(self.sim.now, max_rib)
        self.global_prefixes.record(self.sim.now, global_count)
        self.live_blocks_series.record(self.sim.now, self._live_blocks)

        if self.sim.now < self.config.duration_days * HOURS_PER_DAY:
            self.sim.schedule(
                self.config.sample_interval_hours, self._sample
            )

    # ------------------------------------------------------------------

    def run(self) -> SimulationResult:
        """Execute the configured run and return its results."""
        self._schedule_initial_demand()
        self.sim.schedule(
            self.config.sample_interval_hours, self._sample
        )
        with collector_scope():
            self.sim.run(until=self.config.duration_days * HOURS_PER_DAY)
        all_children = [
            child
            for children in self.children.values()
            for child in children
        ]
        managers = self.tops + all_children
        return SimulationResult(
            utilization=self.utilization,
            grib_mean=self.grib_mean,
            grib_max=self.grib_max,
            global_prefixes=self.global_prefixes,
            live_blocks=self.live_blocks_series,
            requests_served=sum(
                m.requests_served for m in self.maases.values()
            ),
            requests_failed=sum(
                m.requests_failed for m in self.maases.values()
            ),
            claims_made=sum(m.claims_made for m in managers),
            doublings=sum(m.doublings for m in managers),
            consolidations=sum(m.consolidations for m in managers),
        )
