"""Internet-scale bench: the full route-views AS graph under churn.

The churn workload runs at 100 domains; this suite runs the whole
architecture at the paper's motivating scale — a
route-views-like AS graph of ~3300 domains, thousands of groups, with
membership churn punctuated by root flaps *and* router faults — and is
the workload the fast-path machinery (interned prefixes, incremental
forwarding digests, bitmask tree walks, the persistent worker pool)
exists for.

Structure mirrors :mod:`repro.experiments.churn` with three twists:

* **One topology, many seeds.** The AS graph is a function of
  ``topology_seed`` alone, *not* of the workload seed, so the parent
  process parses it once and publishes it through
  :func:`repro.experiments.runner.set_shared`; pool workers
  fork-inherit it for free and a serial sweep reuses the same object
  in-process. Workers fall back to building their own copy when the
  payload is absent (direct calls, spawn platforms).
* **Simulator-driven.** The timed loop schedules every churn event on
  a :class:`~repro.sim.Simulator` under a stable name
  (``internet.join``, ``internet.flap``, ...), so an attached
  :class:`~repro.trace.EventLoopProfiler` ranks hot paths by event
  kind — the ``bench --profile`` table.
* **IGMP-only interiors.** Every domain runs the static MIGP: at
  3300+ domains the interior-protocol dynamics are out of scope (the
  100-domain churn workload covers them) and unicast auto-origination
  is disabled — full unicast tables at this scale would be ~11M routes
  modelling nothing the multicast layer reads here.

As everywhere else: serial and pooled sweeps of the same (config,
seed) pairs must produce byte-identical fingerprints; wall-clock
timing stays in the bench artifact (``BENCH_internet.json``,
schema-checked against ``repro.bench.internet/v1``) and never feeds
simulation state.
"""

from __future__ import annotations

import functools
import json
import os
import random
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.bgmp.network import BgmpNetwork
from repro.experiments import runner
from repro.experiments.churn import (
    COVERING_RANGE,
    group_prefix,
    schedule_digest,
)
from repro.serve.schemas import validate
from repro.sim.engine import Simulator
from repro.topology.domain import Domain
from repro.topology.network import Topology
from repro.trace.profiler import EventLoopProfiler


def _wall() -> float:
    return time.perf_counter()  # lint: disable=DET002 — bench wall-clock timing; recorded in bench artifacts only, never in simulation state


def static_migp_selector(domain: Domain) -> str:
    """Every domain is an IGMP-only stub at internet scale (module
    level so the config pickles into pool workers)."""
    return "static"


@dataclass(frozen=True)
class InternetConfig:
    """Shape of the internet-scale workload.

    The topology is a function of ``topology_seed`` and ``domains``
    only; workload seeds vary the schedule over the *same* graph,
    which is what makes the parsed topology shareable across every
    sweep worker. Each of the ``phases`` runs ``churn_per_phase``
    join/leave/send events (a ``repair`` sweep every
    ``maintain_every``), then a root flap (withdraw + restore one
    group /20) and a router fault (crash + restore one transit
    border router), each followed by converge + repair.
    """

    domains: int = 3326
    topology_seed: int = 1998
    group_domains: int = 48
    groups_per_domain: int = 44
    initial_members: int = 2
    churn_per_phase: int = 400
    phases: int = 2
    maintain_every: int = 25

    @property
    def total_groups(self) -> int:
        return self.group_domains * self.groups_per_domain


def build_internet_topology(config: InternetConfig) -> Topology:
    """The route-views-scale AS graph (topology_seed only)."""
    from repro.topology.generators import as_graph

    return as_graph(
        random.Random(config.topology_seed), node_count=config.domains
    )


#: set_shared key under which the parsed topology is published.
SHARED_TOPOLOGY_KEY = "internet_topology"


def publish_topology(config: InternetConfig) -> Topology:
    """Build the config's topology once and publish it for pool
    workers to fork-inherit (idempotent per (seed, domains) pair, so
    repeated sweeps keep the persistent pool warm)."""
    shared = runner.get_shared(SHARED_TOPOLOGY_KEY)
    if (
        isinstance(shared, tuple)
        and shared[:2] == (config.topology_seed, config.domains)
    ):
        return shared[2]
    topology = build_internet_topology(config)
    runner.set_shared(
        **{
            SHARED_TOPOLOGY_KEY: (
                config.topology_seed, config.domains, topology
            )
        }
    )
    return topology


def _topology_for(config: InternetConfig) -> Topology:
    """The shared topology when one matching this config is
    published (parent or fork-inherited), else a private build."""
    shared = runner.get_shared(SHARED_TOPOLOGY_KEY)
    if (
        isinstance(shared, tuple)
        and shared[:2] == (config.topology_seed, config.domains)
    ):
        return shared[2]
    return build_internet_topology(config)


def build_internet_schedule(
    config: InternetConfig, seed: int
) -> List[Tuple]:
    """The seeded schedule: the churn event tuples of
    :func:`repro.experiments.churn.build_churn_schedule` plus
    ``("fault", domain_index)`` — crash and restore that domain's
    border router."""
    if config.domains <= 1 + config.group_domains:
        raise ValueError(
            "internet config needs transit domains beyond the "
            f"{config.group_domains} group domains"
        )
    rng = random.Random((seed << 8) ^ 0x1A7E5CA1)
    group_domain_indexes = list(range(1, 1 + config.group_domains))
    groups: List[Tuple[int, int]] = []
    for index in group_domain_indexes:
        base = (224 << 24) | (index << 12)
        for offset in range(config.groups_per_domain):
            groups.append((index, base | offset))
    schedule: List[Tuple] = []
    active: List[Tuple[int, int, str]] = []
    serial = 0

    def add_member(group: int) -> None:
        nonlocal serial
        domain_index = rng.randrange(config.domains)
        serial += 1
        host = f"h{serial}"
        schedule.append(("join", domain_index, group, host))
        active.append((group, domain_index, host))

    for _owner, group in groups:
        for _ in range(config.initial_members):
            add_member(group)
    for _phase in range(config.phases):
        for step in range(config.churn_per_phase):
            roll = rng.random()
            if roll < 0.45 or not active:
                _owner, group = groups[rng.randrange(len(groups))]
                add_member(group)
            elif roll < 0.75:
                index = rng.randrange(len(active))
                group, domain_index, host = active.pop(index)
                schedule.append(("leave", domain_index, group, host))
            else:
                _owner, group = groups[rng.randrange(len(groups))]
                schedule.append(
                    ("send", rng.randrange(config.domains), group)
                )
            if (step + 1) % config.maintain_every == 0:
                schedule.append(("repair",))
        flapped = group_domain_indexes[
            rng.randrange(len(group_domain_indexes))
        ]
        schedule.append(("flap", flapped))
        faulted = rng.randrange(1 + config.group_domains, config.domains)
        schedule.append(("fault", faulted))
    return schedule


@dataclass
class InternetRunResult:
    """One seed's workload outcome."""

    seed: int
    seconds: float
    #: Simulator events executed in the timed loop (deterministic).
    events: int
    schedule_sha: str
    #: (migrations, rejoined, pruned) for every repair pass, in order.
    repairs: List[Tuple[int, int, int]]
    #: Forwarding digest after each flap and each fault completed.
    phase_digests: List[str]
    final_digest: str
    rib_digest: str
    deliveries: List[int]
    state_size: int
    joins_sent: int
    prunes_sent: int
    #: EventLoopProfiler.summary() when profiling was requested; wall
    #: timings inside are nondeterministic and excluded from the
    #: fingerprint.
    profile: Optional[Dict[str, Any]] = None

    def fingerprint(self) -> Tuple:
        """Everything that must match across serial/pooled sweeps and
        repeated runs of the same (config, seed)."""
        return (
            self.schedule_sha,
            self.events,
            tuple(self.repairs),
            tuple(self.phase_digests),
            self.final_digest,
            self.rib_digest,
            tuple(self.deliveries),
            self.state_size,
            self.joins_sent,
            self.prunes_sent,
        )


def run_internet_workload(
    config: InternetConfig, seed: int, profile: bool = False
) -> InternetRunResult:
    """Run one seeded internet-scale schedule.

    Setup (originations, the initial convergence, initial joins, one
    draining repair) is untimed; the clock covers exactly the
    simulator-driven churn + flap/fault loop.
    """
    topology = _topology_for(config)
    network = BgmpNetwork(
        topology,
        migp_selector=static_migp_selector,
        auto_unicast=False,
    )
    network.originate_group_range(topology.domains[0], COVERING_RANGE)
    for domain in topology.domains[1 : 1 + config.group_domains]:
        network.originate_group_range(
            domain, group_prefix(domain.domain_id)
        )
    network.converge()
    schedule = build_internet_schedule(config, seed)
    sha = schedule_digest(schedule)
    boundary = config.total_groups * config.initial_members
    for event in schedule[:boundary]:
        _kind, domain_index, group, host = event
        network.join(topology.domains[domain_index].host(host), group)
    # Drain the dirty set the setup joins accumulated so the timed
    # loop starts from a repaired steady state.
    network.repair_trees()

    repairs: List[Tuple[int, int, int]] = []
    phase_digests: List[str] = []
    deliveries: List[int] = []

    def repair() -> None:
        counters = network.repair_trees()
        repairs.append(
            (
                counters["migrations"],
                counters["rejoined"],
                counters["pruned"],
            )
        )

    def on_join(domain_index: int, group: int, host: str) -> None:
        network.join(topology.domains[domain_index].host(host), group)

    def on_leave(domain_index: int, group: int, host: str) -> None:
        network.leave(topology.domains[domain_index].host(host), group)

    def on_send(domain_index: int, group: int) -> None:
        report = network.send(
            topology.domains[domain_index].host("src"), group
        )
        deliveries.append(report.total_deliveries)

    def on_flap(domain_index: int) -> None:
        domain = topology.domains[domain_index]
        prefix = group_prefix(domain.domain_id)
        network.bgp.withdraw(domain.router(), prefix)
        network.converge()
        repair()
        network.originate_group_range(domain, prefix)
        network.converge()
        repair()
        phase_digests.append(network.forwarding_digest())

    def on_fault(domain_index: int) -> None:
        router = topology.domains[domain_index].router()
        network.bgp.fail_router(router)
        network.converge()
        repair()
        network.bgp.restore_router(router)
        network.converge()
        repair()
        phase_digests.append(network.forwarding_digest())

    handlers = {
        "join": on_join,
        "leave": on_leave,
        "send": on_send,
        "repair": repair,
        "flap": on_flap,
        "fault": on_fault,
    }
    sim = Simulator()
    profiler = EventLoopProfiler().attach(sim) if profile else None
    for index, event in enumerate(schedule[boundary:]):
        kind = event[0]
        sim.schedule_at(
            float(index),
            handlers[kind],
            *event[1:],
            name=f"internet.{kind}",
        )
    started = _wall()
    executed = sim.run()
    seconds = _wall() - started
    summary: Optional[Dict[str, Any]] = None
    if profiler is not None:
        profiler.detach()
        summary = profiler.summary()

    return InternetRunResult(
        seed=seed,
        seconds=seconds,
        events=executed,
        schedule_sha=sha,
        repairs=repairs,
        phase_digests=phase_digests,
        final_digest=network.forwarding_digest(),
        rib_digest=network.bgp.rib_digest(),
        deliveries=deliveries,
        state_size=network.forwarding_state_size(),
        joins_sent=sum(b.joins_sent for b in network.bgmp_routers()),
        prunes_sent=sum(b.prunes_sent for b in network.bgmp_routers()),
        profile=summary,
    )


def _internet_seed_worker(
    config: InternetConfig, seed: int
) -> InternetRunResult:
    """Top-level (picklable) per-seed worker for the parallel runner;
    reads the fork-inherited topology through :func:`_topology_for`."""
    return run_internet_workload(config, seed)


def run_internet_seeds(
    seeds: Sequence[int],
    config: Optional[InternetConfig] = None,
    processes: Optional[int] = None,
) -> List[InternetRunResult]:
    """Run the workload across seeds through the parallel runner over
    the published shared topology (order-preserving; ``processes=1``
    forces serial)."""
    if config is None:
        config = InternetConfig()
    publish_topology(config)
    worker = functools.partial(_internet_seed_worker, config)
    return runner.parallel_map(worker, list(seeds), processes=processes)


@dataclass
class InternetBenchResult:
    """The serial-vs-pooled sweep comparison across seeds."""

    config: InternetConfig
    seeds: Tuple[int, ...]
    pool_processes: int
    serial: Dict[int, InternetRunResult] = field(default_factory=dict)
    pooled: Dict[int, InternetRunResult] = field(default_factory=dict)
    #: Profiler summary from the serial arm's first seed (when
    #: profiling was requested).
    profile: Optional[Dict[str, Any]] = None

    @property
    def serial_seconds(self) -> float:
        return sum(run.seconds for run in self.serial.values())

    @property
    def pooled_seconds(self) -> float:
        return sum(run.seconds for run in self.pooled.values())

    @property
    def speedup(self) -> float:
        """Serial workload wall-clock over pooled (per-worker summed
        workload time stays comparable on a loaded box; the fan-out
        win shows on multi-core hosts)."""
        return self.serial_seconds / max(self.pooled_seconds, 1e-9)

    @property
    def identical(self) -> bool:
        """True when the serial and pooled sweeps produced
        byte-identical fingerprints on every seed."""
        return all(
            self.serial[seed].fingerprint()
            == self.pooled[seed].fingerprint()
            for seed in self.seeds
        )

    def rows(self) -> List[Sequence]:
        """Per-seed table rows for :func:`~repro.analysis.report.format_table`."""
        out: List[Sequence] = []
        for seed in self.seeds:
            serial, pooled = self.serial[seed], self.pooled[seed]
            out.append(
                (
                    seed,
                    serial.seconds,
                    pooled.seconds,
                    serial.events,
                    serial.state_size,
                    "yes"
                    if serial.fingerprint() == pooled.fingerprint()
                    else "NO",
                )
            )
        return out


def default_pool_processes(seed_count: int) -> int:
    """Pooled-arm size: at least two workers (so the pool path is
    actually exercised even on small hosts), at most one per seed."""
    return max(2, min(seed_count, os.cpu_count() or 1))


def run_internet_bench(
    config: Optional[InternetConfig] = None,
    seeds: Tuple[int, ...] = (0, 1),
    pool_processes: Optional[int] = None,
    profile: bool = False,
) -> InternetBenchResult:
    """Sweep the seeds serially and through the persistent pool, and
    compare fingerprints. With ``profile=True`` the serial arm's first
    seed runs with an :class:`EventLoopProfiler` attached (per-event
    overhead is two clock reads — the timed callbacks are entire
    converge/repair passes, so the arms stay comparable)."""
    if config is None:
        config = InternetConfig()
    publish_topology(config)
    processes = (
        default_pool_processes(len(seeds))
        if pool_processes is None
        else pool_processes
    )
    result = InternetBenchResult(
        config=config, seeds=tuple(seeds), pool_processes=processes
    )
    for index, seed in enumerate(seeds):
        run = run_internet_workload(
            config, seed, profile=profile and index == 0
        )
        if run.profile is not None:
            result.profile = run.profile
            run.profile = None
        result.serial[seed] = run
    for seed, run in zip(
        seeds, run_internet_seeds(seeds, config, processes=processes)
    ):
        result.pooled[seed] = run
    return result


def profile_top(
    summary: Dict[str, Any], count: int = 10
) -> List[Sequence]:
    """The profiler's hottest callbacks by total wall time — rows of
    (callback, events, total s, mean s, p99 s) for the bench table."""
    callbacks = summary.get("callbacks", {})
    ranked = sorted(
        callbacks.items(),
        key=lambda item: (-item[1].get("total_s", 0.0), item[0]),
    )
    rows: List[Sequence] = []
    for label, stats in ranked[:count]:
        rows.append(
            (
                label,
                stats.get("count", 0),
                stats.get("total_s", 0.0),
                stats.get("mean_s", 0.0),
                stats.get("p99_s", 0.0),
            )
        )
    return rows


def write_internet_report(
    result: InternetBenchResult, path: Path
) -> Dict:
    """Serialize the bench outcome to ``BENCH_internet.json``.

    The payload names its schema (``repro.bench.internet/v1``) and is
    validated against it before writing, so artifact drift fails the
    producer, not a downstream consumer.
    """
    config = result.config
    payload: Dict = {
        "schema": "repro.bench.internet/v1",
        "bench": "internet-scale-churn",
        "domains": config.domains,
        "topology_seed": config.topology_seed,
        "groups": config.total_groups,
        "group_domains": config.group_domains,
        "initial_members": config.initial_members,
        "churn_per_phase": config.churn_per_phase,
        "phases": config.phases,
        "maintain_every": config.maintain_every,
        "seeds": list(result.seeds),
        "pool_processes": result.pool_processes,
        "serial_seconds": round(result.serial_seconds, 6),
        "pooled_seconds": round(result.pooled_seconds, 6),
        "speedup": round(result.speedup, 3),
        "identical_fingerprints": result.identical,
        "per_seed": {
            str(seed): {
                "serial_seconds": round(result.serial[seed].seconds, 6),
                "pooled_seconds": round(result.pooled[seed].seconds, 6),
                "events": result.serial[seed].events,
                "repair_passes": len(result.serial[seed].repairs),
                "migrations": sum(
                    r[0] for r in result.serial[seed].repairs
                ),
                "rejoined": sum(
                    r[1] for r in result.serial[seed].repairs
                ),
                "pruned": sum(
                    r[2] for r in result.serial[seed].repairs
                ),
                "deliveries": sum(result.serial[seed].deliveries),
                "state_size": result.serial[seed].state_size,
                "forwarding_digest": result.serial[seed].final_digest,
                "rib_digest": result.serial[seed].rib_digest,
                "identical": result.serial[seed].fingerprint()
                == result.pooled[seed].fingerprint(),
            }
            for seed in result.seeds
        },
    }
    if result.profile is not None:
        payload["profile"] = {
            "events": result.profile["events"],
            "wall_seconds": round(result.profile["wall_seconds"], 6),
            "events_per_second": round(
                result.profile["events_per_second"], 3
            ),
            "top": [
                {
                    "callback": label,
                    "count": count,
                    "total_s": round(total, 6),
                    "mean_s": round(mean, 6),
                    "p99_s": round(p99, 6),
                }
                for label, count, total, mean, p99 in profile_top(
                    result.profile
                )
            ],
        }
    errors = validate(payload)
    if errors:
        raise ValueError(
            "BENCH_internet.json payload violates "
            "repro.bench.internet/v1: " + "; ".join(errors)
        )
    path.write_text(json.dumps(payload, indent=2) + "\n")
    return payload
