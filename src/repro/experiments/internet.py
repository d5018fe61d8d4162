"""Internet-scale workload: the full route-views AS graph under churn.

The churn workload runs at 100 domains; this one runs the whole
architecture at the paper's motivating scale — a
route-views-like AS graph of ~3300 domains, thousands of groups, with
membership churn punctuated by root flaps *and* router faults — and is
the workload the fast-path machinery (interned prefixes, incremental
forwarding digests, bitmask tree walks) exists for.

Structure mirrors :mod:`repro.experiments.churn` with three twists:

* **One topology, many seeds.** The AS graph is a function of
  ``topology_seed`` alone, *not* of the workload seed; every run
  builds its own copy (0.06 s at 3326 domains), so a run depends on
  nothing but its ``(config, seed)`` arguments.
* **Simulator-driven.** The timed loop schedules every churn event on
  a :class:`~repro.sim.Simulator` under a stable name
  (``internet.join``, ``internet.flap``, ...).
* **IGMP-only interiors.** Every domain runs the static MIGP: at
  3300+ domains the interior-protocol dynamics are out of scope (the
  100-domain churn workload covers them) and unicast auto-origination
  is disabled — full unicast tables at this scale would be ~11M routes
  modelling nothing the multicast layer reads here.

A run reports three wall-clock timings — ``setup_seconds`` (entry to
the start of the timed loop), ``converge_seconds`` (the initial BGP
convergence inside setup) and ``seconds`` (the loop) — none of which
feeds simulation state or the fingerprint; repeated, serial and pooled
runs of the same ``(config, seed)`` produce byte-identical
fingerprints. Per-layer time is ``bench/run.py --trace 1``'s job.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import List, Tuple

from repro.bgmp.network import BgmpNetwork
from repro.experiments.churn import (
    COVERING_RANGE,
    group_prefix,
    schedule_digest,
)
from repro.sim.engine import Simulator
from repro.topology.domain import Domain
from repro.topology.network import Topology


def _wall() -> float:
    return time.perf_counter()  # lint: disable=DET002 — wall-clock timing; reported beside the result, never in simulation state or the fingerprint


def static_migp_selector(domain: Domain) -> str:
    """Every domain is an IGMP-only stub at internet scale (module
    level so the config pickles into pool workers)."""
    return "static"


@dataclass(frozen=True)
class InternetConfig:
    """Shape of the internet-scale workload.

    The topology is a function of ``topology_seed`` and ``domains``
    only; workload seeds vary the schedule over the *same* graph.
    Each of the ``phases`` runs ``churn_per_phase``
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
    #: Wall-clock timings (nondeterministic, outside the fingerprint):
    #: entry to the start of the timed loop; the initial
    #: ``network.converge()`` inside that; the timed loop itself.
    setup_seconds: float
    converge_seconds: float
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
    config: InternetConfig, seed: int
) -> InternetRunResult:
    """Run one seeded internet-scale schedule.

    Setup (topology build, originations, the initial convergence,
    initial joins, one draining repair) is reported as
    ``setup_seconds``, with the convergence alone as
    ``converge_seconds``; ``seconds`` covers exactly the
    simulator-driven churn + flap/fault loop.
    """
    entered = _wall()
    topology = build_internet_topology(config)
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
    converge_started = _wall()
    network.converge()
    converge_seconds = _wall() - converge_started
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

    return InternetRunResult(
        seed=seed,
        setup_seconds=started - entered,
        converge_seconds=converge_seconds,
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
    )
