"""Membership-churn workload over the full MIGP -> BGMP -> G-RIB stack.

This module drives the whole architecture: hundreds to thousands of
groups with seeded join/leave/source-arrival processes over an
AS-graph internetwork, punctuated by *root flaps* — a group
domain withdraws its claimed /20, so every tree under it re-anchors to
the covering range's root domain, then re-anchors back when the /20
returns (the paper's "addresses could be obtained from the parent's
address space" dynamics under failure).

:attr:`ChurnConfig.internet` picks one of two shapes. By default (100
domains) the AS graph is a function of the workload seed and every
domain runs its default MIGP. The route-views shape
(:data:`ROUTE_VIEWS`, the paper's 3326 domains) builds its graph from
:data:`TOPOLOGY_SEED` alone, so seeds vary the schedule over the
*same* graph; it follows every root flap with a router fault (crash +
restore one transit border router); and every domain runs the static
MIGP with unicast auto-origination off — at this scale interior
dynamics are out of scope, and full unicast tables would be ~11M
routes modelling nothing the multicast layer reads.

The timed loop runs on a :class:`~repro.sim.engine.Simulator` under stable
event names (``churn.join``, ``churn.flap``, ...). Everything
observable — repair counters, per-phase forwarding digests, delivery
counts, control traffic — is a function of (config, seed) alone and
is folded into :meth:`ChurnRunResult.fingerprint`, which the
determinism tests pin across processes and the equivalence tests
compare against the recompute-everything oracle. Wall-clock timings
stay in the ``*seconds`` fields and never feed simulation state. A
seed sweep is ``parallel_map(partial(run_churn_workload, config),
seeds)``.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
import time
from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.addressing.prefix import Prefix
from repro.bgmp.network import BgmpNetwork
from repro.sim.engine import Simulator
from repro.sim.heap import collector_scope
from repro.topology.network import Topology
from repro.trace.metrics import collect_metrics


def _wall() -> float:
    return time.perf_counter()  # lint: disable=DET002 — wall-clock timing; reported beside the result, never in simulation state or the fingerprint


#: The range every group address lives under; its originating domain
#: is the fallback root while a more specific /20 is withdrawn.
COVERING_RANGE = Prefix((224 << 24), 4)
#: The route-views shape's AS graph seed (the paper's year).
TOPOLOGY_SEED = 1998
#: Members every group starts with, joined during untimed setup.
INITIAL_MEMBERS = 2


@dataclass(frozen=True)
class ChurnConfig:
    """Shape of one churn workload.

    ``group_domains`` domains each originate a /20 out of 224/4 and
    own ``groups_per_domain`` group addresses under it; domain 0
    originates the covering 224/4 so withdrawn ranges always have a
    fallback root. Each of the ``phases`` runs ``churn_per_phase``
    join/leave/send events, then a root flap: withdraw one /20,
    converge + repair, re-originate it, converge + repair again.
    ``internet`` selects the route-views shape (module docstring),
    which follows every flap with a router fault.
    """

    domains: int = 100
    group_domains: int = 24
    groups_per_domain: int = 40
    churn_per_phase: int = 40
    phases: int = 2
    #: A periodic maintenance sweep (``repair_trees``) runs after every
    #: this-many churn events — the steady-state timer-driven tree
    #: verification the paper's soft-state refresh implies: between
    #: flaps, membership churn dirties only the touched groups.
    maintain_every: int = 3
    internet: bool = False

    @property
    def total_groups(self) -> int:
        return self.group_domains * self.groups_per_domain


#: The route-views-scale run: the paper's 3326-domain AS graph.
ROUTE_VIEWS = ChurnConfig(
    domains=3326, group_domains=48, groups_per_domain=44,
    churn_per_phase=400, phases=2, maintain_every=25, internet=True,
)


def group_prefix(domain_id: int) -> Prefix:
    """The /20 a group domain claims (disjoint for ids < 2^16)."""
    return Prefix((224 << 24) | (domain_id << 12), 20)


def build_topology(config: ChurnConfig, seed: int) -> Topology:
    """The substrate: a route-views-like AS graph."""
    from repro.topology.generators import as_graph

    graph_seed = TOPOLOGY_SEED if config.internet else seed
    return as_graph(random.Random(graph_seed), node_count=config.domains)


def build_network(config: ChurnConfig, topology: Topology) -> BgmpNetwork:
    """The BGMP network over ``topology`` with the covering range and
    every group domain's /20 originated (not yet converged)."""
    static = (lambda _domain: "static") if config.internet else None
    network = BgmpNetwork(
        topology, migp_selector=static, auto_unicast=not config.internet
    )
    network.originate_group_range(topology.domains[0], COVERING_RANGE)
    for domain in topology.domains[1 : 1 + config.group_domains]:
        network.originate_group_range(
            domain, group_prefix(domain.domain_id)
        )
    return network


def build_schedule(config: ChurnConfig, seed: int) -> List[Tuple]:
    """The seeded event schedule.

    Events are plain tuples (picklable, comparable):

    - ``("join", domain_index, group, host)`` — a new member
    - ``("leave", domain_index, group, host)`` — an existing member
      (drawn from the live members, so every leave is valid)
    - ``("send", domain_index, group)`` — a source arrival
    - ``("repair",)`` — a periodic maintenance sweep
    - ``("flap", domain_index)`` — withdraw/restore that domain's /20
    - ``("fault", domain_index)`` — crash/restore that transit domain's
      border router (route-views shape only)

    Identical (config, seed) pairs produce identical schedules — the
    determinism the churn tests pin down.
    """
    if config.domains <= 1 + config.group_domains:
        raise ValueError(
            "churn config needs transit domains beyond the "
            f"{config.group_domains} group domains"
        )
    salt = 0x1A7E5CA1 if config.internet else 0x5EED
    rng = random.Random((seed << 8) ^ salt)
    groups: List[int] = [
        (224 << 24) | (index << 12) | offset
        for index in range(1, 1 + config.group_domains)
        for offset in range(config.groups_per_domain)
    ]
    schedule: List[Tuple] = []
    active: List[Tuple[int, int, str]] = []
    serials = itertools.count(1)

    def add_member(group: int) -> None:
        domain_index = rng.randrange(config.domains)
        host = f"h{next(serials)}"
        schedule.append(("join", domain_index, group, host))
        active.append((group, domain_index, host))

    for group in groups:
        for _ in range(INITIAL_MEMBERS):
            add_member(group)
    for _phase in range(config.phases):
        for step in range(config.churn_per_phase):
            roll = rng.random()
            if roll < 0.45 or not active:
                add_member(groups[rng.randrange(len(groups))])
            elif roll < 0.75:
                group, domain_index, host = active.pop(
                    rng.randrange(len(active))
                )
                schedule.append(("leave", domain_index, group, host))
            else:
                group = groups[rng.randrange(len(groups))]
                schedule.append(
                    ("send", rng.randrange(config.domains), group)
                )
            if (step + 1) % config.maintain_every == 0:
                schedule.append(("repair",))
        schedule.append(("flap", 1 + rng.randrange(config.group_domains)))
        if config.internet:
            transit = rng.randrange(1 + config.group_domains, config.domains)
            schedule.append(("fault", transit))
    return schedule


def schedule_digest(schedule: Sequence[Tuple]) -> str:
    """SHA-256 of the canonical schedule serialization."""
    payload = json.dumps(schedule, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


@dataclass
class ChurnRunResult:
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
    #: Full labelled metrics snapshot (includes the dirty-set
    #: counters, so it is compared across *processes*, not against the
    #: walk-everything oracle).
    metrics_json: str

    def fingerprint(self) -> Tuple:
        """Everything that must match across runs and against the
        oracle (not the time, not the dirty-set metrics)."""
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


def run_churn_workload(config: ChurnConfig, seed: int) -> ChurnRunResult:
    """Run one seeded schedule.

    Setup (topology build, originations, the initial convergence,
    initial joins, one draining repair) is reported as
    ``setup_seconds``, with the convergence alone as
    ``converge_seconds``; ``seconds`` covers exactly the
    simulator-driven churn + flap/fault loop. The run is one collector
    scope, whose exit collection lands outside every timing.
    """
    with collector_scope():
        return _run(config, seed)


def _run(config: ChurnConfig, seed: int) -> ChurnRunResult:
    entered = _wall()
    topology = build_topology(config, seed)
    network = build_network(config, topology)
    converge_started = _wall()
    network.converge()
    converge_seconds = _wall() - converge_started
    schedule = build_schedule(config, seed)
    boundary = config.total_groups * INITIAL_MEMBERS
    for _kind, domain_index, group, host in schedule[:boundary]:
        network.join(topology.domains[domain_index].host(host), group)
    # Drain the dirty set the setup joins accumulated so the timed
    # loop starts from a repaired steady state.
    network.repair_trees()

    repairs: List[Tuple[int, int, int]] = []
    phase_digests: List[str] = []
    deliveries: List[int] = []

    def repair() -> None:
        counters = network.repair_trees()
        repairs.append(tuple(
            counters[name] for name in ("migrations", "rejoined", "pruned")
        ))

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

    handlers = {"join": on_join, "leave": on_leave, "send": on_send,
                "repair": repair, "flap": on_flap, "fault": on_fault}
    sim = Simulator()
    for index, (kind, *args) in enumerate(schedule[boundary:]):
        sim.schedule_at(
            float(index), handlers[kind], *args, name=f"churn.{kind}"
        )
    started = _wall()
    executed = sim.run()
    seconds = _wall() - started

    routers = network.bgmp_routers()
    metrics = collect_metrics(bgp=network.bgp, bgmp=network)
    return ChurnRunResult(
        seed=seed,
        setup_seconds=started - entered,
        converge_seconds=converge_seconds,
        seconds=seconds,
        events=executed,
        schedule_sha=schedule_digest(schedule),
        repairs=repairs,
        phase_digests=phase_digests,
        final_digest=network.forwarding_digest(),
        rib_digest=network.bgp.rib_digest(),
        deliveries=deliveries,
        state_size=network.forwarding_state_size(),
        joins_sent=sum(b.joins_sent for b in routers),
        prunes_sent=sum(b.prunes_sent for b in routers),
        metrics_json=metrics.to_json(),
    )
