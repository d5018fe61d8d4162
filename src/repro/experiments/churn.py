"""Membership-churn workload over the full MIGP -> BGMP -> G-RIB stack.

This module drives the whole architecture: hundreds to thousands of
groups with seeded join/leave/source-arrival processes over an
AS-graph internetwork, punctuated by *root flaps* — a group
domain withdraws its claimed /20, so every tree under it re-anchors to
the covering range's root domain, then re-anchors back when the /20
returns (the paper's "addresses could be obtained from the parent's
address space" dynamics under failure).

Everything observable — repair counters, per-flap forwarding digests,
delivery counts, control traffic — is a function of (config, seed)
alone and is folded into :meth:`ChurnRunResult.fingerprint`, which the
determinism tests pin across processes and the equivalence tests
compare against the recompute-everything oracle. Wall-clock timing is
inherently nondeterministic; it stays in the result's ``seconds`` and
never feeds simulation state.
"""

from __future__ import annotations

import functools
import hashlib
import json
import random
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.addressing.prefix import Prefix
from repro.bgmp.network import BgmpNetwork
from repro.experiments.runner import parallel_map
from repro.topology.network import Topology
from repro.trace.metrics import collect_metrics


def _wall() -> float:
    return time.perf_counter()  # lint: disable=DET002 — bench wall-clock timing; recorded in bench artifacts only, never in simulation state


#: The range every group address lives under; its originating domain
#: is the fallback root while a more specific /20 is withdrawn.
COVERING_RANGE = Prefix((224 << 24), 4)


@dataclass(frozen=True)
class ChurnConfig:
    """Shape of one churn workload.

    ``group_domains`` domains each originate a /20 out of 224/4 and
    own ``groups_per_domain`` group addresses under it; domain 0
    originates the covering 224/4 so withdrawn ranges always have a
    fallback root. Membership churn and source arrivals run between
    root flaps; every flap withdraws one /20, converges + repairs,
    re-originates it, and converges + repairs again.
    """

    domains: int = 100
    group_domains: int = 24
    groups_per_domain: int = 40
    initial_members: int = 2
    churn_per_flap: int = 40
    flaps: int = 2
    #: A periodic maintenance sweep (``repair_trees``) runs after every
    #: this-many churn events — the steady-state timer-driven tree
    #: verification the paper's soft-state refresh implies: between
    #: flaps, membership churn dirties only the touched groups.
    maintain_every: int = 3

    @property
    def total_groups(self) -> int:
        return self.group_domains * self.groups_per_domain


def group_prefix(domain_id: int) -> Prefix:
    """The /20 a group domain claims (disjoint for ids < 2^16)."""
    return Prefix((224 << 24) | (domain_id << 12), 20)


def build_churn_topology(seed: int, domains: int) -> Topology:
    """The churn substrate: a route-views-like AS graph."""
    from repro.topology.generators import as_graph

    return as_graph(random.Random(seed), node_count=domains)


def build_churn_schedule(
    config: ChurnConfig, seed: int
) -> List[Tuple]:
    """The seeded event schedule.

    Events are plain tuples (picklable, comparable):

    - ``("join", domain_index, group, host)`` — a new member
    - ``("leave", domain_index, group, host)`` — an existing member
      (generated against a shadow membership model, so every leave is
      valid)
    - ``("send", domain_index, group)`` — a source arrival
    - ``("repair",)`` — a periodic maintenance sweep
    - ``("flap", domain_index)`` — withdraw/restore that domain's /20

    Identical (config, seed) pairs produce identical schedules — the
    determinism the churn tests pin down.
    """
    rng = random.Random((seed << 8) ^ 0x5EED)
    group_domain_indexes = list(range(1, 1 + config.group_domains))
    groups: List[Tuple[int, int]] = []
    for index in group_domain_indexes:
        base = (224 << 24) | (index << 12)
        for offset in range(config.groups_per_domain):
            groups.append((index, base | offset))
    schedule: List[Tuple] = []
    members: Dict[Tuple[int, int], List[str]] = {}
    active: List[Tuple[int, int, str]] = []
    serial = 0

    def add_member(group: int) -> None:
        nonlocal serial
        domain_index = rng.randrange(config.domains)
        serial += 1
        host = f"h{serial}"
        schedule.append(("join", domain_index, group, host))
        members.setdefault((group, domain_index), []).append(host)
        active.append((group, domain_index, host))

    for _owner, group in groups:
        for _ in range(config.initial_members):
            add_member(group)
    for _flap in range(config.flaps):
        for step in range(config.churn_per_flap):
            roll = rng.random()
            if roll < 0.45 or not active:
                _owner, group = groups[rng.randrange(len(groups))]
                add_member(group)
            elif roll < 0.75:
                index = rng.randrange(len(active))
                group, domain_index, host = active.pop(index)
                members[(group, domain_index)].remove(host)
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
    return schedule


def schedule_digest(schedule: Sequence[Tuple]) -> str:
    """SHA-256 of the canonical schedule serialization."""
    payload = json.dumps(schedule, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


@dataclass
class ChurnRunResult:
    """One run over one seed's churn schedule."""

    seed: int
    seconds: float
    schedule_sha: str
    #: (migrations, rejoined, pruned) for every repair pass, in order.
    repairs: List[Tuple[int, int, int]]
    #: Forwarding digest after each flap completed (withdraw+restore).
    flap_digests: List[str]
    final_digest: str
    rib_digest: str
    deliveries: List[int]
    state_size: int
    joins_sent: int
    prunes_sent: int
    #: Full labelled metrics snapshot (includes the dirty-set
    #: counters, so it is compared across *processes*, not against the
    #: walk-everything oracle).
    metrics_json: str = ""

    def fingerprint(self) -> Tuple:
        """Everything that must match across runs and against the
        oracle (not the time, not the dirty-set metrics)."""
        return (
            self.schedule_sha,
            tuple(self.repairs),
            tuple(self.flap_digests),
            self.final_digest,
            self.rib_digest,
            tuple(self.deliveries),
            self.state_size,
            self.joins_sent,
            self.prunes_sent,
        )


def run_churn_workload(config: ChurnConfig, seed: int) -> ChurnRunResult:
    """Run one seeded churn schedule.

    Setup (originations, initial joins, the draining repair) is
    untimed and the clock covers exactly the churn + flap/repair loop.
    """
    topology = build_churn_topology(seed, config.domains)
    network = BgmpNetwork(topology)
    covering_domain = topology.domains[0]
    network.originate_group_range(covering_domain, COVERING_RANGE)
    group_domains = topology.domains[1 : 1 + config.group_domains]
    for domain in group_domains:
        network.originate_group_range(
            domain, group_prefix(domain.domain_id)
        )
    network.converge()
    schedule = build_churn_schedule(config, seed)
    sha = schedule_digest(schedule)
    setup: List[Tuple] = []
    timed: List[Tuple] = []
    boundary = config.total_groups * config.initial_members
    for index, event in enumerate(schedule):
        (setup if index < boundary else timed).append(event)
    for event in setup:
        _kind, domain_index, group, host = event
        network.join(
            topology.domains[domain_index].host(host), group
        )
    # Drain the dirty set the setup joins accumulated so the timed
    # loop starts from a repaired steady state.
    network.repair_trees()

    repairs: List[Tuple[int, int, int]] = []
    flap_digests: List[str] = []
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

    started = _wall()
    for event in timed:
        kind = event[0]
        if kind == "join":
            _kind, domain_index, group, host = event
            network.join(
                topology.domains[domain_index].host(host), group
            )
        elif kind == "leave":
            _kind, domain_index, group, host = event
            network.leave(
                topology.domains[domain_index].host(host), group
            )
        elif kind == "send":
            _kind, domain_index, group = event
            report = network.send(
                topology.domains[domain_index].host("src"), group
            )
            deliveries.append(report.total_deliveries)
        elif kind == "repair":
            repair()
        else:  # flap
            _kind, domain_index = event
            domain = topology.domains[domain_index]
            prefix = group_prefix(domain.domain_id)
            network.bgp.withdraw(domain.router(), prefix)
            network.converge()
            repair()
            network.originate_group_range(domain, prefix)
            network.converge()
            repair()
            flap_digests.append(network.forwarding_digest())
    seconds = _wall() - started

    metrics = collect_metrics(bgp=network.bgp, bgmp=network)
    return ChurnRunResult(
        seed=seed,
        seconds=seconds,
        schedule_sha=sha,
        repairs=repairs,
        flap_digests=flap_digests,
        final_digest=network.forwarding_digest(),
        rib_digest=network.bgp.rib_digest(),
        deliveries=deliveries,
        state_size=network.forwarding_state_size(),
        joins_sent=sum(
            b.joins_sent for b in network.bgmp_routers()
        ),
        prunes_sent=sum(
            b.prunes_sent for b in network.bgmp_routers()
        ),
        metrics_json=metrics.to_json(),
    )


def run_churn_seeds(
    seeds: Sequence[int],
    config: Optional[ChurnConfig] = None,
    processes: Optional[int] = None,
) -> List[ChurnRunResult]:
    """Run the churn workload across seeds through the parallel
    runner (order-preserving; ``processes=1`` forces serial)."""
    if config is None:
        config = ChurnConfig()
    worker = functools.partial(run_churn_workload, config)
    return parallel_map(worker, list(seeds), processes=processes)
