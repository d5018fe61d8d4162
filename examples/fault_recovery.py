"""Fault injection and recovery across all three layers, end to end.

Builds the Figure 3 internetwork with a member in the multihomed
domain F, then drives two failure episodes on the simulator clock —
a crash of F's active exit router and a flap of its recovered uplink
— while a probe stream measures the service blackout. Alongside, a
small MASC tree rides out a message-loss window through renewal
backoff. Finishes with the chaos invariants: loop-free trees,
members reachable, no overlapping sibling claims.

Run:  python examples/fault_recovery.py
"""

import random

from repro.addressing.ipv4 import format_address, parse_address
from repro.addressing.prefix import Prefix
from repro.analysis.reconvergence import ReconvergenceProbe
from repro.bgmp.network import BgmpNetwork
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.masc.config import MascConfig
from repro.masc.messages import RenewalMessage
from repro.masc.node import MascNode, MascOverlay
from repro.sanitizer.core import (
    check_loop_free_trees,
    check_members_reachable,
    check_no_overlapping_claims,
)
from repro.sim.engine import Simulator
from repro.topology.generators import paper_figure3_topology

GROUP = parse_address("224.0.128.1")


def bgmp_episode() -> None:
    print("== BGMP: crash and flap of domain F's exits ==")
    topology = paper_figure3_topology()
    network = BgmpNetwork(topology)
    network.originate_group_range(
        topology.domain("A"), Prefix.parse("224.0.0.0/16")
    )
    network.converge()
    member = topology.domain("F")
    network.join(member.host("m"), GROUP)
    print(f"member F joins {format_address(GROUP)} via "
          f"{', '.join(r.name for r in network.tree_routers(GROUP))}")

    sim = Simulator()
    injector = FaultInjector(sim, bgmp=network, recovery_delay=1.0)
    plan = (
        FaultPlan()
        .crash_router("F2", at=2.0, restart_after=4.0)
        .fail_link("F1", "B2", at=10.0, repair_after=3.0)
    )
    injector.schedule(plan)
    probe = ReconvergenceProbe(
        sim, network, GROUP,
        source=topology.domain("E").host("s"),
        member_domains=[member],
        interval=0.25,
    )
    probe.start(until=16.0)
    sim.run(until=16.0)

    for when, line in injector.log:
        print(f"  t={when:5.2f}  {line}")
    for fault_time, label in ((2.0, "crash F2"), (10.0, "flap F1-B2")):
        report = probe.report(fault_time, injector.recoveries)
        ttr = report.time_to_reconverge
        print(f"  {label}: time-to-reconverge="
              f"{'-' if ttr is None else format(ttr, '.2f')} "
              f"lost={report.probes_lost}/{report.probes_sent} "
              f"drops={report.drops} dup={report.duplicates}")

    violations = check_loop_free_trees(network, GROUP)
    violations += check_members_reachable(
        network, GROUP, topology.domain("E").host("s"), [member]
    )
    print(f"  invariants: "
          f"{'all hold' if not violations else violations}")


def masc_episode() -> None:
    print("== MASC: renewal rides out a lossy window ==")
    sim = Simulator()
    overlay = MascOverlay(sim, delay=0.1)
    config = MascConfig(
        claim_policy="first", waiting_period=4.0,
        reannounce_interval=None, auto_renew=True,
        renew_lead=24.0, renew_ack_timeout=1.0,
    )
    parent = MascNode(0, "P", overlay, config=config,
                      rng=random.Random(0))
    children = [
        MascNode(i, f"C{i}", overlay, config=config,
                 rng=random.Random(i))
        for i in (1, 2)
    ]
    parent.start_claim(8)
    sim.run(until=10.0)
    for child in children:
        child.set_parent(parent)
    prefix = children[0].start_claim(16, lifetime=100.0)
    children[1].start_claim(16, lifetime=100.0)
    sim.run(until=20.0)
    lease = children[0].claimed.get(prefix)
    print(f"  C1 holds {prefix} until t={lease.expires_at:g}")

    # Drop the first two renewal attempts; backoff carries the third.
    lost = []
    overlay.drop_filter = lambda src, dst, m: (
        isinstance(m, RenewalMessage) and len(lost) < 2
        and lost.append(m) is None
    )
    sim.run(until=lease.expires_at + 50.0)
    children[0].expire()
    held = prefix in children[0].claimed.prefixes()
    print(f"  {len(lost)} renewals lost, "
          f"{children[0].renewal_retries} retries, "
          f"lease {'still held' if held else 'LOST'} at "
          f"t={sim.now:g}")
    violations = check_no_overlapping_claims([children])
    print(f"  sibling claims: "
          f"{'disjoint' if not violations else violations}")


def main() -> None:
    bgmp_episode()
    print()
    masc_episode()


if __name__ == "__main__":
    main()
