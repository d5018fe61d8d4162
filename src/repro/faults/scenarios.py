"""The world every fault run (chaos and soak) is built on.

:func:`figure3_chaos_scenario` builds the repo's reference chaos
setup: the paper's Figure 3 internetwork with multicast members in
domains F and H plus a MASC claim tree (parent MP, siblings M1/M2) on
the same simulator clock. Every declared fault candidate is
survivable by design, so post-recovery invariants must hold for any
schedule drawn from them — which is what the determinism tests, the
``repro trace chaos`` command and the soak chain all exercise.

The world itself comes from :mod:`repro.scenarios.fixtures`, the
shared builders the declarative scenario DSL and the test suites use;
this module only assembles them into a :class:`ChaosScenario` with
the survivable fault candidates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.faults.plan import FaultCandidate
from repro.scenarios.fixtures import (
    FIGURE3_GROUP,
    figure3_bgmp_network,
    small_masc_tree,
)
from repro.sim.engine import Simulator

__all__ = [
    "FIGURE3_CANDIDATES",
    "FIGURE3_GROUP",
    "ChaosScenario",
    "figure3_chaos_scenario",
]

#: Survivable faults: each link and router has a redundant path, and
#: the MASC nodes recover through failover and restart.
FIGURE3_CANDIDATES = (
    FaultCandidate("link", "F1", group="F", peer="B2"),
    FaultCandidate("router", "F2", group="F"),
    FaultCandidate("link", "H2", group="H", peer="C2"),
    FaultCandidate("router", "H1", group="H"),
    FaultCandidate("masc", "M1", group="masc-M1"),
    FaultCandidate("masc", "M2", group="masc-M2"),
)


@dataclass
class ChaosScenario:
    """Everything a fault run needs: the live components, the fault
    candidates to draw from, and the membership to verify after."""

    sim: Simulator
    candidates: Sequence[FaultCandidate]
    bgmp: object
    group: int
    source: object
    member_domains: Sequence
    masc_overlay: object
    masc_nodes: Sequence
    masc_siblings: Sequence[Sequence]


def figure3_chaos_scenario() -> ChaosScenario:
    """Figure 3 internetwork with members in F and H plus a MASC tree
    (parent MP, siblings M1/M2) on the same clock — every candidate
    fault is survivable by design."""
    sim = Simulator()
    network = figure3_bgmp_network(members=("F", "H"))
    topology = network.topology
    members = [topology.domain(name) for name in ("F", "H")]

    overlay, parent, siblings = small_masc_tree(sim)

    return ChaosScenario(
        sim=sim,
        candidates=FIGURE3_CANDIDATES,
        bgmp=network,
        group=FIGURE3_GROUP,
        source=topology.domain("E").host("s"),
        member_domains=members,
        masc_overlay=overlay,
        masc_nodes=[parent] + siblings,
        masc_siblings=[siblings],
    )
