"""Shared scenario fixtures: the reference worlds tests build.

These builders centralize the setup previously copy-pasted across
``tests/bgmp/`` and ``tests/faults/``: the paper's Figure 3
internetwork with A originating the 224.0/16 group range, and the
small MASC claim tree (parent MP, siblings M1/M2) that shares a
simulator clock with it. The fault runs' world
(:meth:`repro.faults.soak.SoakHarness.build_world`) is both; the
scenario engine's TOML loader reaches the same worlds through
``builder = "figure3"`` plus ``[[group]]`` / ``[masc]`` declarations.

Construction order is part of the contract: the chaos determinism
suite fingerprints runs built through these helpers, so reordering
the setup steps is a behavior change even when the end state looks
identical.
"""

from __future__ import annotations

import random
from typing import List, Sequence, Tuple

from repro.addressing.prefix import Prefix
from repro.bgmp.network import BgmpNetwork
from repro.masc.config import MascConfig
from repro.masc.node import MascNode, MascOverlay
from repro.sim.engine import Simulator
from repro.topology.generators import paper_figure3_topology

#: The group members join in the Figure 3 fixtures (224.0.128.1).
FIGURE3_GROUP = 0xE0008001

#: The covering range domain A originates, making it the root domain.
FIGURE3_RANGE = "224.0.0.0/16"


def figure3_bgmp_network(
    members: Sequence[str] = (),
    group: int = FIGURE3_GROUP,
    root: str = "A",
    group_range: str = FIGURE3_RANGE,
) -> BgmpNetwork:
    """The Figure 3 internetwork with ``root`` rooting ``group_range``
    (A rooting 224.0/16 by default), converged, with one member host
    ``m`` joined per named domain.

    Raises ``RuntimeError`` if a setup join fails — fixture joins are
    preconditions, not assertions under test.
    """
    topology = paper_figure3_topology()
    network = BgmpNetwork(topology)
    network.originate_group_range(
        topology.domain(root), Prefix.parse(group_range)
    )
    network.converge()
    for name in members:
        host = topology.domain(name).host("m")
        if not network.join(host, group):
            raise RuntimeError(f"setup join failed in domain {name}")
    return network


def small_masc_tree(
    sim: Simulator,
    parent_name: str = "MP",
    sibling_names: Sequence[str] = ("M1", "M2"),
    delay: float = 0.1,
    waiting_period: float = 2.0,
    parent_bits: int = 8,
    sibling_bits: int = 16,
    settle: float = 5.0,
) -> Tuple[MascOverlay, MascNode, List[MascNode]]:
    """A parent MASC node plus claiming siblings on ``sim``'s clock.

    The parent claims a /``parent_bits`` first and the clock runs to
    ``settle`` so the claim confirms; then each sibling attaches and
    claims a /``sibling_bits`` out of the parent's space. Node RNGs are
    seeded by node id, so two builds replay identically.
    """
    overlay = MascOverlay(sim, delay=delay)
    config = MascConfig(
        claim_policy="first", waiting_period=waiting_period,
        reannounce_interval=None,
    )
    parent = MascNode(0, parent_name, overlay, config=config,
                      rng=random.Random(0))
    siblings = [
        MascNode(index, name, overlay, config=config,
                 rng=random.Random(index))
        for index, name in enumerate(sibling_names, start=1)
    ]
    parent.start_claim(parent_bits)
    sim.run(until=settle)
    for node in siblings:
        node.set_parent(parent)
        node.start_claim(sibling_bits)
    return overlay, parent, siblings
