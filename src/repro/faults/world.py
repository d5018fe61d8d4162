"""One world: the internetwork every scenario and fault run acts on.

A :class:`World` is one simulator clock carrying a topology with BGP
and BGMP on it, optionally a MASC claim tree, and the fault injector
and invariant sanitizer built over them. The scenario engine builds
one from a scenario file; the fault runs build the Figure 3 one
(:meth:`repro.faults.soak.SoakHarness.build_world`). Both settle,
read claims and are traced through the same three methods.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Sequence

from repro.faults.injector import FaultInjector
from repro.sanitizer.core import (
    InvariantSanitizer,
    check_members_reachable,
    check_no_overlapping_claims,
)
from repro.sim.engine import Simulator
from repro.trace.tracer import Tracer


class Probe(NamedTuple):
    """The delivery :meth:`World.settle` checks: a packet ``source``
    sends to ``group`` reaches every domain of ``members`` once."""

    group: int
    source: object
    members: Sequence


class World:
    """Topology, BGP and BGMP (``bgmp`` is None for a MASC-only
    world), the optional MASC overlay, nodes and sibling groups, and
    the injector and sanitizer built over them. The sanitizer checks
    the trees of ``groups``, and is attached to ``sim`` on return."""

    def __init__(
        self,
        sim: Simulator,
        bgmp=None,
        overlay=None,
        masc_nodes: Sequence = (),
        masc_siblings: Sequence[Sequence] = (),
        *,
        groups: Sequence[int] = (),
        probe: Optional[Probe] = None,
        recovery_delay: float = 1.0,
        check_every: int = 1,
        raise_on_violation: bool = True,
    ):
        self.sim = sim
        self.topology = bgmp.topology if bgmp is not None else None
        self.bgmp = bgmp
        self.overlay = overlay
        self.masc_nodes = tuple(masc_nodes)
        self.masc_siblings = tuple(tuple(s) for s in masc_siblings)
        self.probe = probe
        self.injector = FaultInjector(
            sim,
            bgmp=bgmp,
            masc_overlay=overlay,
            masc_nodes=self.masc_nodes,
            recovery_delay=recovery_delay,
        )
        self.sanitizer = InvariantSanitizer(
            bgmp=bgmp,
            groups=groups,
            masc_siblings=self.masc_siblings,
            check_every=check_every,
            raise_on_violation=raise_on_violation,
        ).attach(sim)

    def settle(self) -> None:
        """The one settle step every run ends with: a last recovery
        pass when the world has BGMP (late faults still get theirs),
        then the end checks in order — converged trees, loop-free
        trees, members reachable when the world carries a probe,
        sibling claims disjoint — each reported through the sanitizer
        (so a raising sanitizer raises, a recording one records)."""
        bgmp, sanitizer = self.bgmp, self.sanitizer
        if bgmp is not None:
            self.injector.recover()
        sanitizer.check_converged()
        sanitizer.check_loop_free()
        if self.probe is not None:
            sanitizer.report(
                "members-reachable",
                check_members_reachable(bgmp, *self.probe),
            )
        sanitizer.report(
            "claim-disjointness",
            check_no_overlapping_claims(self.masc_siblings),
        )

    def claim_tables(self) -> Dict[str, List[str]]:
        """Every MASC node's claimed prefixes, by node name."""
        return {
            node.name: [str(p) for p in node.claimed.prefixes()]
            for node in self.masc_nodes
        }

    def trace(self) -> Tracer:
        """Give every layer of this world one live tracer on its clock
        and return it (a world is built, and checkpointed, untraced)."""
        tracer = Tracer().bind_clock(self.sim)
        if self.bgmp is not None:
            self.bgmp.tracer = tracer
            self.bgmp.bgp.tracer = tracer
        for node in self.masc_nodes:
            node.tracer = tracer
        self.injector.tracer = tracer
        self.sanitizer.tracer = tracer
        return tracer
