"""Applies a :class:`~repro.faults.plan.FaultPlan` to live components.

The injector resolves the plan's string targets against the wired
components (a :class:`~repro.bgmp.network.BgmpNetwork` for the BGP /
BGMP layers, a :class:`~repro.masc.node.MascOverlay` plus its nodes
for the MASC layer) and schedules each fault on the simulator clock.

Recovery is part of the injection contract: after every fault that
perturbs the routing substrate, the injector schedules a recovery
pass ``recovery_delay`` later — reconverge BGP (``try_converge``, so
non-convergence is recorded rather than raised) and run the BGMP
tree-repair pass. Each pass is logged with its counters, which is
what the reconvergence analysis reads back out.

Fault hooks (``set_session_state``, ``fail_router``,
``restore_router``) feed the BGP engine's dirty sets and last-sent
caches directly, so a recovery converge only recomputes the speakers
the fault actually perturbed (updates are counted per *changed*
advertisement set, not per session-round — see
:class:`repro.bgp.network.BgpNetwork`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from repro.faults.plan import (
    DelayJitter,
    Fault,
    FaultPlan,
    Heal,
    LinkDown,
    LinkUp,
    MascCrash,
    MascRestart,
    MessageLoss,
    Partition,
    RouterCrash,
    RouterRestart,
)
from repro.sim.engine import Simulator
from repro.trace.tracer import NULL_TRACER


@dataclass(frozen=True)
class RecoveryRecord:
    """One recovery pass: when it ran and what it achieved."""

    time: float
    converged: bool
    rounds: int
    migrations: int
    rejoined: int


class FaultInjector:
    """Schedules faults (and their recovery passes) on the clock."""

    def __init__(
        self,
        sim: Simulator,
        bgmp=None,
        masc_overlay=None,
        masc_nodes: Optional[Iterable] = None,
        recovery_delay: float = 1.0,
        auto_recover: bool = True,
        tracer=None,
    ):
        self.sim = sim
        self.bgmp = bgmp
        self.overlay = masc_overlay
        self.recovery_delay = recovery_delay
        self.auto_recover = auto_recover
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.log: List[Tuple[float, str]] = []
        self.recoveries: List[RecoveryRecord] = []
        self.faults_applied = 0
        self._routers: Dict[str, object] = {}
        if bgmp is not None:
            for domain in bgmp.topology.domains:
                for router in domain.routers.values():
                    if router.name in self._routers:
                        raise ValueError(
                            f"ambiguous router name: {router.name}"
                        )
                    self._routers[router.name] = router
        self._masc_nodes: Dict[str, object] = {}
        for node in masc_nodes or ():
            if node.name in self._masc_nodes:
                raise ValueError(f"ambiguous MASC node: {node.name}")
            self._masc_nodes[node.name] = node

    # ------------------------------------------------------------------
    # Scheduling

    def schedule(self, plan: FaultPlan) -> int:
        """Put every fault of the plan on the simulator clock; returns
        the number of events scheduled (including recovery passes)."""
        scheduled = 0
        for fault in plan:
            self.sim.schedule_at(fault.time, self.apply, fault)
            scheduled += 1
            if self.auto_recover and self._perturbs_routing(fault):
                self.sim.schedule_at(
                    fault.time + self.recovery_delay, self.recover
                )
                scheduled += 1
        return scheduled

    @staticmethod
    def _perturbs_routing(fault: Fault) -> bool:
        return isinstance(
            fault, (LinkDown, LinkUp, RouterCrash, RouterRestart)
        )

    # ------------------------------------------------------------------
    # Application

    def apply(self, fault: Fault) -> None:
        """Apply one fault right now (also used directly by tests)."""
        with self.tracer.span(
            "fault.inject", layer="faults", fault=fault.describe()
        ):
            self._apply(fault)
        self.faults_applied += 1
        self.log.append((self.sim.now, fault.describe()))

    def _apply(self, fault: Fault) -> None:
        if isinstance(fault, LinkDown):
            self._set_link(fault.a, fault.b, up=False)
        elif isinstance(fault, LinkUp):
            self._set_link(fault.a, fault.b, up=True)
        elif isinstance(fault, RouterCrash):
            self._require_bgmp().handle_router_crash(
                self.router(fault.router)
            )
        elif isinstance(fault, RouterRestart):
            self._require_bgmp().handle_router_restart(
                self.router(fault.router)
            )
        elif isinstance(fault, MascCrash):
            self.masc_node(fault.node).crash()
        elif isinstance(fault, MascRestart):
            self.masc_node(fault.node).restart()
        elif isinstance(fault, Partition):
            self._partition(fault.side_a, fault.side_b, cut=True)
        elif isinstance(fault, Heal):
            self._partition(fault.side_a, fault.side_b, cut=False)
        elif isinstance(fault, MessageLoss):
            self._loss_window(fault)
        elif isinstance(fault, DelayJitter):
            self._jitter_window(fault)
        else:
            raise TypeError(f"unknown fault: {fault!r}")

    def recover(self) -> RecoveryRecord:
        """One recovery pass: reconverge BGP, repair BGMP trees."""
        bgmp = self._require_bgmp()
        with self.tracer.span("fault.recover", layer="faults") as span:
            result = bgmp.bgp.try_converge()
            counters = (
                bgmp.repair_trees()
                if result.converged
                else {"migrations": 0, "rejoined": 0}
            )
            record = RecoveryRecord(
                time=self.sim.now,
                converged=result.converged,
                rounds=result.rounds,
                migrations=counters["migrations"],
                rejoined=counters["rejoined"],
            )
            span.finish(
                status="converged" if result.converged else "diverged",
                rounds=result.rounds,
                migrations=record.migrations,
                rejoined=record.rejoined,
            )
        self.recoveries.append(record)
        self.log.append(
            (
                self.sim.now,
                f"recover converged={record.converged} "
                f"rounds={record.rounds} "
                f"migrations={record.migrations} "
                f"rejoined={record.rejoined}",
            )
        )
        return record

    # ------------------------------------------------------------------
    # Target resolution and layer-specific application

    def _require_bgmp(self):
        if self.bgmp is None:
            raise ValueError(
                "fault targets the BGP/BGMP layer but no BgmpNetwork "
                "is wired to the injector"
            )
        return self.bgmp

    def _require_overlay(self):
        if self.overlay is None:
            raise ValueError(
                "fault targets the MASC overlay but none is wired to "
                "the injector"
            )
        return self.overlay

    def router(self, name: str):
        """The border router named ``name``."""
        try:
            return self._routers[name]
        except KeyError:
            raise KeyError(f"unknown router: {name}") from None

    def masc_node(self, name: str):
        """The MASC node named ``name``."""
        try:
            return self._masc_nodes[name]
        except KeyError:
            raise KeyError(f"unknown MASC node: {name}") from None

    def _set_link(self, a: str, b: str, up: bool) -> None:
        bgmp = self._require_bgmp()
        bgmp.bgp.set_session_state(
            self.router(a), self.router(b), up=up
        )

    def _partition(self, side_a, side_b, cut: bool) -> None:
        overlay = self._require_overlay()
        for name_a in side_a:
            for name_b in side_b:
                node_a = self.masc_node(name_a)
                node_b = self.masc_node(name_b)
                if cut:
                    overlay.cut(node_a, node_b)
                else:
                    overlay.heal(node_a, node_b)

    # The window-end restores are bound methods (not local closures) so
    # a pending restore sitting in the event queue survives a
    # checkpoint (closures cannot cross the pickle boundary; see
    # repro.checkpoint).

    def _loss_window(self, fault: MessageLoss) -> None:
        overlay = self._require_overlay()
        previous = overlay.loss_rate
        overlay.loss_rate = fault.rate
        self.sim.schedule_at(fault.until, self._end_loss_window, previous)

    def _end_loss_window(self, previous: float) -> None:
        self._require_overlay().loss_rate = previous
        self.log.append((self.sim.now, "loss window over"))

    def _jitter_window(self, fault: DelayJitter) -> None:
        overlay = self._require_overlay()
        previous = overlay.jitter
        overlay.jitter = fault.jitter
        self.sim.schedule_at(fault.until, self._end_jitter_window, previous)

    def _end_jitter_window(self, previous: float) -> None:
        self._require_overlay().jitter = previous
        self.log.append((self.sim.now, "jitter window over"))
