"""Event-driven BGP.

:class:`EventDrivenBgp` runs the same speakers, decision process,
policies and aggregation as the synchronous :class:`BgpNetwork`, but
propagates routing information as timed UPDATE messages over the
discrete-event simulator: per-session link delays, incremental
announce/withdraw deltas, and MRAI-style batching (at most one pending
UPDATE per session).

Because delivery is reliable and in order (the paper's TCP peerings)
and the decision process is deterministic, a quiescent event-driven
run reaches exactly the fixpoint the synchronous engine computes — the
equivalence is asserted in the test suite. What this engine adds is
the *transient*: convergence time and message counts, which the bench
suite measures.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.addressing.prefix import Prefix
from repro.bgp.messages import UpdateMessage
from repro.bgp.network import BgpNetwork
from repro.bgp.policy import ExportPolicy
from repro.bgp.routes import Route, RouteType
from repro.bgp.speaker import BgpSpeaker
from repro.sim.engine import Simulator
from repro.topology.domain import BorderRouter
from repro.topology.network import Topology


class EventDrivenBgp(BgpNetwork):
    """BGP over the discrete-event simulator."""

    def __init__(
        self,
        topology: Topology,
        sim: Simulator,
        policy: Optional[ExportPolicy] = None,
        aggregate: bool = True,
        external_delay: float = 0.05,
        internal_delay: float = 0.01,
        mrai: float = 0.0,
    ):
        super().__init__(topology, policy=policy, aggregate=aggregate)
        self.sim = sim
        self.external_delay = external_delay
        self.internal_delay = internal_delay
        self.mrai = mrai
        #: Last advertised set per directed session, for delta updates.
        self._sent: Dict[
            Tuple[BorderRouter, BorderRouter],
            Dict[Tuple[RouteType, Prefix], Route],
        ] = {}
        #: Sessions with an export already scheduled (MRAI batching).
        self._pending_send: set = set()
        #: Counters.
        self.updates_sent = 0
        self.routes_announced = 0
        self.routes_withdrawn = 0

    # ------------------------------------------------------------------
    # Origination (schedules propagation instead of waiting for a
    # synchronous converge call)

    def inject(
        self,
        router: BorderRouter,
        prefix: Prefix,
        route_type: RouteType = RouteType.GROUP,
    ) -> Route:
        """Originate a route and kick off its propagation."""
        route = self.speaker(router).originate(prefix, route_type)
        self._recompute_and_cascade(self.speaker(router))
        return route

    def retract(
        self,
        router: BorderRouter,
        prefix: Prefix,
        route_type: RouteType = RouteType.GROUP,
    ) -> bool:
        """Withdraw a locally-originated route and propagate."""
        changed = self.speaker(router).withdraw_origin(prefix, route_type)
        if changed:
            self._recompute_and_cascade(self.speaker(router))
        return changed

    # ------------------------------------------------------------------
    # Event flow

    def _recompute_and_cascade(self, speaker: BgpSpeaker) -> None:
        if speaker.recompute():
            self._schedule_exports(speaker)

    def _schedule_exports(self, speaker: BgpSpeaker) -> None:
        router = speaker.router
        peers = list(router.external_neighbors) + router.internal_peers()
        for peer in peers:
            session = (router, peer)
            if session in self._pending_send:
                continue
            self._pending_send.add(session)
            self.sim.schedule(
                self.mrai, self._send_update, router, peer,
                name=f"bgp-send-{router.name}->{peer.name}",
            )

    def _send_update(self, router: BorderRouter, peer: BorderRouter) -> None:
        self._pending_send.discard((router, peer))
        speaker = self.speaker(router)
        exports = self._session_exports(speaker)
        routes = exports.get(peer, [])
        if peer.domain != router.domain:
            routes = self._localize(peer.domain, router.domain, routes)
            delay = self.external_delay
        else:
            delay = self.internal_delay
        current = {route.key(): route for route in routes}
        previous = self._sent.get((router, peer), {})
        update = UpdateMessage()
        for key, route in current.items():
            if previous.get(key) != route:
                update.announcements.append(route)
        for key in previous:
            if key not in current:
                update.withdrawals.append(key)
        self._sent[(router, peer)] = current
        if update.is_empty:
            return
        self.updates_sent += 1
        self.routes_announced += len(update.announcements)
        self.routes_withdrawn += len(update.withdrawals)
        self.sim.schedule(
            delay, self._deliver, router, peer, update,
            name=f"bgp-update-{router.name}->{peer.name}",
        )

    def _deliver(
        self,
        sender: BorderRouter,
        receiver: BorderRouter,
        update: UpdateMessage,
    ) -> None:
        speaker = self.speaker(receiver)
        for route in update.announcements:
            speaker.receive(sender, route)
        session = speaker.session_with(sender)
        for route_type, prefix in update.withdrawals:
            session.withdraw(route_type, prefix)
        self._recompute_and_cascade(speaker)

    # ------------------------------------------------------------------

    def run_to_quiescence(self, max_events: int = 1_000_000) -> float:
        """Drain all pending events; returns the convergence time (the
        clock advance up to the last event processed).

        Assumes the simulator carries only this engine's events (or
        that co-scheduled work is itself finite).
        """
        start = self.sim.now
        self.sim.run(max_events=max_events)
        if self.sim.pending:
            raise RuntimeError(
                f"BGP did not quiesce within {max_events} events"
            )
        return self.sim.now - start
