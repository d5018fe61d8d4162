"""Event-driven BGP.

:class:`EventDrivenBgp` is a second *schedule* over the synchronous
:class:`BgpNetwork`'s machinery — same speakers, per-key decision
process, export function, table diff and batched delivery —
that propagates routing information as timed UPDATE messages over the
discrete-event simulator instead of in lock-step rounds: per-session
link delays and MRAI-style batching (at most one pending UPDATE per
session, carrying every key that moved meanwhile). Deliveries lag
sends, so a receiver does not read its sender's advertised table: each
session keeps the table delivered so far, patched as each UPDATE
arrives, and that is the receiver's view.

Because delivery is reliable and in order (the paper's TCP peerings)
and the decision process is deterministic, a quiescent event-driven
run reaches exactly the fixpoint the synchronous engine computes — the
equivalence is asserted in the test suite. What this engine adds is
the *transient*: convergence time and message counts, which the bench
suite measures.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from repro.addressing.prefix import Prefix
from repro.bgp.network import BgpNetwork, Session, mark_pending
from repro.bgp.policy import ExportPolicy
from repro.bgp.routes import Key, Route, RouteType
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
        #: Keys waiting to be exported on each directed session; a
        #: session with an entry has its send scheduled (MRAI batching).
        self._pending_send: Dict[Session, Optional[Set[Key]]] = {}
        #: Per session, what has arrived of the sender's advertised
        #: table: the receiver's view.
        self._delivered: Dict[Session, Dict[Key, Route]] = {}
        #: Counters.
        self.routes_announced = 0
        self.routes_withdrawn = 0
        # Nothing is originated yet: the fresh speakers have nothing to
        # export, so no send needs scheduling for them.
        self._export_dirty.clear()

    # ------------------------------------------------------------------
    # Origination and faults (schedule propagation instead of waiting
    # for a synchronous converge call)

    def inject(
        self,
        router: BorderRouter,
        prefix: Prefix,
        route_type: RouteType = RouteType.GROUP,
    ) -> Route:
        """Originate a route and kick off its propagation."""
        route = self.originate(router, prefix, route_type)
        self._propagate()
        return route

    def retract(
        self,
        router: BorderRouter,
        prefix: Prefix,
        route_type: RouteType = RouteType.GROUP,
    ) -> bool:
        """Withdraw a locally-originated route and propagate."""
        changed = self.withdraw(router, prefix, route_type)
        if changed:
            self._propagate()
        return changed

    def set_session_state(
        self, a: BorderRouter, b: BorderRouter, up: bool
    ) -> None:
        super().set_session_state(a, b, up)
        self._propagate()

    def fail_router(self, router: BorderRouter) -> None:
        super().fail_router(router)
        self._propagate()

    def restore_router(self, router: BorderRouter) -> None:
        super().restore_router(router)
        self._propagate()

    def _forget_session(self, a: BorderRouter, b: BorderRouter) -> None:
        super()._forget_session(a, b)
        self._delivered.pop((a, b), None)
        self._delivered.pop((b, a), None)

    # ------------------------------------------------------------------
    # Event flow

    def _propagate(self) -> None:
        """Rerun every pending decision of a live router, then schedule
        a send on each live session of every speaker left with keys to
        export; keys that move while a send is pending join it."""
        rank = {
            speaker: (speaker.domain.domain_id, speaker.router.name)
            for speaker in (*self._dirty, *self._export_dirty)
        }
        for speaker, keys in self._run_decisions(rank):
            router = speaker.router
            for peer in self._peers(router):
                if not self.session_up(router, peer):
                    continue
                session = (router, peer)
                if session not in self._pending_send:
                    self.sim.schedule(
                        self.mrai, self._send_update, router, peer,
                        name=f"bgp-send-{router.name}->{peer.name}",
                    )
                mark_pending(self._pending_send, session, keys)

    def _send_update(self, router: BorderRouter, peer: BorderRouter) -> None:
        keys = self._pending_send.pop((router, peer))
        if not self.session_up(router, peer):
            return
        # MRAI batching is per session, so every session keeps a
        # private advertised table here: there are no update groups.
        table = self._advertised.setdefault((router, peer), {})
        bests = self._best_routes(self.speaker(router), keys, [table])
        terms = self._session_terms(router, peer)
        changes = self._diff(table, self._exports(router, terms, bests))
        if not changes:
            return
        withdrawn = [route for _key, _held, route in changes].count(None)
        self.updates_sent += 1
        self.routes_announced += len(changes) - withdrawn
        self.routes_withdrawn += withdrawn
        delay = (
            self.internal_delay
            if peer.domain == router.domain
            else self.external_delay
        )
        self.sim.schedule(
            delay, self._deliver, router, peer, changes,
            name=f"bgp-update-{router.name}->{peer.name}",
        )

    def _deliver(
        self,
        sender: BorderRouter,
        receiver: BorderRouter,
        changes: List,
    ) -> None:
        # A session that went down took its UPDATEs in flight with it.
        if not self.session_up(sender, receiver):
            return
        table = self._delivered.setdefault((sender, receiver), {})
        arrived = []
        for key, _sent_over, route in changes:
            arrived.append((key, table.get(key), route))
            if route is None:
                table.pop(key, None)
            else:
                table[key] = route
        self.speaker(receiver).deliver(sender, table, arrived)
        self._propagate()

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
