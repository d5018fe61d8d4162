"""The per-router BGP speaker.

Each border router runs one speaker. A speaker holds locally-originated
routes, one Adj-RIB-In per peering session (external sessions over the
router's inter-domain links plus an iBGP full mesh with the other
border routers of its domain), and a Loc-RIB kept by the standard
decision process. The (network, length, type) key is the unit of
work: each mutation records the keys whose best route may move, and
:meth:`BgpSpeaker.recompute` settles exactly those.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.addressing.prefix import Prefix
from repro.bgp.messages import UpdateMessage
from repro.bgp.policy import preference_for
from repro.bgp.rib import AdjRibIn, LocRib
from repro.bgp.routes import Key, Route, RouteType, key_for
from repro.topology.domain import BorderRouter

#: A key with no decision due: its Loc-RIB entry stands.
_DECIDED = object()


class BgpSpeaker:
    """BGP state and decision process for one border router."""

    def __init__(self, router: BorderRouter):
        self.router = router
        self.loc_rib = LocRib()
        self._origins: Dict[Key, Route] = {}
        self._adj_in: Dict[BorderRouter, AdjRibIn] = {}
        #: The decisions due, per key: the new best route when the
        #: changes alone settle it, ``None`` when the key's Adj-RIB-Ins
        #: must be rescanned (its best left, or an origin moved).
        #: ``None`` in place of the map: every key is due.
        self._pending: Optional[Dict[Key, Optional[Route]]] = {}
        #: Change listener (set by :class:`~repro.bgp.network.BgpNetwork`
        #: to schedule decisions and exports): an object with
        #: ``decisions_due``, ``speaker_dirty``, ``key_lost``,
        #: ``origins_changed`` and ``grib_moved`` methods: decisions are
        #: due, volatile state or a key's last route was lost, the origin
        #: set changed, a G-RIB entry moved. ``None`` when standalone.
        self._listener = None

    def redecide_all(self) -> None:
        """Make every key's decision due: the next :meth:`recompute`
        rescans them all."""
        self._pending = None

    def _mark_origin_changed(self, key: Key) -> None:
        if self._pending is not None:
            self._pending[key] = None
        if self._listener is not None:
            self._listener.decisions_due(self)
            self._listener.origins_changed(self, key)

    @property
    def domain(self):
        """The speaker's domain."""
        return self.router.domain

    # ------------------------------------------------------------------
    # Sessions

    def session_with(self, peer: BorderRouter) -> AdjRibIn:
        """The Adj-RIB-In for ``peer``, created on first use."""
        rib = self._adj_in.get(peer)
        if rib is None:
            rib = AdjRibIn(peer)
            self._adj_in[peer] = rib
        return rib

    def peers(self) -> List[BorderRouter]:
        """Routers this speaker has sessions with."""
        return list(self._adj_in)

    def drop_session(self, peer: BorderRouter) -> bool:
        """Tear down the session with ``peer``: every route learned
        from it is withdrawn (the Adj-RIB-In vanishes), so only the
        keys it held the best route for are rescanned. True when a
        session existed."""
        rib = self._adj_in.get(peer)
        if rib is None:
            return False
        self.deliver(peer, UpdateMessage(withdrawals=list(rib.routes)))
        del self._adj_in[peer]
        return True

    def reset(self) -> None:
        """Crash recovery model: volatile state (Adj-RIB-Ins, Loc-RIB)
        is lost; configuration (locally-originated routes) survives and
        is re-announced on the next decision round."""
        self._adj_in.clear()
        self.redecide_all()
        listener = self._listener
        if listener is not None:
            for route in self.loc_rib.group_routes():
                listener.grib_moved(self, route.prefix, "withdrawn")
            listener.speaker_dirty(self)
        self.loc_rib.clear()

    # ------------------------------------------------------------------
    # Origination

    def originate(
        self, prefix: Prefix, route_type: RouteType = RouteType.GROUP
    ) -> Route:
        """Inject a locally-originated route (e.g. a MASC claim)."""
        route = Route(
            prefix,
            route_type,
            next_hop=None,
            as_path=(),
            local_pref=preference_for("origin"),
        )
        self._origins[route._key] = route
        self._mark_origin_changed(route._key)
        return route

    def withdraw_origin(
        self, prefix: Prefix, route_type: RouteType = RouteType.GROUP
    ) -> bool:
        """Stop originating a route; True if it was originated here."""
        key = key_for(route_type, prefix)
        if self._origins.pop(key, None) is None:
            return False
        self._mark_origin_changed(key)
        return True

    def origins(self) -> List[Route]:
        """All locally-originated routes."""
        return list(self._origins.values())

    # ------------------------------------------------------------------
    # Delivery and decision process

    def deliver(self, peer: BorderRouter, update: UpdateMessage) -> None:
        """Apply an UPDATE from ``peer`` to its Adj-RIB-In as one batch:
        each announced route replaces whatever the peer advertised under
        its key before, each withdrawal removes it, and so does an
        external route whose AS path already holds this domain — the
        peer's best path now runs through us, so its previous one is
        gone all the same. One notice says decisions are due; while
        every key is due already, nothing is weighed."""
        rib = self._adj_in.get(peer)
        if rib is None:
            rib = self._adj_in[peer] = AdjRibIn(peer)
        routes = rib.routes
        domain_id = self.router.domain.domain_id
        weigh = None if self._pending is None else self._weigh
        due = False
        for route in update.announcements:
            key = route._key
            if route.from_internal or domain_id not in route.as_path:
                displaced = routes.get(key)
                routes[key] = route
            else:
                displaced = routes.pop(key, None)
                if displaced is None:
                    continue
                route = None
            if weigh is not None and weigh(key, displaced, route):
                due = True
        for key in update.withdrawals:
            displaced = routes.pop(key, None)
            if displaced is not None and weigh is not None and weigh(
                key, displaced, None
            ):
                due = True
        if due and self._listener is not None:
            self._listener.decisions_due(self)

    def _weigh(
        self, key: Key, displaced: Optional[Route], route: Optional[Route]
    ) -> bool:
        """Weigh ``displaced`` replaced by ``route`` (either may be
        None) against the best so far — the settled route due, else the
        Loc-RIB's: a better route is settled as the new best, and a
        rescan is due only when that best is displaced. True when the
        best route may move. Only while not every key is due."""
        pending = self._pending
        best = pending.get(key, _DECIDED)
        if best is None:
            return False  # a rescan is already due
        if best is _DECIDED:
            best = self.loc_rib.best.get(key)
        if displaced is not None and displaced == best:
            pending[key] = None
        elif route is None or best is not None and (
            best.next_hop is None  # an origin beats every learned route
            or self._rank(route) >= self._rank(best)
        ):
            return False
        else:
            pending[key] = route
        return True

    def receive(self, peer: BorderRouter, route: Route) -> None:
        """Deliver one announced route from ``peer``."""
        self.deliver(peer, UpdateMessage([route]))

    def recompute(self) -> List[Key]:
        """Settle the decisions due and patch the Loc-RIB; returns the
        keys whose best route moved, in canonical order.

        Selection per (type, prefix): local origin first, then highest
        local_pref, shortest AS path, eBGP over iBGP, and finally the
        lowest (domain id, router name) of the advertising router for a
        deterministic tie-break. A key the delivered routes settled
        takes that route; any other key due rescans every Adj-RIB-In.
        """
        pending, origins = self._pending, self._origins
        installed = self.loc_rib.best
        self._pending = {}
        if pending is None:
            pending = dict.fromkeys(
                set(installed).union(
                    origins, *(rib.routes for rib in self._adj_in.values())
                )
            )
        listener = self._listener
        moved: List[Key] = []
        tables = None
        for key in sorted(pending):
            best = origins.get(key, pending[key])
            if best is None:
                if tables is None:
                    tables = [rib.routes for rib in self._adj_in.values()]
                learned = [
                    route
                    for table in tables
                    if (route := table.get(key)) is not None
                ]
                best = min(learned, key=self._rank) if learned else None
            old = installed.get(key)
            if best is old or (
                best is not None and old is not None and best == old
            ):
                continue
            if best is None:
                self.loc_rib.remove(old.route_type, old.prefix)
                kind = "withdrawn"
                if listener is not None:
                    listener.key_lost(self, key)
            else:
                self.loc_rib.install(best)
                kind = "added" if old is None else "changed"
            moved.append(key)
            if listener is not None and key[2] is RouteType.GROUP:
                listener.grib_moved(
                    self, (old if best is None else best).prefix, kind
                )
        return moved

    @staticmethod
    def _rank(route: Route) -> Tuple:
        """Preference order among learned routes (lowest wins)."""
        hop = route.next_hop
        return (
            -route.local_pref,
            len(route.as_path),
            1 if route.from_internal else 0,
            hop.domain.domain_id,
            hop.name,
        )

    # ------------------------------------------------------------------
    # Convenience lookups

    def grib_routes(self) -> List[Route]:
        """This router's G-RIB (best group routes, sorted by prefix)."""
        return self.loc_rib.group_routes()

    def grib_size(self) -> int:
        """Number of group routes in the Loc-RIB."""
        return self.loc_rib.count(RouteType.GROUP)

    def next_hop_for_group(self, group_address: int) -> Optional[Route]:
        """Longest-match G-RIB lookup for a group address."""
        return self.loc_rib.lookup(RouteType.GROUP, group_address)

    def __repr__(self) -> str:
        return f"BgpSpeaker({self.router.name})"
