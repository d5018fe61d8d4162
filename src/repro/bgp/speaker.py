"""The per-router BGP speaker.

Each border router runs one speaker. A speaker holds locally-originated
routes, one Adj-RIB-In per peering session (external sessions over the
router's inter-domain links plus an iBGP full mesh with the other
border routers of its domain), and a Loc-RIB kept by the standard
decision process. The (type, prefix) key is the unit of work: every
mutation tells the listener which keys it touched, and
:meth:`BgpSpeaker.recompute` reselects exactly those.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from repro.addressing.prefix import Prefix
from repro.bgp.messages import UpdateMessage
from repro.bgp.policy import preference_for
from repro.bgp.rib import AdjRibIn, LocRib
from repro.bgp.routes import Key, Route, RouteType, key_order
from repro.topology.domain import BorderRouter


class BgpSpeaker:
    """BGP state and decision process for one border router."""

    def __init__(self, router: BorderRouter):
        self.router = router
        self.loc_rib = LocRib()
        self._origins: Dict[Key, Route] = {}
        self._adj_in: Dict[BorderRouter, AdjRibIn] = {}
        #: Change listener (set by :class:`~repro.bgp.network.BgpNetwork`
        #: to drive its dirty keys): an object with ``speaker_dirty``,
        #: ``origins_changed`` and ``grib_moved`` methods, called
        #: whenever this speaker's decision inputs, origin set or
        #: G-RIB change. ``None`` for standalone speakers.
        self._listener = None

    def _mark_dirty(self, keys: Optional[Iterable[Key]] = None) -> None:
        """Decision inputs under ``keys`` changed (None: under any)."""
        if self._listener is not None:
            self._listener.speaker_dirty(self, keys)

    def _mark_origin_changed(self, key: Key) -> None:
        if self._listener is not None:
            self._listener.speaker_dirty(self, (key,))
            self._listener.origins_changed(self, key)

    def _mark_grib_moved(self, key: Key, kind: str) -> None:
        if self._listener is not None and key[0] is RouteType.GROUP:
            self._listener.grib_moved(self, key[1], kind)

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
        from it is withdrawn (the Adj-RIB-In vanishes). True when a
        session existed."""
        rib = self._adj_in.pop(peer, None)
        if rib is None:
            return False
        self._mark_dirty(rib.keys())
        return True

    def reset(self) -> None:
        """Crash recovery model: volatile state (Adj-RIB-Ins, Loc-RIB)
        is lost; configuration (locally-originated routes) survives and
        is re-announced on the next decision round."""
        self._adj_in.clear()
        for key in sorted(self.loc_rib.keys(), key=key_order):
            self._mark_grib_moved(key, "withdrawn")
        self.loc_rib.clear()
        self._mark_dirty()

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
        self._origins[route.key()] = route
        self._mark_origin_changed(route.key())
        return route

    def withdraw_origin(
        self, prefix: Prefix, route_type: RouteType = RouteType.GROUP
    ) -> bool:
        """Stop originating a route; True if it was originated here."""
        if self._origins.pop((route_type, prefix), None) is None:
            return False
        self._mark_origin_changed((route_type, prefix))
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
        gone all the same. The keys that changed are dirtied at once."""
        routes = self.session_with(peer).routes
        domain_id = self.router.domain.domain_id
        changed: List[Key] = []
        for route in update.announcements:
            key = route.key()
            if route.from_internal or domain_id not in route.as_path:
                routes[key] = route
            elif routes.pop(key, None) is None:
                continue
            changed.append(key)
        for key in update.withdrawals:
            if routes.pop(key, None) is not None:
                changed.append(key)
        if changed:
            self._mark_dirty(changed)

    def receive(self, peer: BorderRouter, route: Route) -> None:
        """Deliver one announced route from ``peer``."""
        self.deliver(peer, UpdateMessage([route]))

    def recompute(self, keys: Optional[Iterable[Key]] = None) -> List[Key]:
        """Run the decision process for ``keys`` (None: for every key
        this speaker holds any route under) and patch the Loc-RIB;
        returns the keys whose best route moved, in canonical order.

        Selection per (type, prefix): local origin first, then highest
        local_pref, shortest AS path, eBGP over iBGP, and finally the
        lowest (domain id, router name) of the advertising router for a
        deterministic tie-break.
        """
        if keys is None:
            keys = set(self.loc_rib.keys()).union(
                self._origins, *(rib.keys() for rib in self._adj_in.values())
            )
        moved: List[Key] = []
        tables = [rib.routes for rib in self._adj_in.values()]
        for key in sorted(keys, key=key_order):
            best = self._origins.get(key)
            if best is None:
                learned = [
                    route
                    for table in tables
                    if (route := table.get(key)) is not None
                ]
                best = min(learned, key=self._rank) if learned else None
            old = self.loc_rib.get(*key)
            if best is old or best == old:
                continue
            if best is None:
                self.loc_rib.remove(*key)
                kind = "withdrawn"
            else:
                self.loc_rib.install(best)
                kind = "added" if old is None else "changed"
            moved.append(key)
            self._mark_grib_moved(key, kind)
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
