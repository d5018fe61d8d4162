"""The per-router BGP speaker.

Each border router runs one speaker. A speaker holds locally-originated
routes, one Adj-RIB-In per peering session (external sessions over the
router's inter-domain links plus an iBGP full mesh with the other
border routers of its domain), and a Loc-RIB computed by the standard
decision process.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.addressing.prefix import Prefix
from repro.bgp.policy import preference_for
from repro.bgp.rib import AdjRibIn, LocRib
from repro.bgp.routes import Route, RouteType
from repro.topology.domain import BorderRouter


class BgpSpeaker:
    """BGP state and decision process for one border router."""

    def __init__(self, router: BorderRouter):
        self.router = router
        self.loc_rib = LocRib()
        self._origins: Dict[Tuple[RouteType, Prefix], Route] = {}
        self._adj_in: Dict[BorderRouter, AdjRibIn] = {}
        #: Change listener (set by :class:`~repro.bgp.network.BgpNetwork`
        #: to drive its dirty sets): an object with ``speaker_dirty``
        #: and ``origins_changed`` methods, called whenever this
        #: speaker's decision inputs mutate. ``None`` for standalone
        #: speakers.
        self._listener = None

    def _mark_dirty(self) -> None:
        if self._listener is not None:
            self._listener.speaker_dirty(self)

    def _mark_origins_changed(self) -> None:
        if self._listener is not None:
            self._listener.origins_changed(self)

    def _captures_grib(self) -> bool:
        """True when the listener wants before/after Loc-RIB tables
        around every content change (the G-RIB delta stream). Capture
        is zero-copy on the recompute path, but the diff on change is
        not free, so it stays gated on an actual downstream
        consumer."""
        listener = self._listener
        return listener is not None and listener.captures_grib()

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
        if self._adj_in.pop(peer, None) is None:
            return False
        self._mark_dirty()
        return True

    def reset(self) -> None:
        """Crash recovery model: volatile state (Adj-RIB-Ins, Loc-RIB)
        is lost; configuration (locally-originated routes) survives and
        is re-announced on the next decision round."""
        old = (
            self.loc_rib.type_snapshot(RouteType.GROUP)
            if self._captures_grib() and len(self.loc_rib)
            else None
        )
        self._adj_in.clear()
        self.loc_rib.clear()
        if old:
            self._listener.grib_changed(self, old, {})
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
        self._mark_dirty()
        self._mark_origins_changed()
        return route

    def withdraw_origin(
        self, prefix: Prefix, route_type: RouteType = RouteType.GROUP
    ) -> bool:
        """Stop originating a route; True if it was originated here."""
        if self._origins.pop((route_type, prefix), None) is None:
            return False
        self._mark_dirty()
        self._mark_origins_changed()
        return True

    def origins(self) -> List[Route]:
        """All locally-originated routes."""
        return list(self._origins.values())

    # ------------------------------------------------------------------
    # Decision process

    def receive(self, peer: BorderRouter, route: Route) -> None:
        """Install a route into the peer's Adj-RIB-In (loop-checked)."""
        if not route.from_internal and route.has_loop(
            self.domain.domain_id
        ):
            return
        self.session_with(peer).update(route)
        self._mark_dirty()

    def replace_session_routes(
        self, peer: BorderRouter, routes: List[Route]
    ) -> None:
        """Wholesale replacement of a session's advertised set.

        Models the steady-state effect of UPDATE messages including
        implicit withdrawals: whatever the peer no longer advertises
        disappears.
        """
        rib = AdjRibIn(peer)
        self._adj_in[peer] = rib
        for route in routes:
            if not route.from_internal and route.has_loop(
                self.domain.domain_id
            ):
                continue
            rib.update(route)
        self._mark_dirty()

    def recompute(self) -> bool:
        """Run the decision process; True if the Loc-RIB changed.

        Selection per (type, prefix): local origin first, then highest
        local_pref, shortest AS path, eBGP over iBGP, and finally the
        lowest (domain id, router name) of the advertising router for a
        deterministic tie-break.
        """
        candidates: Dict[Tuple[RouteType, Prefix], List[Route]] = {}
        for route in self._origins.values():
            candidates.setdefault(route.key(), []).append(route)
        for rib in self._adj_in.values():
            for route in rib.routes():
                candidates.setdefault(route.key(), []).append(route)
        selected = {
            key: min(routes, key=self._rank)
            for key, routes in candidates.items()
        }
        if self._captures_grib():
            old = self.loc_rib.replace_capturing(selected)
            if old is not None:
                self._listener.grib_changed(self, old, selected)
            return old is not None
        return self.loc_rib.replace(selected)

    def _rank(self, route: Route) -> Tuple:
        if route.is_local_origin:
            return (0,)
        hop = route.next_hop
        return (
            1,
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
