"""Routing information bases.

Each speaker keeps one :class:`AdjRibIn` per peering session (the routes
that peer advertised) and one :class:`LocRib` (the selected best route
per key after the decision process). Both are patched one key at a
time — an UPDATE carries the keys that changed, and the decision
process reruns for exactly those. The G-RIB of the paper is
the Loc-RIB filtered to :attr:`RouteType.GROUP` with longest-match
lookup.
"""

from __future__ import annotations

from typing import Dict, KeysView, List, Optional

from repro.addressing.prefix import Prefix
from repro.addressing.trie import LpmTrie
from repro.bgp.routes import Key, Route, RouteType, key_for
from repro.topology.domain import BorderRouter


class AdjRibIn:
    """Routes received from one peer, keyed by (network, length, type)."""

    def __init__(self, peer: BorderRouter):
        self.peer = peer
        #: The table; delivery and the decision process use it directly.
        self.routes: Dict[Key, Route] = {}

    def update(self, route: Route) -> None:
        """Install or replace the peer's route for its (type, prefix)."""
        self.routes[route.key()] = route

    def withdraw(self, route_type: RouteType, prefix: Prefix) -> bool:
        """Remove the peer's route; True if one was present."""
        return self.routes.pop(key_for(route_type, prefix), None) is not None

    def keys(self) -> KeysView[Key]:
        """The keys the peer currently advertises."""
        return self.routes.keys()

    def get(self, route_type: RouteType, prefix: Prefix) -> Optional[Route]:
        """The peer's route for (type, prefix), if any."""
        return self.routes.get(key_for(route_type, prefix))

    def __len__(self) -> int:
        return len(self.routes)

    def snapshot(self) -> Dict[Key, Route]:
        """A copy of the table (used by convergence checks)."""
        return dict(self.routes)


class LocRib:
    """Selected best routes, one per (network, length, type) key.

    Longest-match lookups go through a per-type :class:`LpmTrie` index
    built on first use; from then on :meth:`install` and :meth:`remove`
    patch it in place, so a route that moves costs one hash write and
    the steady state (many lookups between decision rounds) pays a
    hash probe per distinct mask length instead of a scan over the
    table.
    """

    def __init__(self) -> None:
        #: The selected route per key: read it directly, change it only
        #: through :meth:`install`, :meth:`remove` and :meth:`clear`,
        #: which keep the lookup index in step.
        self.best: Dict[Key, Route] = {}
        self._lpm: Dict[RouteType, LpmTrie] = {}

    def install(self, route: Route) -> None:
        """Install the winning route for its (type, prefix)."""
        self.best[route._key] = route
        index = self._lpm.get(route.route_type)
        if index is not None:
            index.insert(route.prefix, route)

    def remove(self, route_type: RouteType, prefix: Prefix) -> bool:
        """Drop the entry; True if one was present."""
        if self.best.pop(key_for(route_type, prefix), None) is None:
            return False
        index = self._lpm.get(route_type)
        if index is not None:
            index.remove(prefix)
        return True

    def get(self, route_type: RouteType, prefix: Prefix) -> Optional[Route]:
        """Exact-prefix lookup."""
        return self.best.get(key_for(route_type, prefix))

    def keys(self) -> KeysView[Key]:
        """The keys that currently have a best route."""
        return self.best.keys()

    def routes(self, route_type: Optional[RouteType] = None) -> List[Route]:
        """All routes, optionally filtered by type, in canonical key
        order — independent of insertion history."""
        return [
            self.best[key]
            for key in sorted(self.best)
            if route_type is None or key[2] is route_type
        ]

    def group_routes(self) -> List[Route]:
        """The G-RIB: all group routes, sorted by prefix."""
        return self.routes(RouteType.GROUP)

    def lookup(self, route_type: RouteType, address: int) -> Optional[Route]:
        """Longest-prefix-match lookup for an address; with
        :attr:`RouteType.GROUP`, the operation BGMP performs to find
        the next hop towards a group's root domain."""
        index = self._lpm.get(route_type)
        if index is None:
            index = LpmTrie()
            for key, route in self.best.items():
                if key[2] is route_type:
                    index.insert(route.prefix, route)
            self._lpm[route_type] = index
        return index.lookup(address)

    def count(self, route_type: RouteType) -> int:
        """Number of routes of one type."""
        return sum(1 for key in self.best if key[2] is route_type)

    def __len__(self) -> int:
        return len(self.best)

    def clear(self) -> None:
        """Drop everything (a crashed router's volatile state)."""
        self.best.clear()
        self._lpm.clear()

    def snapshot(self) -> Dict[Key, Route]:
        """A copy of the table (used by convergence checks)."""
        return dict(self.best)
