"""Routing information bases.

Each speaker keeps one :class:`AdjRibIn` per peering session (the routes
that peer advertised) and one :class:`LocRib` (the selected best route
per (type, prefix) after the decision process). The G-RIB of the paper
is the Loc-RIB filtered to :attr:`RouteType.GROUP` with longest-match
lookup.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.addressing.prefix import Prefix
from repro.addressing.trie import LpmTrie
from repro.bgp.routes import Route, RouteType
from repro.topology.domain import BorderRouter


def diff_type_entries(
    old: Dict[Tuple[RouteType, Prefix], Route],
    new: Dict[Tuple[RouteType, Prefix], Route],
    route_type: RouteType,
) -> List[Tuple[Prefix, str]]:
    """Content diff between two Loc-RIB snapshots for one route type.

    Returns ``(prefix, kind)`` pairs with kind one of ``"added"``,
    ``"withdrawn"`` or ``"changed"`` (the route object for the prefix
    differs — next hop, AS path, preference or provenance). This is
    the primitive behind the G-RIB delta stream that drives
    incremental BGMP tree maintenance; the pairs are sorted so delta
    consumers see a deterministic order.
    """
    deltas: List[Tuple[Prefix, str]] = []
    for key, route in old.items():
        kind, prefix = key
        if kind is not route_type:
            continue
        replacement = new.get(key)
        if replacement is None:
            deltas.append((prefix, "withdrawn"))
        elif replacement != route:
            deltas.append((prefix, "changed"))
    for key in new:
        kind, prefix = key
        if kind is not route_type:
            continue
        if key not in old:
            deltas.append((prefix, "added"))
    deltas.sort(key=lambda item: (item[0].network, item[0].length, item[1]))
    return deltas


class AdjRibIn:
    """Routes received from one peer, keyed by (type, prefix)."""

    def __init__(self, peer: BorderRouter):
        self.peer = peer
        self._routes: Dict[Tuple[RouteType, Prefix], Route] = {}

    def update(self, route: Route) -> None:
        """Install or replace the peer's route for its (type, prefix)."""
        self._routes[route.key()] = route

    def withdraw(self, route_type: RouteType, prefix: Prefix) -> bool:
        """Remove the peer's route; True if one was present."""
        return self._routes.pop((route_type, prefix), None) is not None

    def routes(self) -> List[Route]:
        """All routes from this peer."""
        return list(self._routes.values())

    def get(self, route_type: RouteType, prefix: Prefix) -> Optional[Route]:
        """The peer's route for (type, prefix), if any."""
        return self._routes.get((route_type, prefix))

    def __len__(self) -> int:
        return len(self._routes)

    def snapshot(self) -> Dict[Tuple[RouteType, Prefix], Route]:
        """A copy of the table (used by convergence checks)."""
        return dict(self._routes)


class LocRib:
    """Selected best routes, one per (type, prefix).

    Longest-match lookups go through a per-type :class:`LpmTrie` index
    built lazily on first use and dropped by any mutation, so the
    steady state (many lookups between decision rounds) pays a hash
    probe per distinct mask length instead of a scan over the table.
    """

    def __init__(self) -> None:
        self._routes: Dict[Tuple[RouteType, Prefix], Route] = {}
        self._lpm: Dict[RouteType, LpmTrie] = {}

    def install(self, route: Route) -> None:
        """Install the winning route for its (type, prefix)."""
        self._routes[route.key()] = route
        self._lpm.pop(route.route_type, None)

    def remove(self, route_type: RouteType, prefix: Prefix) -> bool:
        """Drop the entry; True if one was present."""
        if self._routes.pop((route_type, prefix), None) is None:
            return False
        self._lpm.pop(route_type, None)
        return True

    def replace(self, routes: Dict[Tuple[RouteType, Prefix], Route]) -> bool:
        """Swap in a freshly-selected table; True when the contents
        changed (the comparison the decision process reports)."""
        return self.replace_capturing(routes) is not None

    def replace_capturing(
        self, routes: Dict[Tuple[RouteType, Prefix], Route]
    ) -> Optional[Dict[Tuple[RouteType, Prefix], Route]]:
        """Like :meth:`replace`, but returns the pre-replacement table
        when the contents changed (``None`` when unchanged).

        Because the swap installs a fresh dict, the old one can be
        handed back without copying — the zero-cost capture the G-RIB
        delta stream rides on: no snapshots on the (overwhelmingly
        common) unchanged recompute, no copy on the changed one.
        """
        if routes == self._routes:
            return None
        old = self._routes
        self._routes = dict(routes)
        self._lpm.clear()
        return old

    def get(self, route_type: RouteType, prefix: Prefix) -> Optional[Route]:
        """Exact-prefix lookup."""
        return self._routes.get((route_type, prefix))

    def routes(self, route_type: Optional[RouteType] = None) -> List[Route]:
        """All routes, optionally filtered by type, in canonical
        (prefix, type) order — independent of insertion history."""
        found = [
            route
            for route in self._routes.values()
            if route_type is None or route.route_type is route_type
        ]
        return sorted(found, key=lambda r: (r.prefix, r.route_type.value))

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
            for (kind, prefix), route in self._routes.items():
                if kind is route_type:
                    index.insert(prefix, route)
            self._lpm[route_type] = index
        return index.lookup(address)

    def count(self, route_type: RouteType) -> int:
        """Number of routes of one type."""
        return sum(1 for kind, _prefix in self._routes if kind is route_type)

    def __len__(self) -> int:
        return len(self._routes)

    def clear(self) -> None:
        """Drop everything (used when recomputing from scratch)."""
        self._routes.clear()
        self._lpm.clear()

    def snapshot(self) -> Dict[Tuple[RouteType, Prefix], Route]:
        """A copy of the table (used by convergence checks)."""
        return dict(self._routes)

    def type_snapshot(
        self, route_type: RouteType
    ) -> Dict[Tuple[RouteType, Prefix], Route]:
        """A copy of just one type's entries.

        The G-RIB delta capture runs around every decision-process
        recompute, so it snapshots only the GROUP slice — a handful of
        group ranges instead of the full table — keeping capture cost
        negligible next to the recompute itself.
        """
        return {
            key: route
            for key, route in self._routes.items()
            if key[0] is route_type
        }
