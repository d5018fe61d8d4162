"""Routing information bases.

Each speaker keeps one :class:`LocRib`: the selected best route per key
after the decision process, patched one key at a time — an UPDATE
carries the keys that changed, and the decision process reruns for
exactly those. The G-RIB of the paper is the Loc-RIB filtered to
:attr:`RouteType.GROUP` with longest-match lookup. A speaker's
Adj-RIB-Ins are no class of their own: each is the plain dict its
peer advertises on the session, read in place (see
:mod:`repro.bgp.speaker` and :mod:`repro.bgp.network`).
"""

from __future__ import annotations

from typing import Dict, KeysView, List, Optional

from repro.addressing.ipv4 import ADDRESS_BITS, mask_bits
from repro.addressing.prefix import Prefix
from repro.bgp.routes import Key, Route, RouteType, key_for

#: The netmask of each mask length.
_MASKS = tuple(mask_bits(length) for length in range(ADDRESS_BITS + 1))


class LocRib:
    """Selected best routes, one per (network, length, type) key.

    The table is its own longest-match index: it counts its routes per
    (type, mask length), and :meth:`lookup` probes ``best`` once per
    length present, longest first. A route that moves costs one hash
    write, and the steady state (many lookups between decision rounds)
    pays a hash probe per distinct mask length instead of a scan.
    """

    def __init__(self) -> None:
        #: The selected route per key: read it directly, change it only
        #: through :meth:`install`, :meth:`remove` and :meth:`clear`,
        #: which keep the length counts in step.
        self.best: Dict[Key, Route] = {}
        #: type -> {mask length: routes of that type and length},
        #: longest first (the probe order of :meth:`lookup`).
        self._lengths: Dict[RouteType, Dict[int, int]] = {}

    def install(self, route: Route) -> None:
        """Install the winning route for its (type, prefix)."""
        key = route._key
        if key not in self.best:
            lengths = self._lengths.get(key[2])
            if lengths is not None and key[1] in lengths:
                lengths[key[1]] += 1
            else:  # a new length: keep the probe order longest first
                lengths = {**(lengths or {}), key[1]: 1}
                self._lengths[key[2]] = dict(sorted(lengths.items())[::-1])
        self.best[key] = route

    def remove(self, route_type: RouteType, prefix: Prefix) -> bool:
        """Drop the entry; True if one was present."""
        key = key_for(route_type, prefix)
        if self.best.pop(key, None) is None:
            return False
        lengths = self._lengths[route_type]
        lengths[key[1]] -= 1
        if not lengths[key[1]]:
            del lengths[key[1]]
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
        best = self.best
        for length in self._lengths.get(route_type, ()):
            route = best.get((address & _MASKS[length], length, route_type))
            if route is not None:
                return route
        return None

    def count(self, route_type: RouteType) -> int:
        """Number of routes of one type."""
        return sum(self._lengths.get(route_type, {}).values())

    def __len__(self) -> int:
        return len(self.best)

    def clear(self) -> None:
        """Drop everything (a crashed router's volatile state)."""
        self.best.clear()
        self._lengths.clear()

    def snapshot(self) -> Dict[Key, Route]:
        """A copy of the table (used by convergence checks)."""
        return dict(self.best)
