"""Routes and path attributes.

A :class:`Route` binds an address prefix to the attributes BGP uses to
select and propagate it. The ``route_type`` realises the multiprotocol
extension the paper relies on (section 2): ``UNICAST`` routes form the
ordinary RIB, ``MRIB`` routes the multicast-topology view used for RPF
checks, and ``GROUP`` routes — injected by MASC — form the G-RIB that
BGMP consults to find a group's root domain.
"""

from __future__ import annotations

from enum import Enum
from typing import Dict, Optional, Tuple

from repro.addressing.prefix import Prefix
from repro.topology.domain import BorderRouter


class RouteType(str, Enum):
    """Logical routing-table view of a route (``str``: keys hash in C)."""

    UNICAST = "unicast"
    MRIB = "mrib"
    GROUP = "group"


#: The (network, mask length, type) triple routes are selected,
#: advertised and withdrawn per — the unit of work of the whole BGP
#: layer. Plain data, so it hashes and compares in C; its natural order
#: is the canonical one key sets are walked in, which is also the order
#: of the G-RIB delta stream. There is one tuple per (prefix, type),
#: shared by every route and lookup for the pair.
Key = Tuple[int, int, RouteType]

#: The shared keys, each its own dict key. Grows with the distinct
#: (prefix, type) pairs a process routes or looks up, like the prefix
#: intern cache.
_KEYS: Dict[Key, Key] = {}


def key_for(route_type: RouteType, prefix: Prefix) -> Key:
    """The key of a ``route_type`` route for ``prefix``."""
    key = (prefix._network, prefix._length, route_type)
    return _KEYS.setdefault(key, key)


class Route:
    """An immutable BGP route.

    ``next_hop`` is the border router to forward towards to reach the
    destination (for group routes: towards the root domain).
    ``as_path`` is the sequence of domain ids the advertisement has
    traversed, most recent first. ``local_pref`` ranks routes by the
    business relationship they were learned over (customer routes are
    preferred, per standard practice).
    """

    __slots__ = (
        "prefix",
        "route_type",
        "next_hop",
        "as_path",
        "local_pref",
        "from_internal",
        "learned_from",
        "_key",
    )

    def __init__(
        self,
        prefix: Prefix,
        route_type: RouteType,
        next_hop: Optional[BorderRouter],
        as_path: Tuple[int, ...] = (),
        local_pref: int = 100,
        from_internal: bool = False,
        learned_from: str = "origin",
    ):
        self.prefix = prefix
        self.route_type = route_type
        self.next_hop = next_hop
        self.as_path = tuple(as_path)
        self.local_pref = local_pref
        self.from_internal = from_internal
        #: Relationship of the owning domain to the domain this route was
        #: learned from ("origin" for locally-originated routes). Kept
        #: across iBGP redistribution so export policy can be applied at
        #: every border router of the domain.
        self.learned_from = learned_from
        key = (prefix._network, prefix._length, route_type)
        self._key = _KEYS.setdefault(key, key)

    @property
    def origin_domain_id(self) -> Optional[int]:
        """Domain id of the route's originator (last AS-path element)."""
        return self.as_path[-1] if self.as_path else None

    @property
    def is_local_origin(self) -> bool:
        """True for routes originated by this speaker's own domain."""
        return self.next_hop is None

    def key(self) -> Key:
        """The (network, length, type) triple routes are selected per
        (one tuple per (prefix, type), shared by every route for it)."""
        return self._key

    def advertised_by(
        self,
        router: BorderRouter,
        local_pref: int = 100,
        internal: bool = False,
        learned_from: str = "origin",
    ) -> "Route":
        """The route as received by a neighbour of ``router``.

        External advertisement prepends the advertiser's domain to the
        AS path and rewrites the next hop to the advertising router;
        internal (iBGP) redistribution keeps the AS path and points the
        next hop at the exit router. ``BgpNetwork._exports`` builds
        this form for a whole key list in one pass.
        """
        if internal:
            return Route(
                self.prefix,
                self.route_type,
                router,
                self.as_path,
                local_pref=self.local_pref,
                from_internal=True,
                learned_from=self.learned_from,
            )
        return Route(
            self.prefix,
            self.route_type,
            router,
            (router.domain.domain_id,) + self.as_path,
            local_pref=local_pref,
            from_internal=False,
            learned_from=learned_from,
        )

    def has_loop(self, domain_id: int) -> bool:
        """True if ``domain_id`` already appears in the AS path."""
        return domain_id in self.as_path

    def __eq__(self, other: object) -> bool:
        if other is self:
            return True
        if not isinstance(other, Route):
            return NotImplemented
        # The next hop first: routes from different peers differ there,
        # and routers compare by identity, unlike prefixes.
        return (
            self.next_hop == other.next_hop
            and self.as_path == other.as_path
            and self.local_pref == other.local_pref
            and self.from_internal == other.from_internal
            and self.learned_from == other.learned_from
            and self.route_type == other.route_type
            and self.prefix == other.prefix
        )

    def __hash__(self) -> int:
        return hash(
            (
                self.prefix,
                self.route_type,
                self.next_hop,
                self.as_path,
                self.local_pref,
                self.from_internal,
                self.learned_from,
            )
        )

    def __repr__(self) -> str:
        hop = self.next_hop.name if self.next_hop else "local"
        return (
            f"Route({self.prefix} [{self.route_type.value}] via {hop} "
            f"path={list(self.as_path)} pref={self.local_pref})"
        )
