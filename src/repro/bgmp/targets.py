"""Forwarding-entry targets.

The paper's (\\*,G) entries hold a *parent target* and a list of
*child targets*; each target "identifies either a BGMP peer or an MIGP
component" (section 5.2). Data received from any target is forwarded to
every other target in the list.
"""

from __future__ import annotations

from repro.topology.domain import BorderRouter, Domain


class Target:
    """Base class for forwarding targets."""

    __slots__ = ()


class PeerTarget(Target):
    """A BGMP peer — a border router in a neighbouring domain."""

    __slots__ = ("router",)

    def __init__(self, router: BorderRouter):
        self.router = router

    def __eq__(self, other: object) -> bool:
        if other is self:
            return True
        if not isinstance(other, PeerTarget):
            return NotImplemented
        return self.router is other.router or self.router == other.router

    def __hash__(self) -> int:
        return hash(("peer", self.router))

    def __repr__(self) -> str:
        return f"PeerTarget({self.router.name})"


class MigpTarget(Target):
    """The MIGP component of the router's own domain.

    Appears as a parent target on a non-exit border router (the path to
    the root domain continues through the domain's interior to the best
    exit router) and as a child target wherever internal members or
    internal tree routers need the data.
    """

    __slots__ = ("domain",)

    def __init__(self, domain: Domain):
        self.domain = domain

    def __eq__(self, other: object) -> bool:
        if other is self:
            return True
        if not isinstance(other, MigpTarget):
            return NotImplemented
        return self.domain is other.domain or self.domain == other.domain

    def __hash__(self) -> int:
        return hash(("migp", self.domain))

    def __repr__(self) -> str:
        return f"MigpTarget({self.domain.name})"
