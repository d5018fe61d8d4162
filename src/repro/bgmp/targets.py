"""Forwarding-entry targets.

The paper's (\\*,G) entries hold a *parent target* and a list of
*child targets*; each target "identifies either a BGMP peer or an MIGP
component" (section 5.2). Data received from any target is forwarded to
every other target in the list.

Targets are owned, not interned: each
:class:`~repro.bgmp.router.BgmpRouter` builds its own
:class:`PeerTarget`, and :class:`~repro.bgmp.network.BgmpNetwork`
builds one :class:`MigpTarget` per domain, which all of the domain's
routers share. They compare and hash by identity, like the routers and
domains they name. A checkpoint pickles them with the routers that hold
them, so a restored world owns its own targets, shared as before.
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

    def __repr__(self) -> str:
        return f"MigpTarget({self.domain.name})"
