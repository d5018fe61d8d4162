"""Forwarding-entry targets.

The paper's (\\*,G) entries hold a *parent target* and a list of
*child targets*; each target "identifies either a BGMP peer or an MIGP
component" (section 5.2). Data received from any target is forwarded to
every other target in the list.

Targets are interned: ``PeerTarget(r) is PeerTarget(r)``, so they
compare and hash by identity, like the routers and domains they name.
The intern table holds its targets weakly and is keyed by ``id()`` of
the router or domain, so it keeps no world alive: an entry lives only
as long as its target, which holds the object whose id it is, so that
id is not reused meanwhile. The table stays out of pickled state: a
target pickles as a call to its constructor, so a restored world builds
its own targets around its own routers and never aliases the captured
one.
"""

from __future__ import annotations

from weakref import WeakValueDictionary

from repro.topology.domain import BorderRouter, Domain


class Target:
    """Base class for forwarding targets."""

    __slots__ = ("__weakref__",)


class PeerTarget(Target):
    """A BGMP peer — a border router in a neighbouring domain."""

    __slots__ = ("router",)
    _interned: "WeakValueDictionary[int, PeerTarget]" = (
        WeakValueDictionary()
    )

    def __new__(cls, router: BorderRouter) -> "PeerTarget":
        target = cls._interned.get(id(router))
        if target is None:
            target = super().__new__(cls)
            target.router = router
            cls._interned[id(router)] = target
        return target

    def __reduce__(self):
        return (PeerTarget, (self.router,))

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
    _interned: "WeakValueDictionary[int, MigpTarget]" = (
        WeakValueDictionary()
    )

    def __new__(cls, domain: Domain) -> "MigpTarget":
        target = cls._interned.get(id(domain))
        if target is None:
            target = super().__new__(cls)
            target.domain = domain
            cls._interned[id(domain)] = target
        return target

    def __reduce__(self):
        return (MigpTarget, (self.domain,))

    def __repr__(self) -> str:
        return f"MigpTarget({self.domain.name})"
