"""The MIGP component abstraction.

One :class:`MigpComponent` per domain. It owns group membership inside
the domain, knows which border routers are attached to each group's
inter-domain tree, and moves data between a border router and the
domain interior. Concrete protocols override the injection hook to
model their data-path quirks (RPF encapsulation, RP registration) and
maintain their own control-cost counters.
"""

from __future__ import annotations

from bisect import bisect
from operator import attrgetter
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.topology.domain import BorderRouter, Domain, Host

#: Resolves the border router of ``domain`` with the best unicast route
#: towards ``target_domain`` (the RPF router for sources there).
UnicastResolver = Callable[[Domain, Domain], Optional[BorderRouter]]


class InjectionResult:
    """What happened when data was handed to the domain interior."""

    __slots__ = (
        "local_members",
        "forward_routers",
        "encapsulated",
        "decapsulating_router",
    )

    def __init__(
        self,
        local_members: int = 0,
        forward_routers: Optional[List[BorderRouter]] = None,
        encapsulated: bool = False,
        decapsulating_router: Optional[BorderRouter] = None,
    ):
        self.local_members = local_members
        self.forward_routers = forward_routers or []
        self.encapsulated = encapsulated
        self.decapsulating_router = decapsulating_router

    def __repr__(self) -> str:
        return (
            f"InjectionResult(members={self.local_members}, "
            f"forward={[r.name for r in self.forward_routers]}, "
            f"encapsulated={self.encapsulated})"
        )


class MigpComponent:
    """Base MIGP behaviour shared by all protocol models."""

    #: Protocol name, overridden by subclasses.
    name = "abstract"

    def __init__(
        self,
        domain: Domain,
        unicast_resolver: Optional[UnicastResolver] = None,
    ):
        self.domain = domain
        self._resolver = unicast_resolver
        self._members: Dict[int, Set[Host]] = {}
        #: Border routers on each group's tree, in name order; replaced,
        #: never mutated (a tuple holds no spare capacity).
        self._attached: Dict[int, Tuple[BorderRouter, ...]] = {}
        #: Control-plane cost counters (protocol-specific semantics).
        self.control_messages = 0
        self.encapsulations = 0
        self.floods = 0
        self.prunes = 0

    # ------------------------------------------------------------------
    # Membership

    def add_member(self, host: Host, group: int) -> bool:
        """Register a local group member; True if newly added."""
        if host.domain != self.domain:
            raise ValueError(
                f"{host!r} is not in domain {self.domain.name}"
            )
        members = self._members.setdefault(group, set())
        if host in members:
            return False
        members.add(host)
        self._on_membership_change(group, joined=True)
        return True

    def remove_member(self, host: Host, group: int) -> bool:
        """Remove a local member; True if it was present."""
        members = self._members.get(group)
        if not members or host not in members:
            return False
        members.remove(host)
        if not members:
            del self._members[group]
        self._on_membership_change(group, joined=False)
        return True

    def members_of(self, group: int) -> Set[Host]:
        """Current local members of a group."""
        return set(self._members.get(group, ()))

    def has_members(self, group: int) -> bool:
        """True when any local host has joined the group."""
        return bool(self._members.get(group))

    def member_groups(self) -> List[int]:
        """Groups with at least one local member (sorted); a group's
        entry goes when its last member leaves."""
        return sorted(self._members)

    def _on_membership_change(self, group: int, joined: bool) -> None:
        """Protocol hook: control traffic emitted on join/leave."""
        self.control_messages += 1

    # ------------------------------------------------------------------
    # Tree attachment (which border routers hold BGMP state)

    def attach(self, router: BorderRouter, group: int) -> None:
        """Mark a border router as on the group's inter-domain tree."""
        if router.domain != self.domain:
            raise ValueError(
                f"{router!r} is not in domain {self.domain.name}"
            )
        attached = self._attached.get(group, ())
        if router not in attached:
            at = bisect(attached, router.name, key=attrgetter("name"))
            self._attached[group] = attached[:at] + (router,) + attached[at:]

    def detach(self, router: BorderRouter, group: int) -> None:
        """Remove a border router from the group's attachment set."""
        attached = self._attached.get(group, ())
        if router in attached:
            at = attached.index(router)
            attached = attached[:at] + attached[at + 1:]
            if attached:
                self._attached[group] = attached
            else:
                del self._attached[group]

    def attached_routers(self, group: int) -> Set[BorderRouter]:
        """Border routers of this domain on the group's tree."""
        return set(self._attached.get(group, ()))

    # ------------------------------------------------------------------
    # Data path

    def rpf_router(self, source_domain: Domain) -> Optional[BorderRouter]:
        """The border router with the best unicast route towards the
        source's domain (what interior RPF checks point at)."""
        if self._resolver is None or source_domain == self.domain:
            return None
        return self._resolver(self.domain, source_domain)

    def inject(
        self,
        group: int,
        via: Optional[BorderRouter],
        source_domain: Optional[Domain],
    ) -> InjectionResult:
        """Hand a data packet to the domain interior.

        ``via`` is the border router the packet entered through (None
        when a local host sent it). The base behaviour delivers to
        local members and lists the *other* attached border routers
        that must also see the packet; protocol subclasses layer their
        data-path quirks on top.
        """
        forward = [r for r in self._attached.get(group, ()) if r is not via]
        return InjectionResult(
            local_members=len(self._members.get(group, ())),
            forward_routers=forward,
        )

    # ------------------------------------------------------------------
    # Join signalling

    def forward_join_cost(self) -> int:
        """Control messages spent carrying a join across the domain
        interior (protocol-specific; base charges one)."""
        self.control_messages += 1
        return 1

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.domain.name})"
