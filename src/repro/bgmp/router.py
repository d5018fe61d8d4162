"""The BGMP component of a border router.

Implements section 5 of the paper: (\\*,G) shared-tree state keyed by
the G-RIB (joins propagate hop-by-hop towards the group's root
domain), bidirectional data forwarding (send to every target except
the arrival target), and source-specific (S,G) branches that stop at
the shared tree or the source domain.

The control plane is synchronous method calls between
:class:`BgmpRouter` objects (the TCP peerings of the paper carry the
same information reliably and in order); counters record the control
traffic volume.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional

from repro.bgmp.entries import ForwardingEntry, ForwardingTable
from repro.bgmp.targets import MigpTarget, PeerTarget, Target
from repro.bgp.routes import Route
from repro.topology.domain import BorderRouter, Domain

if TYPE_CHECKING:
    from repro.bgmp.network import BgmpNetwork, DeliveryReport
    from repro.migp.base import MigpComponent


class BgmpRouter:
    """BGMP state machine for one border router."""

    def __init__(
        self,
        router: BorderRouter,
        network: "BgmpNetwork",
        migp: "MigpComponent",
        interior: MigpTarget,
    ):
        self.router = router
        self.network = network
        #: The router's domain, its MIGP component and its BGP speaker,
        #: resolved once instead of per hop.
        self.domain: Domain = router.domain
        self.migp = migp
        self.speaker = network.bgp.speaker(router)
        #: The two targets this router is known by: its own, to its
        #: BGMP peers in other domains, and its domain's, shared by the
        #: routers of the domain (whose MIGP child or parent target it
        #: is).
        self.as_peer = PeerTarget(router)
        self.interior = interior
        self.table = ForwardingTable()
        #: Control-plane counters.
        self.joins_sent = 0
        self.prunes_sent = 0

    def entry_changed(self, group: int) -> None:
        """Forwarding-table ``on_change`` adapter: forward to the
        network with this router's domain attached (the table itself
        does not know whose it is)."""
        self.network.entry_changed(self.domain, group)

    # ------------------------------------------------------------------
    # G-RIB helpers

    def group_route(self, group: int) -> Optional[Route]:
        """This router's best group route covering ``group``."""
        return self.speaker.next_hop_for_group(group)

    def _parent_target(self, route: Optional[Route]) -> Optional[Target]:
        """The next hop towards the group's root domain, given this
        router's group route.

        An external next hop is a BGMP peer; an internal next hop (the
        best exit router) is reached through the MIGP. In the root
        domain itself the parent target is the MIGP component ("since
        it has no BGP next hop").
        """
        if route is None:
            return None
        if route.is_local_origin:
            return self.interior
        if route.next_hop.domain is self.domain or route.from_internal:
            return self.interior
        return self.network.router_of(route.next_hop).as_peer

    # ------------------------------------------------------------------
    # Shared-tree joins and prunes

    def join(
        self, group: int, child: Target, route: Optional[Route] = None
    ) -> bool:
        """Add ``child`` to the group's (\\*,G) entry, creating the
        entry and propagating a join towards the root domain when this
        router was previously off-tree. ``route`` is this router's group
        route when the caller already holds it. Returns False when the
        group has no G-RIB route at all."""
        entry = self.table.get(group)
        if entry is None:
            if route is None:
                route = self.group_route(group)
            parent = self._parent_target(route)
            if parent is None:
                return False
            entry = self.table.create(group, parent, anchor=route.prefix)
            self.migp.attach(self.router, group)
            entry.add_child(child)
            if self.network.tracer.enabled:
                self.network.tracer.event(
                    "bgmp.graft",
                    router=self.router.name,
                    group=hex(group),
                    parent=repr(parent),
                )
            self._propagate_join(group, entry, route)
            return True
        entry.add_child(child)
        return True

    def _propagate_join(
        self, group: int, entry: ForwardingEntry, route: Route
    ) -> None:
        """Join towards ``entry.parent``, the parent target derived
        from ``route`` (this router's current group route)."""
        parent = entry.parent
        if isinstance(parent, PeerTarget):
            if not self.network.session_up(self.router, parent.router):
                # The G-RIB still points across a dead peer or session
                # (the substrate has not reconverged yet): hold the
                # entry parentless; the next repair pass re-anchors it.
                entry.upstream = None
                self.network.note_broken_entry(self, group)
                return
            self.joins_sent += 1
            entry.upstream = parent.router
            if self.network.tracer.enabled:
                self.network.tracer.event(
                    "bgmp.join_sent",
                    router=self.router.name,
                    group=hex(group),
                    to=parent.router.name,
                )
            self.network.router_of(parent.router).join(
                group, self.as_peer
            )
            return
        # Parent through the MIGP: either the best exit router of this
        # domain, or (in the root domain) plain MIGP membership.
        if route.is_local_origin:
            self.migp.forward_join_cost()
            entry.upstream = None
            return
        exit_router = route.next_hop
        if not self.network.router_up(exit_router):
            self.migp.forward_join_cost()
            entry.upstream = None
            self.network.note_broken_entry(self, group)
            return
        self.migp.forward_join_cost()
        self.joins_sent += 1
        entry.upstream = exit_router
        if self.network.tracer.enabled:
            self.network.tracer.event(
                "bgmp.join_sent",
                router=self.router.name,
                group=hex(group),
                to=exit_router.name,
                via="migp",
            )
        self.network.router_of(exit_router).join(group, self.interior)

    def prune(self, group: int, child: Target) -> None:
        """Remove ``child`` from the (\\*,G) entry; when the child list
        empties, tear the entry down and propagate the prune towards
        the root domain (section 5.2 teardown)."""
        entry = self.table.get(group)
        if entry is None:
            return
        if isinstance(child, MigpTarget):
            # The single MIGP child target stands for *every* interior
            # subscriber — local members plus any other border routers
            # of this domain parenting through us. Only remove it when
            # none remain (the pruner has already dropped its own
            # state, so the check sees the survivors).
            if self.migp.has_members(group):
                return
            if self.network.interior_transit_needed(
                self.domain, group, self.router
            ):
                return
        entry.remove_child(child)
        self._teardown_if_childless(group, entry)

    def retract_interior(self, group: int) -> None:
        """Drop the interior child target even though local members
        remain — they are served through another exit router now. The
        repair pass uses this to clear branches a tree migration left
        behind (the member-refusal in :meth:`prune` is what keeps
        them alive)."""
        entry = self.table.get(group)
        if entry is None:
            return
        entry.remove_child(self.interior)
        self._teardown_if_childless(group, entry)

    def _teardown_if_childless(
        self, group: int, entry: ForwardingEntry
    ) -> None:
        if entry.children:
            # Lost a child: the branch may have become redundant.
            self.network.flag_membership(self.domain, group)
            return
        parent = entry.parent
        upstream = entry.upstream
        self.table.remove(group)
        self.migp.detach(self.router, group)
        # Tear down any source-specific state hanging off this entry.
        self.table.remove_sources(group)
        self._prune_upstream(group, parent, upstream)

    def _prune_upstream(
        self,
        group: int,
        parent: Optional[Target],
        upstream: Optional[BorderRouter],
    ) -> None:
        """Withdraw this router from the upstream it joined through."""
        if upstream is None:
            return
        if isinstance(parent, PeerTarget):
            if not self.network.session_up(self.router, upstream):
                # Nothing to tell across a dead session — the far
                # side's state is wiped by the crash handler or aged
                # out by the repair pass.
                return
            child = self.as_peer
        else:
            if not self.network.router_up(upstream):
                return
            child = self.interior
        self.prunes_sent += 1
        if self.network.tracer.enabled:
            self.network.tracer.event(
                "bgmp.prune_sent",
                router=self.router.name,
                group=hex(group),
                to=upstream.name,
            )
        self.network.router_of(upstream).prune(group, child)

    def update_parent(self, group: int) -> bool:
        """Re-anchor the (\\*,G) entry after a G-RIB change.

        When the best group route moves (a more specific route appears
        — the root domain changed — or the old path vanished), the
        router joins towards the new parent and prunes the old one.
        Returns True when a migration happened.
        """
        entry = self.table.get(group)
        if entry is None:
            return False
        route = self.group_route(group)
        entry.anchor = route.prefix if route is not None else None
        new_parent = self._parent_target(route)
        new_upstream: Optional[BorderRouter] = None
        if isinstance(new_parent, PeerTarget):
            new_upstream = new_parent.router
        elif route is not None and not route.is_local_origin:
            new_upstream = route.next_hop
        if new_parent is entry.parent and new_upstream is entry.upstream:
            return False
        old_parent = entry.parent
        old_upstream = entry.upstream
        entry.parent = new_parent
        if new_parent is None:
            entry.upstream = None
        else:
            self._propagate_join(group, entry, route)
        self._prune_upstream(group, old_parent, old_upstream)
        self.network.flag_membership(self.domain, group)
        return True

    # ------------------------------------------------------------------
    # Source-specific branches (section 5.3)

    def unicast_route(self, target_domain: Domain) -> Optional[Route]:
        """Best route towards a domain (for source-specific joins)."""
        return self.network.unicast_route(self.router, target_domain)

    def join_source(
        self, group: int, source_domain: Domain, child: Optional[Target]
    ) -> bool:
        """Graft a source-specific branch towards ``source_domain``.

        The join propagates along the unicast path to the source and
        stops at the first router on the group's shared tree or in the
        source domain itself — BGMP builds branches, not full
        source-specific trees.
        """
        existing = self.table.get(group, source_domain)
        if existing is not None:
            if child is not None:
                existing.add_child(child)
            return True
        shared = self.table.get(group)
        if shared is not None:
            # On the shared tree: copy the (*,G) target list and stop
            # propagating (the paper's A4 behaviour).
            entry = self.table.create(group, shared.parent, source_domain)
            for target in shared.children:
                entry.add_child(target)
            if child is not None:
                entry.add_child(child)
            return True
        if self.domain is source_domain:
            # Terminus inside the source domain: data comes in via the
            # MIGP from the source host.
            entry = self.table.create(group, self.interior, source_domain)
            self.migp.attach(self.router, group)
            if child is not None:
                entry.add_child(child)
            return True
        route = self.unicast_route(source_domain)
        if route is None:
            return False
        if route.is_local_origin:
            return False
        upstream = self.network.router_of(route.next_hop)
        if route.from_internal or route.next_hop.domain is self.domain:
            if not self.network.router_up(route.next_hop):
                return False
            parent: Target = self.interior
            upstream_child: Target = self.interior
        else:
            if not self.network.session_up(self.router, route.next_hop):
                return False
            parent = upstream.as_peer
            upstream_child = self.as_peer
        entry = self.table.create(group, parent, source_domain)
        self.migp.attach(self.router, group)
        if child is not None:
            entry.add_child(child)
        self.joins_sent += 1
        return upstream.join_source(group, source_domain, upstream_child)

    def prune_source(
        self, group: int, source_domain: Domain, child: Target
    ) -> None:
        """Prune ``child`` from the (S,G) view, creating a negative
        (S,G) entry from the shared tree when needed; an emptied child
        list propagates the prune up the shared tree (the paper's
        F2 -> F1 -> B2 sequence)."""
        entry = self.table.get(group, source_domain)
        if entry is None:
            shared = self.table.get(group)
            if shared is None:
                return
            entry = self.table.create(group, shared.parent, source_domain)
            for target in shared.children:
                entry.add_child(target)
        entry.remove_child(child)
        if entry.children:
            return
        parent = entry.parent
        if isinstance(parent, PeerTarget):
            self.prunes_sent += 1
            self.network.router_of(parent.router).prune_source(
                group, source_domain, self.as_peer
            )

    # ------------------------------------------------------------------
    # Data plane

    def receive(
        self,
        group: int,
        source_domain: Optional[Domain],
        arrived_from: Optional[Target],
        report: "DeliveryReport",
    ) -> None:
        """Process a data packet arriving at this router.

        ``arrived_from`` is the target the packet came from (None when
        originated by this router's own forwarding logic). Forwards per
        the matching entry, or off-tree towards the root domain.
        """
        if not report.visit(self.router):
            return
        entry = self.table.match(group, source_domain)
        if entry is not None:
            for target in entry.outputs_for(arrived_from):
                self._emit(group, source_domain, target, report)
            return
        self._forward_off_tree(group, source_domain, arrived_from, report)

    def _emit(
        self,
        group: int,
        source_domain: Optional[Domain],
        target: Target,
        report: "DeliveryReport",
    ) -> None:
        if isinstance(target, PeerTarget):
            if not self.network.session_up(self.router, target.router):
                # Dead next hop or session mid-reconvergence: the
                # packet copy is lost, not an exception (graceful
                # degradation).
                report.dropped += 1
                return
            report.external_hops += 1
            self.network.router_of(target.router).receive(
                group, source_domain, self.as_peer, report
            )
            return
        self._inject(group, source_domain, report)

    def _inject(
        self,
        group: int,
        source_domain: Optional[Domain],
        report: "DeliveryReport",
    ) -> None:
        """Hand the packet to this domain's interior."""
        if not report.visit_migp(self.domain):
            return
        result = self.migp.inject(group, self.router, source_domain)
        report.deliver(self.domain, result.local_members)
        if result.encapsulated:
            report.encapsulations += 1
            if result.decapsulating_router is not None:
                report.decapsulations.append(
                    (self.router, result.decapsulating_router)
                )
        for router in result.forward_routers:
            # The interior hands the packet only to border routers
            # whose state matches it — a router attached solely by an
            # (S,G) branch for a different source has no interior tree
            # state for this packet.
            peer = self.network.router_of(router)
            if peer.table.match(group, source_domain) is None:
                continue
            report.migp_transits += 1
            peer.receive(group, source_domain, self.interior, report)

    def _forward_off_tree(
        self,
        group: int,
        source_domain: Optional[Domain],
        arrived_from: Optional[Target],
        report: "DeliveryReport",
    ) -> None:
        """No state for the group: forward towards the root domain
        (any router must be able to forward to any extant group —
        section 3's conformance requirement)."""
        route = self.group_route(group)
        if route is None:
            report.dropped += 1
            return
        if route.is_local_origin:
            # We are the root domain and nobody is on a tree here:
            # deliver to any local members and stop.
            self._inject(group, source_domain, report)
            return
        if route.from_internal or route.next_hop.domain is self.domain:
            if not self.network.router_up(route.next_hop):
                report.dropped += 1
                return
            # Cross our own domain towards the best exit router; if
            # the domain has on-tree routers the MIGP hands them the
            # packet along the way.
            if not isinstance(arrived_from, MigpTarget):
                self._inject(group, source_domain, report)
                attached = self.migp.attached_routers(group)
                if attached:
                    return
            report.migp_transits += 1
            self.network.router_of(route.next_hop).receive(
                group, source_domain, self.interior, report
            )
            return
        if not self.network.session_up(self.router, route.next_hop):
            report.dropped += 1
            return
        report.external_hops += 1
        self.network.router_of(route.next_hop).receive(
            group, source_domain, self.as_peer, report
        )

    def __repr__(self) -> str:
        return f"BgmpRouter({self.router.name})"
