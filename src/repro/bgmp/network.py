"""Network-wide BGMP: membership, data delivery, reporting.

:class:`BgmpNetwork` composes a topology, a converged BGP substrate,
per-domain MIGP components, and one :class:`BgmpRouter` per border
router, and exposes the host-level multicast service: join, leave,
send. Sending returns a :class:`DeliveryReport` describing exactly
where the packet went — the unit tests' window into the data plane.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_left, bisect_right
from heapq import heappop, heappush
from typing import Callable, Dict, Iterator, List, Optional, Set, Tuple

from repro.addressing.prefix import Prefix
from repro.bgmp.router import BgmpRouter
from repro.bgmp.targets import MigpTarget
from repro.bgp.network import BgpNetwork, GribDelta
from repro.bgp.routes import Route, RouteType
from repro.migp import make_migp
from repro.migp.base import MigpComponent
from repro.topology.domain import BorderRouter, Domain, Host
from repro.topology.network import Topology
from repro.trace.tracer import NULL_TRACER


class DeliveryReport:
    """Everything one multicast packet did."""

    def __init__(self) -> None:
        self.deliveries: Dict[Domain, int] = {}
        self.external_hops = 0
        self.migp_transits = 0
        self.encapsulations = 0
        self.decapsulations: List[Tuple[BorderRouter, BorderRouter]] = []
        self.dropped = 0
        self.duplicates = 0
        self._visited_routers: Set[BorderRouter] = set()
        self._visited_migps: Set[Domain] = set()

    def visit(self, router: BorderRouter) -> bool:
        """Record a router visit; False (and a duplicate count) when
        the router already processed this packet."""
        if router in self._visited_routers:
            self.duplicates += 1
            return False
        self._visited_routers.add(router)
        return True

    def visit_migp(self, domain: Domain) -> bool:
        """Record a domain-interior injection; one per packet."""
        if domain in self._visited_migps:
            return False
        self._visited_migps.add(domain)
        return True

    def deliver(self, domain: Domain, member_count: int) -> None:
        """Record member deliveries inside a domain."""
        if member_count:
            self.deliveries[domain] = (
                self.deliveries.get(domain, 0) + member_count
            )

    @property
    def total_deliveries(self) -> int:
        """Members reached, network-wide."""
        return sum(self.deliveries.values())

    def reached(self, domain: Domain) -> bool:
        """True when any member in ``domain`` got the packet."""
        return self.deliveries.get(domain, 0) > 0

    def __repr__(self) -> str:
        return (
            f"DeliveryReport(deliveries={self.total_deliveries}, "
            f"hops={self.external_hops}, migp={self.migp_transits}, "
            f"encap={self.encapsulations}, dup={self.duplicates}, "
            f"dropped={self.dropped})"
        )


class JoinOutcome:
    """What one join cost (see :meth:`BgmpNetwork.join_measured`)."""

    __slots__ = ("joined", "new_routers", "latency")

    def __init__(self, joined: bool, new_routers, latency: float):
        self.joined = joined
        self.new_routers = new_routers
        self.latency = latency

    @property
    def branch_length(self) -> int:
        """Border routers the join added to the tree."""
        return len(self.new_routers)

    def __repr__(self) -> str:
        return (
            f"JoinOutcome(joined={self.joined}, "
            f"branch={self.branch_length}, latency={self.latency})"
        )


def _sweep(
    pending: Set[Tuple[int, int]], late: Set[Tuple[int, int]]
) -> Iterator[Tuple[int, int]]:
    """Yield ``pending`` in ascending order. A pair that lands in
    ``late`` while the sweep runs joins it when it sorts after the pair
    just yielded — the cursor has not passed it — and otherwise waits
    in ``late``, which is only read."""
    heap = sorted(pending)
    queued = set(heap)
    known = len(late)
    while heap:
        pair = heappop(heap)
        yield pair
        if len(late) != known:
            known = len(late)
            for other in sorted(late - queued):
                if other > pair:
                    queued.add(other)
                    heappush(heap, other)


def _default_migp_selector(domain: Domain) -> str:
    """DVMRP in multi-router domains (the paper's running example),
    direct delivery in single-router stubs."""
    return "dvmrp" if len(domain.routers) > 1 else "static"


class BgmpNetwork:
    """The assembled inter-domain multicast system."""

    def __init__(
        self,
        topology: Topology,
        bgp: Optional[BgpNetwork] = None,
        migp_selector: Optional[Callable[[Domain], str]] = None,
        auto_unicast: bool = True,
        auto_source_branches: bool = False,
    ):
        #: Section 5.3's data-driven option: when a delivery had to be
        #: encapsulated (dense-mode RPF mismatch), the decapsulating
        #: border router grafts an (S,G) branch towards the source and
        #: prunes the shared-tree copy, so subsequent packets arrive
        #: natively.
        self.auto_source_branches = auto_source_branches
        self.topology = topology
        self.bgp = bgp if bgp is not None else BgpNetwork(topology)
        #: Telemetry sink shared with the per-router components (assign
        #: a real Tracer to trace joins, prunes, sends, and repairs).
        self.tracer = NULL_TRACER
        selector = migp_selector or _default_migp_selector
        self._migps: Dict[Domain, MigpComponent] = {}
        self._routers: Dict[BorderRouter, BgmpRouter] = {}
        #: Topology order of the domains and creation order of the
        #: routers, both fixed at construction: the repair candidates
        #: below name domains and routers by these indexes, so sorting
        #: them is the order a walk over every tree would act in.
        self._domains: Tuple[Domain, ...] = topology.domains
        self._domain_index: Dict[Domain, int] = {
            domain: index for index, domain in enumerate(self._domains)
        }
        self._router_seq: Dict[BgmpRouter, int] = {}
        self._router_list: List[BgmpRouter] = []
        #: Each domain's BGMP components in router-name order: the
        #: order exits, prunes and RPF checks try them in.
        self._routers_by_name: Dict[Domain, Tuple[BgmpRouter, ...]] = {}
        for domain in self._domains:
            migp = make_migp(
                selector(domain), domain,
                unicast_resolver=self._rpf_resolver,
            )
            self._migps[domain] = migp
            interior = MigpTarget(domain)
            for router in domain.routers.values():
                bgmp = BgmpRouter(router, self, migp, interior)
                self._routers[router] = bgmp
                self._router_seq[bgmp] = len(self._router_list)
                self._router_list.append(bgmp)
            self._routers_by_name[domain] = tuple(
                self._routers[router]
                for router in sorted(domain.routers.values(),
                                     key=lambda r: r.name)
            )
        #: Digest cache: router -> (table version, encoded lines).
        self._digest_cache: Dict[BorderRouter, Tuple[int, bytes]] = {}
        self._router_order: List[BorderRouter] = sorted(
            self._routers, key=lambda r: (r.domain.domain_id, r.name)
        )
        #: What the next repair looks at. (router seq, group): (\*,G)
        #: entries to re-ask for their parent — the G-RIB key they are
        #: anchored under moved at that router (deltas subscribed
        #: below), or their join could not reach its upstream.
        #: (group, domain index): memberships whose serving branch may
        #: be redundant or gone — a covering key moved at a router of
        #: the domain, or an entry of the group there was created,
        #: removed, re-parented or lost a child.
        self._stale: Set[Tuple[int, int]] = set()
        self._flagged: Set[Tuple[int, int]] = set()
        #: Telemetry only (exported by trace.collect_metrics; repair
        #: reads none of it): every group that ever had membership or
        #: state (sorted), the ones a delta covered or whose entries
        #: came or went since the last repair began, deltas received,
        #: and groups the deltas were first to dirty.
        self._known_groups: List[int] = []
        self._dirty_groups: Set[int] = set()
        self.grib_deltas_seen = 0
        self.groups_invalidated = 0
        self.bgp.subscribe_grib(self)
        for bgmp in self._routers.values():
            bgmp.table.on_change = bgmp.entry_changed
        if auto_unicast:
            self._originate_unicast()

    # ------------------------------------------------------------------
    # Substrate wiring

    @staticmethod
    def domain_unicast_prefix(domain: Domain) -> Prefix:
        """The synthetic unicast prefix standing in for a domain's
        networks (one /24 out of 10/8 per domain id)."""
        if domain.domain_id >= 1 << 16:
            raise ValueError("domain id too large for the 10/8 plan")
        network = (10 << 24) | (domain.domain_id << 8)
        return Prefix(network, 24)

    def _originate_unicast(self) -> None:
        for domain in self.topology.domains:
            prefix = self.domain_unicast_prefix(domain)
            self.bgp.originate_from_domain(
                domain, prefix, RouteType.UNICAST
            )
            # The multicast-topology view of the same reachability
            # (BGP multiprotocol extensions, section 2): used for RPF
            # and source-specific joins so multicast works even where
            # the two topologies diverge.
            self.bgp.originate_from_domain(
                domain, prefix, RouteType.MRIB
            )

    def converge(self) -> int:
        """Converge the BGP substrate (after originations change)."""
        return self.bgp.converge()

    # ------------------------------------------------------------------
    # G-RIB delta subscription (the repair engine's inputs)

    def grib_deltas(self, deltas: List[GribDelta]) -> None:
        """BGP subscriber hook: a batch of G-RIB changes landed.

        A (\\*,G) entry's ``anchor``, the G-RIB key its parent derives
        from, contains its group. A key that changed or vanished at a
        router sends the entries of its range anchored under it (an
        anchor of its length) back to ``update_parent``; a key that
        appeared sends those under a shorter key or none. Either way
        the router's domain re-checks its memberships under the key.
        """
        self.grib_deltas_seen += len(deltas)
        stale, flagged = self._stale, self._flagged
        known = self._known_groups
        spans: Dict[Prefix, Tuple[int, int]] = {}
        router = None
        for delta in deltas:
            # Validated exhaustively, so a new kind cannot slip through
            # as a silent no-op (DET007).
            if delta.kind not in ("added", "changed", "withdrawn"):
                raise ValueError(f"unknown G-RIB delta kind: {delta.kind!r}")
            prefix = delta.prefix
            span = spans.get(prefix)
            if span is None:
                span = spans[prefix] = (prefix.network, prefix.last)
                fresh = set(
                    known[bisect_left(known, span[0]):
                          bisect_right(known, span[1])]
                )
                fresh -= self._dirty_groups
                self.groups_invalidated += len(fresh)
                self._dirty_groups |= fresh
            if delta.router is not router:
                # Deltas arrive in per-speaker runs: look the router's
                # side of things up once per run.
                router = delta.router
                bgmp = self._routers[router]
                seq = self._router_seq[bgmp]
                table = bgmp.table
                index = self._domain_index[router.domain]
                members = bgmp.migp.member_groups()
            if not table.shared and not members:
                continue
            first, last = span
            length, added = prefix.length, delta.kind == "added"
            for entry in table.shared_in(first, last):
                depth = -1 if entry.anchor is None else entry.anchor.length
                if (depth < length) if added else (depth == length):
                    stale.add((seq, entry.group))
            for group in members[
                bisect_left(members, first):bisect_right(members, last)
            ]:
                flagged.add((group, index))

    def grib_reset(self) -> None:
        """BGP subscriber hook: the delta stream lost continuity (the
        substrate was invalidated wholesale); every entry and every
        member domain becomes a candidate for the next repair."""
        for seq, bgmp in enumerate(self._router_list):
            self._stale.update((seq, group) for group in bgmp.table.shared)
        for index, domain in enumerate(self._domains):
            self._flagged.update(
                (group, index)
                for group in self._migps[domain].member_groups()
            )

    def note_broken_entry(self, bgmp: BgmpRouter, group: int) -> None:
        """A join could not reach its upstream (dead session or exit
        router): the entry is parentless until repair, which must
        re-ask it even though no G-RIB delta will point at it."""
        self._stale.add((self._router_seq[bgmp], group))
        self._know(group)
        self._dirty_groups.add(group)

    def entry_changed(self, domain: Domain, group: int) -> None:
        """Forwarding-table hook: an entry for ``group`` appeared or
        vanished at a router of ``domain``."""
        self._know(group)
        self._dirty_groups.add(group)
        self.flag_membership(domain, group)

    def _know(self, group: int) -> None:
        at = bisect_left(self._known_groups, group)
        if self._known_groups[at:at + 1] != [group]:
            self._known_groups.insert(at, group)

    def flag_membership(self, domain: Domain, group: int) -> None:
        """Entry state for ``group`` moved at a router of ``domain``;
        the prune and re-join phases must look at the domain again."""
        self._flagged.add((group, self._domain_index[domain]))

    def dirty_group_count(self) -> int:
        """Groups a delta or entry churn touched since the last repair
        began."""
        return len(self._dirty_groups)

    # ------------------------------------------------------------------
    # Tree maintenance

    def refresh_trees(self, max_rounds: int = 10) -> int:
        """Re-anchor (\\*,G) entries after G-RIB changes.

        Needed when the best group route moves under existing trees —
        e.g. a child domain injects a more specific range (the group's
        root domain changes from the parent to the child, the paper's
        "addresses could be obtained from the parent's address space"
        case) or a route is withdrawn. Iterates until stable; returns
        the number of parent migrations performed. Only stale entries
        are re-asked; the result is identical to walking every tree
        because :meth:`~repro.bgmp.router.BgmpRouter.update_parent` is
        a no-op wherever the G-RIB did not move.
        """
        return self._refresh(max_rounds)[0]

    def _refresh(self, max_rounds: int) -> Tuple[int, int]:
        """The refresh fixpoint: (migrations, entries re-asked).

        Each round sweeps its entries in router-creation, then group
        order. A migration only ever disturbs another entry by leaving
        a new one broken, so a round's successor re-asks just the
        entries noted since the pass began — and leaves them noted for
        the next repair, which looks once more.
        """
        self.bgp.flush_grib_deltas()
        self._dirty_groups = set()
        pending, self._stale = self._stale, set()
        migrations = refreshed = 0
        for _ in range(max_rounds):
            changed = 0
            for seq, group in _sweep(pending, self._stale):
                refreshed += 1
                if self._router_list[seq].update_parent(group):
                    changed += 1
            migrations += changed
            if not changed:
                return migrations, refreshed
            pending = set(self._stale)
        raise RuntimeError("tree refresh did not stabilise")

    def router_of(self, router: BorderRouter) -> BgmpRouter:
        """The BGMP component of a border router."""
        return self._routers[router]

    def bgmp_routers(self) -> List[BgmpRouter]:
        """Every BGMP component, in stable (domain id, name) order."""
        return sorted(
            self._routers.values(),
            key=lambda b: (b.router.domain.domain_id, b.router.name),
        )

    def router_up(self, router: BorderRouter) -> bool:
        """Liveness per the BGP substrate's fault state."""
        return self.bgp.router_up(router)

    def session_up(self, a: BorderRouter, b: BorderRouter) -> bool:
        """True when both routers are up and the session between them
        has not been administratively failed. BGMP peerings run over
        the BGP sessions (section 5.1), so a downed session carries
        neither joins nor data."""
        return self.bgp.session_up(a, b)

    # ------------------------------------------------------------------
    # Failure handling

    def handle_router_crash(self, router: BorderRouter) -> None:
        """A border router dies: its BGP routes are withdrawn, its BGMP
        state is wiped, and every live router holding it as a child
        target tears that branch down (section 5.2 teardown toward a
        dead next hop). Callers reconverge BGP and then run
        :meth:`repair_trees` to restore service.
        """
        self.bgp.fail_router(router)
        dead = self.router_of(router)
        for entry in list(dead.table.entries()):
            dead.table.remove(entry.group, entry.source_domain)
            dead.migp.detach(router, entry.group)
        dead_child = dead.as_peer
        # Only an external neighbor can hold the dead router as a child
        # (interior children are MIGP targets).
        for live in sorted(
            map(self.router_of, router.external_neighbors),
            key=self._router_seq.__getitem__,
        ):
            if not self.router_up(live.router):
                continue
            for entry in list(live.table.entries()):
                if dead_child not in entry.children:
                    continue
                if entry.is_source_specific:
                    entry.remove_child(dead_child)
                else:
                    live.prune(entry.group, dead_child)

    def handle_router_restart(self, router: BorderRouter) -> None:
        """A crashed router comes back: BGP restores its sessions; tree
        state rebuilds through reconvergence and :meth:`repair_trees`
        (BGMP state is soft — nothing to replay)."""
        self.bgp.restore_router(router)

    def repair_trees(self) -> Dict[str, int]:
        """Post-fault recovery pass (run after the BGP substrate has
        reconverged): re-anchor surviving (\\*,G) entries onto the new
        best G-RIB routes, tear down interior branches left redundant
        by a migration (a domain whose members moved back to a
        recovered exit must not keep delivering through the detour
        too), then re-join every member domain left off-tree — by the
        fault, or by that pruning. Returns repair counters.

        The phases look only at the entries and memberships that G-RIB
        deltas, entry churn and broken-join notes raised, in the order
        a walk over every tree would reach them, so every acting
        operation happens in that walk's order; the walk differs only
        in the no-op visits it does not skip. What a phase raises is
        seen by the steps still ahead of it in this pass and, like
        everything raised during a pass, once more by the next repair.
        """
        with self.tracer.span("bgmp.repair", layer="bgmp") as span:
            migrations, refreshed = self._refresh(max_rounds=10)
            flagged, self._flagged = self._flagged, set()
            # Prune BEFORE re-joining: a domain served only by a
            # redundant interior branch (its best exit moved but the
            # old entry's external anchor did not) must lose that
            # branch first, so the re-join phase sees it off-tree and
            # re-attaches it through the new best exit in the same
            # pass. The reverse order stranded such domains for a full
            # repair cycle (observed by check_members_reachable under
            # consecutive root-domain flips).
            pruned = 0
            for group, index in _sweep(flagged, self._flagged):
                pruned += self._prune_redundant_branches(
                    self._domains[index], group
                )
            # Joins only ever add state, so nothing raised from here on
            # can take a domain off-tree: the set is final.
            flagged |= self._flagged
            rejoined = 0
            for index, group in sorted(
                (index, group) for group, index in flagged
            ):
                domain = self._domains[index]
                migp = self._migps[domain]
                if not migp.has_members(group):
                    continue
                if self._domain_on_tree(domain, group):
                    continue
                host = next(iter(migp.members_of(group)))
                if self.join(host, group):
                    rejoined += 1
            span.finish(
                status="ok",
                migrations=migrations,
                rejoined=rejoined,
                pruned=pruned,
                refreshed=refreshed,
                domains_checked=len(flagged),
            )
            return {
                "migrations": migrations,
                "rejoined": rejoined,
                "pruned": pruned,
            }

    def _prune_redundant_branches(self, domain: Domain, group: int) -> int:
        """Remove the domain's interior-only branches at routers that
        are neither its best exit for the group nor interior transit —
        leftovers of a tree migration that would otherwise deliver
        (and loop) duplicate copies."""
        if not self._migps[domain].has_members(group):
            return 0
        best_exit, route = self._best_exit(domain, group)
        if best_exit is None or route.is_local_origin:
            # No exit, or the root domain: every attached router
            # legitimately serves the interior.
            return 0
        pruned = 0
        interior = best_exit.interior
        for bgmp in self._routers_by_name[domain]:
            router = bgmp.router
            if bgmp is best_exit or not self.router_up(router):
                continue
            entry = bgmp.table.get(group)
            if entry is None or interior not in entry.children:
                continue
            if set(entry.children) != {interior}:
                # Still fans out to external children: not ours
                # to tear down.
                continue
            if self.interior_transit_needed(domain, group, router):
                continue
            bgmp.retract_interior(group)
            pruned += 1
        return pruned

    def _domain_on_tree(self, domain: Domain, group: int) -> bool:
        """True when the domain's membership is already served: some
        live border router holds (\\*,G) state, or the domain is the
        group's root domain (membership is an interior matter there)."""
        for bgmp in self._routers_by_name[domain]:
            if not self.router_up(bgmp.router):
                continue
            if bgmp.table.get(group) is not None:
                return True
        route = self._best_exit(domain, group)[1]
        return route is not None and route.is_local_origin

    def migp_of(self, domain: Domain) -> MigpComponent:
        """The MIGP component of a domain."""
        return self._migps[domain]

    def unicast_route(
        self, router: BorderRouter, target_domain: Domain
    ) -> Optional[Route]:
        """Best route towards a domain for multicast purposes.

        Uses the M-RIB view (section 2): RPF checks and
        source-specific joins must follow the *multicast* topology,
        falling back to the unicast view only when no M-RIB route
        exists.
        """
        prefix = self.domain_unicast_prefix(target_domain)
        speaker = self._routers[router].speaker
        route = speaker.loc_rib.lookup(RouteType.MRIB, prefix.network)
        if route is not None:
            return route
        return speaker.loc_rib.lookup(
            RouteType.UNICAST, prefix.network
        )

    def _rpf_resolver(
        self, domain: Domain, source_domain: Domain
    ) -> Optional[BorderRouter]:
        """The border router of ``domain`` on the best unicast path to
        ``source_domain`` (interior RPF checks point at it)."""
        for bgmp in self._routers_by_name[domain]:
            route = self.unicast_route(bgmp.router, source_domain)
            if route is None:
                continue
            if route.is_local_origin:
                return None
            if route.from_internal:
                return route.next_hop
            return bgmp.router
        return None

    # ------------------------------------------------------------------
    # Group origination (MASC hand-off)

    def originate_group_range(
        self, domain: Domain, prefix: Prefix
    ) -> None:
        """Inject a MASC-claimed range as a group route (making
        ``domain`` the root domain for covered groups)."""
        self.bgp.originate_from_domain(domain, prefix, RouteType.GROUP)

    def root_domain_of(self, group: int) -> Optional[Domain]:
        """The group's root domain per the injected group routes."""
        return self.bgp.root_domain_of(group)

    # ------------------------------------------------------------------
    # Host-level service

    def join(self, host: Host, group: int) -> bool:
        """A host joins a group: the domain MIGP learns the member and
        (for non-root domains) the best exit router's BGMP component
        receives a join request (section 5's join flow)."""
        domain = host.domain
        with self.tracer.span(
            "bgmp.join", layer="bgmp", group=hex(group), domain=domain.name
        ) as span:
            self._know(group)
            migp = self.migp_of(domain)
            migp.add_member(host, group)
            best_exit, route = self._best_exit(domain, group)
            if best_exit is None:
                span.finish(status="no-exit")
                return False
            if route.is_local_origin:
                # Root domain: membership is purely an MIGP matter until
                # an external join arrives.
                span.finish(status="root-domain")
                return True
            joined = best_exit.join(group, best_exit.interior, route)
            span.finish(status="grafted" if joined else "failed")
            return joined

    def join_measured(
        self,
        host: Host,
        group: int,
        per_hop_delay: float = 0.05,
    ) -> "JoinOutcome":
        """Join and report the cost: how many border routers the join
        instantiated state at (the new branch) and the implied latency
        (branch length x per-hop control delay over the TCP peerings).

        Grafting onto a nearby tree is fast; the first member in a
        region pays the full walk towards the root domain.
        """
        before = set(self.tree_routers(group))
        joined = self.join(host, group)
        after = set(self.tree_routers(group))
        new_routers = sorted(
            after - before,
            key=lambda r: (r.domain.domain_id, r.name),
        )
        return JoinOutcome(
            joined=joined,
            new_routers=new_routers,
            latency=len(new_routers) * per_hop_delay,
        )

    def leave(self, host: Host, group: int) -> None:
        """A host leaves; when the domain's last member goes, the MIGP
        notifies every border router whose interior branch no longer
        serves anyone, and the prunes propagate up the tree."""
        domain = host.domain
        with self.tracer.span(
            "bgmp.prune", layer="bgmp", group=hex(group), domain=domain.name
        ) as span:
            migp = self.migp_of(domain)
            migp.remove_member(host, group)
            if migp.has_members(group):
                span.finish(status="members-remain")
                return
            # A border router's MIGP child target is still needed when
            # some *other* border router of the domain reaches its own
            # parent through the interior via this router (transit),
            # even with no local members left.
            for bgmp in self._routers_by_name[domain]:
                entry = bgmp.table.get(group)
                if entry is None or bgmp.interior not in entry.children:
                    continue
                if self.interior_transit_needed(domain, group, bgmp.router):
                    continue
                bgmp.prune(group, bgmp.interior)

    def interior_transit_needed(
        self, domain: Domain, group: int, via: BorderRouter
    ) -> bool:
        """True when another border router of ``domain`` parents its
        (\\*,G) entry through the interior at ``via``."""
        for other in self._routers_by_name[domain]:
            entry = other.table.get(group)
            if entry is None:
                continue
            if (
                isinstance(entry.parent, MigpTarget)
                and entry.upstream is via
                and other.router is not via
            ):
                return True
        return False

    def best_exit_router(
        self, domain: Domain, group: int
    ) -> Optional[BorderRouter]:
        """The domain's best exit router for a group: the router whose
        chosen group route is external (or locally originated)."""
        best_exit = self._best_exit(domain, group)[0]
        return best_exit.router if best_exit is not None else None

    def _best_exit(
        self, domain: Domain, group: int
    ) -> Tuple[Optional[BgmpRouter], Optional[Route]]:
        """The best exit router's BGMP component together with the
        group route that makes it so (both None when the domain has no
        exit), so callers deciding on that route do not look it up a
        second time."""
        for bgmp in self._routers_by_name[domain]:
            route = bgmp.speaker.next_hop_for_group(group)
            if route is None:
                continue
            if route.is_local_origin or not route.from_internal:
                return bgmp, route
        return None, None

    def send(self, host: Host, group: int) -> DeliveryReport:
        """Send one packet from a (not necessarily member) host.

        Models the paper's sender path: the packet reaches local
        members and the domain's border routers through the MIGP; an
        on-tree domain forwards along the bidirectional tree, an
        off-tree domain forwards towards the root domain.
        """
        report = DeliveryReport()
        domain = host.domain
        with self.tracer.span(
            "bgmp.send", layer="bgmp", group=hex(group), source=domain.name
        ) as span:
            migp = self.migp_of(domain)
            report.visit_migp(domain)
            result = migp.inject(group, None, domain)
            report.deliver(domain, result.local_members)
            if result.forward_routers:
                for router in result.forward_routers:
                    report.migp_transits += 1
                    bgmp = self.router_of(router)
                    bgmp.receive(group, domain, bgmp.interior, report)
            else:
                best_exit = self._best_exit(domain, group)[0]
                if best_exit is None:
                    report.dropped += 1
                    span.finish(status="dropped")
                    return report
                report.migp_transits += 1
                best_exit.receive(
                    group, domain, best_exit.interior, report
                )
            self._maybe_graft_branches(group, domain, report)
            span.finish(
                status="delivered" if report.total_deliveries else "no-members",
                deliveries=report.total_deliveries,
                dropped=report.dropped,
                duplicates=report.duplicates,
                external_hops=report.external_hops,
            )
            return report

    def _maybe_graft_branches(
        self, group: int, source_domain: Domain, report: DeliveryReport
    ) -> None:
        """Data-driven source-specific branches (section 5.3): every
        encapsulation observed on this delivery makes the decapsulating
        router graft towards the source and prune the shared-tree copy
        at the entry router."""
        if not self.auto_source_branches:
            return
        for entry_router, decap_router in report.decapsulations:
            self.establish_source_branch(
                decap_router,
                group,
                source_domain,
                prune_shared_at=entry_router,
            )

    # ------------------------------------------------------------------
    # Source-specific branches

    def establish_source_branch(
        self,
        router: BorderRouter,
        group: int,
        source_domain: Domain,
        prune_shared_at: Optional[BorderRouter] = None,
    ) -> bool:
        """Graft an (S,G) branch at ``router`` towards the source and
        optionally prune the now-redundant shared-tree delivery (the
        paper's F2/F1 sequence)."""
        bgmp = self.router_of(router)
        grafted = bgmp.join_source(group, source_domain, bgmp.interior)
        if grafted and prune_shared_at is not None:
            bgmp = self.router_of(prune_shared_at)
            bgmp.prune_source(group, source_domain, bgmp.interior)
        return grafted

    # ------------------------------------------------------------------
    # Reporting

    def forwarding_state_size(self) -> int:
        """Total BGMP forwarding entries network-wide (the scaling
        metric of section 3)."""
        return sum(len(r.table) for r in self._routers.values())

    def _digest_lines(self, router: BorderRouter) -> List[str]:
        """One router's digest lines (entries by (group, source);
        children sorted by repr) — the serialization unit the digest
        cache invalidates per table version."""
        lines: List[str] = []
        table = self._routers[router].table
        for entry in sorted(
            table.entries(),
            key=lambda e: (
                e.group,
                e.source_domain.name if e.source_domain else "",
            ),
        ):
            source = (
                entry.source_domain.name if entry.source_domain else "*"
            )
            upstream = (
                entry.upstream.name if entry.upstream else "-"
            )
            children = ",".join(
                sorted(repr(c) for c in entry.children)
            )
            lines.append(
                f"{router.name}|{entry.group:#x}|{source}|"
                f"{entry.parent!r}|{children}|{upstream}"
            )
        return lines

    def forwarding_digest(self) -> str:
        """SHA-256 over the full network forwarding state, serialized
        in a canonical order (routers by (domain id, name); entries by
        (group, source); children sorted by repr).

        Two runs produced the same trees iff their digests match —
        the determinism tests' one-line comparison of the entire data
        plane, independent of dict insertion order or identity hashes.

        Incremental: each router's encoded block of lines is cached
        against the router's table version (bumped by every entry
        create, remove, and in-place mutation), so a digest after k
        changed routers re-serializes k tables, not the whole data
        plane, and the blocks stream into one hash without a joined
        copy. :meth:`forwarding_digest_uncached` is the reference path
        the differential tests compare against.
        """
        return self._hash_blocks(map(self._cached_block, self._router_order))

    def forwarding_digest_uncached(self) -> str:
        """The digest recomputed from scratch, bypassing the per-router
        cache — the reference the cached path must always match."""
        return self._hash_blocks(
            self._digest_block(router) for router in self._router_order
        )

    def _cached_block(self, router: BorderRouter) -> bytes:
        version = self._routers[router].table.version
        cached = self._digest_cache.get(router)
        if cached is None or cached[0] != version:
            cached = (version, self._digest_block(router))
            self._digest_cache[router] = cached
        return cached[1]

    def _digest_block(self, router: BorderRouter) -> bytes:
        return "\n".join(self._digest_lines(router)).encode("utf-8")

    @staticmethod
    def _hash_blocks(blocks: Iterator[bytes]) -> str:
        """SHA-256 of the non-empty ``blocks`` joined by newlines: the
        bytes of one newline join over every router's lines."""
        digest, separator = hashlib.sha256(), b""
        for block in blocks:
            if block:
                digest.update(separator)
                digest.update(block)
                separator = b"\n"
        return digest.hexdigest()

    def tree_routers(self, group: int) -> List[BorderRouter]:
        """Border routers holding (\\*,G) state for a group."""
        return sorted(
            (
                bgmp.router
                for bgmp in self._routers.values()
                if bgmp.table.get(group) is not None
            ),
            key=lambda r: (r.domain.domain_id, r.name),
        )
