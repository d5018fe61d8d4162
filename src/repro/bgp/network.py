"""Network-wide BGP: sessions, propagation, convergence.

:class:`BgpNetwork` instantiates one speaker per border router, wires
external sessions along every inter-domain link and an iBGP full mesh
inside each domain, and drives synchronous update rounds until every
Loc-RIB is stable. Aggregation of covered customer group routes
(section 4.3.2 of the paper) is applied at the domain's external
border.

The propagation engine tracks which speakers' inputs changed (dirty
sets fed by :class:`~repro.bgp.speaker.BgpSpeaker` mutation hooks) and
only those speakers recompute and export. Every directed session is
gated on the cached last-sent advertisement set, so an unchanged set
sends nothing — which is why treating *every* speaker as dirty walks
the identical rounds, Loc-RIBs and update counts, the property
``tests/bgp/test_incremental_equivalence.py`` checks against the
recompute-everything oracle in ``tests/conftest.py`` (see
``docs/ARCHITECTURE.md`` section 8).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.addressing.prefix import Prefix
from repro.addressing.trie import LpmTrie
from repro.bgp.policy import (
    ExportPolicy,
    GaoRexfordPolicy,
    preference_for,
)
from repro.bgp.rib import diff_type_entries
from repro.bgp.routes import Route, RouteType
from repro.bgp.speaker import BgpSpeaker
from repro.topology.domain import BorderRouter, Domain
from repro.topology.network import Topology
from repro.trace.tracer import NULL_TRACER

#: "Never sent anything" and "last sent an empty set" are equivalent:
#: both mean the receiver holds no routes from this session, so an
#: empty advertisement set is never worth an UPDATE.
_NOTHING_SENT: List[Route] = []


class ConvergenceError(Exception):
    """Raised when BGP fails to stabilise within the round budget."""

    def __init__(self, message: str, rounds: int = 0):
        super().__init__(message)
        #: Rounds spent before giving up.
        self.rounds = rounds


@dataclass(frozen=True)
class GribDelta:
    """One structured G-RIB change at one router.

    ``kind`` is ``"added"``, ``"withdrawn"`` or ``"changed"`` (the
    best route for the prefix was replaced — next hop, AS path or
    preference moved). Deltas are emitted from the content comparison
    inside :meth:`~repro.bgp.rib.LocRib.replace`, so a recompute that
    lands on identical contents emits nothing.
    """

    router: BorderRouter
    prefix: Prefix
    kind: str


@dataclass(frozen=True)
class ConvergenceResult:
    """Outcome of a propagation run: did the Loc-RIBs reach a fixed
    point, and in how many rounds? ``converged=False`` means the run
    gave up at the round budget, *not* that it stopped at a fixed
    point — callers must treat the RIBs as possibly inconsistent."""

    converged: bool
    rounds: int

    def __bool__(self) -> bool:
        return self.converged


class BgpNetwork:
    """All BGP speakers of a topology plus the propagation engine."""

    def __init__(
        self,
        topology: Topology,
        policy: Optional[ExportPolicy] = None,
        aggregate: bool = True,
    ):
        self.topology = topology
        self.policy = policy if policy is not None else GaoRexfordPolicy()
        self.aggregate = aggregate
        self.speakers: Dict[BorderRouter, BgpSpeaker] = {}
        #: Telemetry sink (assign a real Tracer to trace convergence).
        self.tracer = NULL_TRACER
        #: UPDATE messages sent across all sessions, network lifetime.
        #: An UPDATE is counted per directed session per round *only*
        #: when the advertisement set actually changed since the last
        #: send on that session (an empty set counts as "nothing ever
        #: sent"); unchanged sets are suppressed, exactly as a real
        #: speaker would not re-announce a stable table.
        self.updates_sent = 0
        #: Administratively/faulted-down sessions (router pairs) and
        #: crashed routers — maintained by the fault layer.
        self._down_sessions: Set[frozenset] = set()
        self._down_routers: Set[BorderRouter] = set()
        #: Speakers whose decision inputs changed since their last
        #: recompute, and speakers whose exports must be re-evaluated.
        self._dirty: Set[BgpSpeaker] = set()
        self._export_dirty: Set[BgpSpeaker] = set()
        #: Last advertisement set sent on each directed session
        #: (sender router, receiver router) — post-:meth:`_localize`,
        #: so an equality hit skips the whole receive path.
        self._last_sent: Dict[
            Tuple[BorderRouter, BorderRouter], List[Route]
        ] = {}
        #: True while :meth:`try_converge` performs its own mutations;
        #: speaker hooks are ignored so the engine's bookkeeping is not
        #: polluted by the sends it issues itself.
        self._muted = False
        #: Per-domain cache of originated prefixes by type, and the
        #: network-wide longest-match index of GROUP origins; both are
        #: invalidated by :meth:`origins_changed`.
        self._own_prefix_cache: Dict[
            Domain, Dict[RouteType, List[Prefix]]
        ] = {}
        self._origin_index: Optional[LpmTrie] = None
        #: G-RIB delta subscribers (the BGMP tree-maintenance engine)
        #: and the deltas accumulated since the last flush. Capture is
        #: fully off — no snapshots, no diffs — until the first
        #: subscriber registers.
        self._grib_subscribers: List = []
        self._pending_grib_deltas: List[GribDelta] = []
        for router in topology.routers():
            self.speakers[router] = self._new_speaker(router)

    def _new_speaker(self, router: BorderRouter) -> BgpSpeaker:
        speaker = BgpSpeaker(router)
        speaker._listener = self
        self._dirty.add(speaker)
        self._export_dirty.add(speaker)
        return speaker

    # ------------------------------------------------------------------
    # Dirty-set bookkeeping (called by BgpSpeaker mutation hooks)

    def speaker_dirty(self, speaker: BgpSpeaker) -> None:
        """A speaker's decision inputs changed outside of convergence:
        it must recompute, and its exports must be re-evaluated."""
        if self._muted:
            return
        self._dirty.add(speaker)
        self._export_dirty.add(speaker)

    def origins_changed(self, speaker: BgpSpeaker) -> None:
        """A speaker's origin set changed: the domain's own-prefix
        cache and the network-wide origin index are stale, and every
        speaker of the domain filters exports against the domain's
        origins (aggregation), so all of them must re-export."""
        domain = speaker.domain
        self._own_prefix_cache.pop(domain, None)
        self._origin_index = None
        for router in domain.routers.values():
            peer_speaker = self.speakers.get(router)
            if peer_speaker is not None:
                self._export_dirty.add(peer_speaker)
        self._export_dirty.add(speaker)

    def invalidate(self) -> None:
        """Mark every speaker dirty and drop every cache — the big
        hammer for callers that mutate the topology (new links or
        routers) after construction."""
        self._own_prefix_cache.clear()
        self._origin_index = None
        self._last_sent.clear()
        for speaker in self.speakers.values():
            self._dirty.add(speaker)
            self._export_dirty.add(speaker)
        # Delta subscribers cannot trust the stream across a topology
        # mutation: tell them to treat everything as changed.
        self._pending_grib_deltas.clear()
        for subscriber in self._grib_subscribers:
            subscriber.grib_reset()

    # ------------------------------------------------------------------
    # G-RIB delta stream (consumed by the BGMP engine)

    def subscribe_grib(self, subscriber) -> None:
        """Register a G-RIB delta consumer.

        A subscriber implements ``grib_deltas(deltas)`` — called with a
        batch of :class:`GribDelta` records at the end of every
        convergence run that changed any G-RIB — and ``grib_reset()``,
        called when the stream loses continuity (topology mutation) and
        the subscriber must fall back to treating all state as stale.
        """
        if subscriber not in self._grib_subscribers:
            self._grib_subscribers.append(subscriber)

    def captures_grib(self) -> bool:
        """Whether speakers should capture before/after snapshots
        around Loc-RIB changes (only worth the copy when someone is
        listening)."""
        return bool(self._grib_subscribers)

    def grib_changed(
        self,
        speaker: BgpSpeaker,
        old: Dict[Tuple[RouteType, Prefix], Route],
        new: Dict[Tuple[RouteType, Prefix], Route],
    ) -> None:
        """Speaker hook: its Loc-RIB contents just changed. Unlike the
        dirty-set hooks this one stays live during convergence — the
        deltas produced *by* convergence are exactly the stream the
        subscribers want."""
        for prefix, kind in diff_type_entries(old, new, RouteType.GROUP):
            self._pending_grib_deltas.append(
                GribDelta(speaker.router, prefix, kind)
            )

    def flush_grib_deltas(self) -> int:
        """Deliver accumulated deltas to every subscriber; returns how
        many were delivered. Called automatically at the end of
        :meth:`try_converge`; consumers that mutate G-RIBs outside of
        convergence (tests, direct speaker pokes) may call it directly.
        """
        if not self._pending_grib_deltas:
            return 0
        deltas = self._pending_grib_deltas
        self._pending_grib_deltas = []
        for subscriber in self._grib_subscribers:
            subscriber.grib_deltas(deltas)
        return len(deltas)

    # ------------------------------------------------------------------
    # Origination

    def speaker(self, router: BorderRouter) -> BgpSpeaker:
        """The speaker for ``router`` (created lazily for routers added
        after construction)."""
        found = self.speakers.get(router)
        if found is None:
            found = self._new_speaker(router)
            self.speakers[router] = found
            # Existing neighbors must (re-)send to the newcomer.
            for peer in list(router.external_neighbors) + list(
                router.internal_peers()
            ):
                peer_speaker = self.speakers.get(peer)
                if peer_speaker is not None:
                    self._export_dirty.add(peer_speaker)
                    self._last_sent.pop((peer, router), None)
        return found

    def originate(
        self,
        router: BorderRouter,
        prefix: Prefix,
        route_type: RouteType = RouteType.GROUP,
    ) -> Route:
        """Originate a route at a specific border router."""
        return self.speaker(router).originate(prefix, route_type)

    def originate_from_domain(
        self,
        domain: Domain,
        prefix: Prefix,
        route_type: RouteType = RouteType.GROUP,
    ) -> Route:
        """Originate at the domain's first border router.

        Matches section 4.2: a MASC node sends its acquired range to the
        domain's border routers, which inject it into BGP; with iBGP
        redistribution the single injection point is equivalent.
        """
        return self.originate(domain.router(), prefix, route_type)

    def withdraw(
        self,
        router: BorderRouter,
        prefix: Prefix,
        route_type: RouteType = RouteType.GROUP,
    ) -> bool:
        """Withdraw a locally-originated route."""
        return self.speaker(router).withdraw_origin(prefix, route_type)

    def domain_origins(
        self, domain: Domain, route_type: RouteType = RouteType.GROUP
    ) -> List[Prefix]:
        """All prefixes of the given type originated inside ``domain``."""
        found: List[Prefix] = []
        for router in domain.routers.values():
            speaker = self.speakers.get(router)
            if speaker is None:
                continue
            for route in speaker.origins():
                if route.route_type is route_type:
                    found.append(route.prefix)
        return sorted(set(found))

    # ------------------------------------------------------------------
    # Session and router liveness (the fault layer's hooks)

    def router_up(self, router: BorderRouter) -> bool:
        """True unless the router has been crashed by the fault layer."""
        return router not in self._down_routers

    def session_up(self, a: BorderRouter, b: BorderRouter) -> bool:
        """True when the a-b session can carry updates: both endpoints
        up and the session itself not administratively down."""
        return (
            self.router_up(a)
            and self.router_up(b)
            and frozenset((a, b)) not in self._down_sessions
        )

    def set_session_state(
        self, a: BorderRouter, b: BorderRouter, up: bool
    ) -> None:
        """Bring a session down or back up.

        Going down immediately withdraws everything either side learned
        from the other (BGP's session-loss semantics); coming back up
        re-advertises on the next :meth:`converge` — full advertisement
        sets flow every round, so no explicit replay is needed.
        """
        key = frozenset((a, b))
        if up:
            if key not in self._down_sessions:
                return
            self._down_sessions.discard(key)
            # Both ends must re-send their full sets on revival.
            self._forget_session(a, b)
            for router in (a, b):
                speaker = self.speaker(router)
                self._dirty.add(speaker)
                self._export_dirty.add(speaker)
            return
        if key in self._down_sessions:
            return
        self._down_sessions.add(key)
        self.speaker(a).drop_session(b)
        self.speaker(b).drop_session(a)
        self._forget_session(a, b)

    def _forget_session(self, a: BorderRouter, b: BorderRouter) -> None:
        """Drop the last-sent cache for both directions of a session —
        whatever crossed it before the state transition no longer
        reflects what the other side holds."""
        self._last_sent.pop((a, b), None)
        self._last_sent.pop((b, a), None)

    def fail_router(self, router: BorderRouter) -> None:
        """Crash a border router: every peer withdraws the routes it
        learned from it, and the router's own volatile state is lost
        (origins survive — they model configuration)."""
        if router in self._down_routers:
            return
        self._down_routers.add(router)
        for speaker in self.speakers.values():
            if speaker.router != router:
                speaker.drop_session(router)
        self.speaker(router).reset()
        stale = [key for key in self._last_sent if router in key]
        for key in stale:
            del self._last_sent[key]

    def restore_router(self, router: BorderRouter) -> None:
        """Restart a crashed router; the next :meth:`converge` rebuilds
        its sessions and re-announces its origins."""
        if router not in self._down_routers:
            return
        self._down_routers.discard(router)
        speaker = self.speaker(router)
        self._dirty.add(speaker)
        self._export_dirty.add(speaker)
        # Neighbors must re-send everything the crash wiped out.
        for peer in list(router.external_neighbors) + list(
            router.internal_peers()
        ):
            peer_speaker = self.speakers.get(peer)
            if peer_speaker is not None:
                self._export_dirty.add(peer_speaker)

    def down_routers(self) -> List[BorderRouter]:
        """Currently crashed routers (sorted for determinism)."""
        return sorted(
            self._down_routers, key=lambda r: (r.domain.domain_id, r.name)
        )

    # ------------------------------------------------------------------
    # Propagation

    def converge(self, max_rounds: int = 200) -> int:
        """Run synchronous update rounds to a fixed point.

        Returns the number of rounds used; raises
        :class:`ConvergenceError` when ``max_rounds`` rounds pass
        without stabilising. Callers that must distinguish the two
        outcomes without an exception use :meth:`try_converge`.
        """
        result = self.try_converge(max_rounds)
        if not result.converged:
            raise ConvergenceError(
                f"BGP did not converge within {max_rounds} rounds",
                rounds=result.rounds,
            )
        return result.rounds

    def try_converge(self, max_rounds: int = 200) -> ConvergenceResult:
        """Run synchronous update rounds, reporting rather than raising
        on a budget overrun.

        Each round: the exporting speakers compute their per-session
        advertisement sets, every *changed* set is delivered (wholesale
        Adj-RIB-In replacement models implicit withdrawal; an unchanged
        or never-sent-and-empty set is suppressed and not counted in
        :attr:`updates_sent`), then the affected speakers rerun the
        decision process. Crashed routers and down sessions carry
        nothing — their routes were withdrawn when the fault hit.

        The exporter set is seeded from the dirty sets fed by speaker
        mutation hooks and thereafter from the speakers whose Loc-RIBs
        changed in the previous round. A speaker whose inputs did not
        change would recompute to an identical Loc-RIB and export
        identical (suppressed) sets, so skipping it changes neither
        the delivered updates nor the round count.
        """
        ordered = [
            self.speakers[r]
            for r in self._ordered_routers()
            if self.router_up(r)
        ]
        rank = {speaker: index for index, speaker in enumerate(ordered)}
        tracer = self.tracer
        self._muted = True
        try:
            with tracer.span(
                "bgp.converge", layer="bgp", speakers=len(ordered)
            ) as span:
                exporters = [
                    s for s in ordered if s in self._export_dirty
                ]
                self._export_dirty.difference_update(exporters)
                for speaker in exporters:
                    if speaker in self._dirty:
                        speaker.recompute()
                        self._dirty.discard(speaker)
                for round_index in range(1, max_rounds + 1):
                    round_updates = 0
                    receivers: Set[BgpSpeaker] = set()
                    for speaker in exporters:
                        per_peer = self._session_exports(speaker)
                        for peer, routes in per_peer.items():
                            if peer.domain != speaker.domain:
                                routes = self._localize(peer.domain,
                                                        speaker.domain,
                                                        routes)
                            key = (speaker.router, peer)
                            if routes == self._last_sent.get(
                                key, _NOTHING_SENT
                            ):
                                continue
                            self._last_sent[key] = routes
                            receiver = self.speakers[peer]
                            receiver.replace_session_routes(
                                speaker.router, routes
                            )
                            receivers.add(receiver)
                            round_updates += 1
                    self.updates_sent += round_updates
                    changed = [
                        speaker
                        for speaker in sorted(
                            receivers, key=rank.__getitem__
                        )
                        if speaker.recompute()
                    ]
                    if tracer.enabled:
                        span.event(
                            "round",
                            index=round_index,
                            updates=round_updates,
                            changed=bool(changed),
                        )
                    if not changed:
                        span.finish(
                            status="converged", rounds=round_index
                        )
                        return ConvergenceResult(True, round_index)
                    exporters = changed
                # Budget exhausted mid-flight: remember who still has
                # unexported changes so the next attempt resumes
                # instead of silently dropping them.
                self._export_dirty.update(exporters)
                span.finish(status="budget-exhausted", rounds=max_rounds)
                return ConvergenceResult(False, max_rounds)
        finally:
            self._muted = False
            self.flush_grib_deltas()

    def _ordered_routers(self) -> List[BorderRouter]:
        ordered: List[BorderRouter] = []
        for domain in self.topology.domains:
            ordered.extend(
                domain.routers[name] for name in sorted(domain.routers)
            )
        # Include speakers for routers created after construction.
        known = set(ordered)
        ordered.extend(r for r in self.speakers if r not in known)
        return ordered

    def _session_exports(
        self, speaker: BgpSpeaker
    ) -> Dict[BorderRouter, List[Route]]:
        """Advertisements this speaker sends on each session this round."""
        per_peer: Dict[BorderRouter, List[Route]] = {}
        domain = speaker.domain
        own_prefixes = self._own_prefixes_by_type(domain)
        best_routes = speaker.loc_rib.routes()
        for peer in speaker.router.external_neighbors:
            if not self.session_up(speaker.router, peer):
                continue
            relationship = domain.relationship_to(peer.domain)
            multicast_ok = self.topology.multicast_capable(
                speaker.router, peer
            )
            advertised: List[Route] = []
            for route in best_routes:
                # Unicast-only links carry no multicast routing state:
                # group and M-RIB routes detour around them, making the
                # multicast topology incongruent with the unicast one
                # (sections 2-3 of the paper).
                if not multicast_ok and route.route_type in (
                    RouteType.GROUP,
                    RouteType.MRIB,
                ):
                    continue
                if not self.policy.allows(
                    domain, route, route.learned_from, relationship
                ):
                    continue
                if self.aggregate and self._covered_by_own(
                    domain, route, own_prefixes
                ):
                    continue
                advertised.append(
                    route.advertised_by(speaker.router)
                )
            per_peer[peer] = advertised
        for internal in speaker.router.internal_peers():
            if not self.session_up(speaker.router, internal):
                continue
            advertised = [
                route.advertised_by(speaker.router, internal=True)
                for route in best_routes
                if not route.from_internal
            ]
            per_peer[internal] = advertised
        return per_peer

    def _own_prefixes_by_type(
        self, domain: Domain
    ) -> Dict[RouteType, List[Prefix]]:
        found = self._own_prefix_cache.get(domain)
        if found is None:
            found = {}
            for router in domain.routers.values():
                speaker = self.speakers.get(router)
                if speaker is None:
                    continue
                for route in speaker.origins():
                    found.setdefault(
                        route.route_type, []
                    ).append(route.prefix)
            self._own_prefix_cache[domain] = found
        return found

    def _covered_by_own(
        self,
        domain: Domain,
        route: Route,
        own_prefixes: Dict[RouteType, List[Prefix]],
    ) -> bool:
        """True when a learned route is subsumed by one of the domain's
        own originated prefixes, so the aggregate makes propagating the
        specific unnecessary (section 4.3.2)."""
        if route.is_local_origin:
            return False
        for prefix in own_prefixes.get(route.route_type, ()):
            if prefix != route.prefix and prefix.contains(route.prefix):
                return True
        return False

    # ------------------------------------------------------------------
    # Delivery: receiver-side route construction

    def _localize(
        self,
        receiver: Domain,
        sender: Domain,
        routes: List[Route],
    ) -> List[Route]:
        """Rewrite externally-advertised routes into receiver-relative
        form: local_pref and learned_from reflect the receiver's
        relationship to the sending domain (customer routes preferred).
        """
        relationship = receiver.relationship_to(sender)
        preference = preference_for(relationship)
        return [
            Route(
                route.prefix,
                route.route_type,
                route.next_hop,
                route.as_path,
                local_pref=preference,
                from_internal=False,
                learned_from=relationship,
            )
            for route in routes
        ]

    # ------------------------------------------------------------------
    # Queries

    def grib_of(self, router: BorderRouter) -> List[Route]:
        """The G-RIB at a router."""
        return self.speaker(router).grib_routes()

    def grib_size(self, router: BorderRouter) -> int:
        """Number of group routes at a router."""
        return self.speaker(router).grib_size()

    def group_next_hop(
        self, router: BorderRouter, group_address: int
    ) -> Optional[Route]:
        """The router's best group route covering ``group_address``."""
        return self.speaker(router).next_hop_for_group(group_address)

    def root_domain_of(self, group_address: int) -> Optional[Domain]:
        """The domain originating the most specific group route covering
        the address, network-wide (the group's root domain).

        Served from a lazily-built longest-match index over every
        speaker's GROUP origins, invalidated whenever any origin set
        changes. First origination wins for a prefix claimed by
        several speakers, matching the strictly-longer comparison the
        index replaced (distinct equal-length prefixes never both
        cover one address).
        """
        index = self._origin_index
        if index is None:
            index = LpmTrie()
            for speaker in self.speakers.values():
                for route in speaker.origins():
                    if route.route_type is not RouteType.GROUP:
                        continue
                    if route.prefix not in index:
                        index.insert(route.prefix, speaker.domain)
            self._origin_index = index
        return index.lookup(group_address)

    # ------------------------------------------------------------------
    # Fingerprints

    def rib_digest(self) -> str:
        """SHA-256 over every live Loc-RIB in canonical order — the
        fingerprint the equivalence tests compare against the oracle."""
        digest = hashlib.sha256()
        for router in self._ordered_routers():
            speaker = self.speakers[router]
            digest.update(
                f"@{router.domain.domain_id}/{router.name}".encode()
            )
            for route in speaker.loc_rib.routes():
                hop = route.next_hop
                hop_label = (
                    f"{hop.domain.domain_id}/{hop.name}" if hop else "-"
                )
                digest.update(
                    "|".join(
                        (
                            str(route.prefix),
                            route.route_type.value,
                            hop_label,
                            ",".join(map(str, route.as_path)),
                            str(route.local_pref),
                            str(route.from_internal),
                            str(route.learned_from),
                        )
                    ).encode()
                )
        return digest.hexdigest()
