"""Network-wide BGP: sessions, propagation, convergence.

:class:`BgpNetwork` instantiates one speaker per border router, wires
external sessions along every inter-domain link and an iBGP full mesh
inside each domain, and drives synchronous update rounds until every
Loc-RIB is stable. Aggregation of covered customer group routes
(section 4.3.2 of the paper) is applied at the domain's external
border.

The (network, length, type) key is the unit of work. Each speaker
records the decisions its mutations made due — a delivered route
weighed against the best so far, a rescan only where that best left —
and settles those only, patching the Loc-RIB in place; each round
exports only the keys whose best route moved, diffed once per *update
group* against its *advertised table*, and the difference is delivered
as one batch to each member's receiver, which weighs each change. The
advertised table *is* each member receiver's Adj-RIB-In (the receiver
reads it in place, the loop check at each read), so what a session
carries is held once. A key whose export equals the table sends
nothing — which is why treating *every* key as due walks the identical
rounds, Loc-RIBs and update counts, the property
``tests/bgp/test_incremental_equivalence.py`` checks against the
recompute-everything oracle in ``tests/conftest.py`` (see
``docs/ARCHITECTURE.md`` section 8).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, Iterable, List, NamedTuple, Optional, Set, Tuple

from repro.addressing.ipv4 import ADDRESS_BITS
from repro.addressing.prefix import Prefix
from repro.addressing.trie import LpmTrie
from repro.bgp.policy import (
    ExportPolicy,
    GaoRexfordPolicy,
    preference_for,
)
from repro.bgp.routes import Key, Route, RouteType
from repro.bgp.speaker import BgpSpeaker
from repro.topology.domain import BorderRouter, Domain
from repro.topology.network import Topology
from repro.trace.tracer import NULL_TRACER

#: A directed peering session: (sender router, receiver router).
Session = Tuple[BorderRouter, BorderRouter]
#: What an export depends on besides route and sender (``None``: iBGP).
Terms = Optional[Tuple[bool, str, str]]


def mark_pending(
    table: Dict, owner, keys: Optional[Iterable[Key]]
) -> None:
    """Add ``keys`` to ``owner``'s pending set in ``table``; ``None``
    stands for every key and absorbs whatever was pending."""
    if keys is None:
        table[owner] = None
        return
    pending = table.setdefault(owner, set())
    if pending is not None:
        pending.update(keys)


class UpdateGroup:
    """The sessions of one router with equal terms whose receivers
    read ``table`` as their view of the session: one diff per round
    serves every member. The table keeps its identity for the group's
    life."""

    __slots__ = ("table", "members")

    def __init__(self) -> None:
        self.table: Dict[Key, Route] = {}
        self.members: Tuple[BorderRouter, ...] = ()

    def leave(self, peer: BorderRouter) -> None:
        """``peer``'s session is no member any more."""
        self.members = tuple([p for p in self.members if p is not peer])


class ConvergenceError(Exception):
    """Raised when BGP fails to stabilise within the round budget."""

    def __init__(self, message: str, rounds: int = 0):
        super().__init__(message)
        #: Rounds spent before giving up.
        self.rounds = rounds


class GribDelta(NamedTuple):
    """One structured G-RIB change at one router.

    ``kind`` is ``"added"``, ``"withdrawn"`` or ``"changed"`` (the
    best route for the prefix was replaced — next hop, AS path or
    preference moved). Deltas are emitted by the decision process as
    it patches the Loc-RIB, per speaker in (network, length) order, so
    a recompute that selects the same best routes emits nothing.
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

    #: Per key lost outright in the synchronous convergence under way, the
    #: domains that moved it since; between convergences only this default.
    _lost: Optional[Dict[Key, Set[int]]] = None

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
        #: UPDATE messages sent across all sessions, network lifetime:
        #: one per directed session per round that carried a changed
        #: key. A key whose export equals the advertised table is
        #: suppressed — a real speaker does not re-announce a stable route.
        self.updates_sent = 0
        #: Down sessions (both orderings of the router pair) and crashed
        #: routers — maintained by the fault layer.
        self._down_sessions: Set[Session] = set()
        self._down_routers: Set[BorderRouter] = set()
        #: The speakers with decisions due (each keeps which keys), and
        #: per speaker the keys whose exports must be re-evaluated
        #: although their best route did not move (``None``: every key).
        self._dirty: Set[BgpSpeaker] = set()
        self._export_dirty: Dict[BgpSpeaker, Optional[Set[Key]]] = {}
        #: Per router, its update groups by terms. A live session that
        #: is no group's member is *private*: its advertised table —
        #: what the sender advertised, in receiver-relative form — is
        #: its own entry in ``_advertised`` (none: it has advertised
        #: nothing). Either table is the receiver's view of the session.
        self._groups: Dict[BorderRouter, Dict[Terms, UpdateGroup]] = {}
        self._advertised: Dict[Session, Dict[Key, Route]] = {}
        #: Every AS path an export built, each its own key: routes with
        #: equal paths share one tuple for the network's life.
        self._paths: Dict[Tuple[int, ...], Tuple[int, ...]] = {}
        #: Per router, its live sessions by update group, dropped when a
        #: session or router comes or goes (group membership stays);
        #: every speaker's canonical rank, dropped when one is added.
        self._sessions: Dict[BorderRouter, List] = {}
        self._rank: Optional[Dict[BgpSpeaker, int]] = None
        #: Per-domain cache of originated prefixes by type, and the
        #: network-wide longest-match index of GROUP origins; both are
        #: invalidated by :meth:`origins_changed`.
        self._own_prefix_cache: Dict[
            Domain, Dict[RouteType, List[Tuple[int, int]]]
        ] = {}
        self._origin_index: Optional[LpmTrie] = None
        #: G-RIB delta subscribers (the BGMP tree-maintenance engine)
        #: and the deltas accumulated since the last flush; nothing is
        #: recorded until the first subscriber registers.
        self._grib_subscribers: List = []
        self._pending_grib_deltas: List[GribDelta] = []
        for router in topology.routers():
            self.speakers[router] = self._new_speaker(router)

    def _new_speaker(self, router: BorderRouter) -> BgpSpeaker:
        speaker = BgpSpeaker(router)
        speaker._listener = self
        # Nothing to decide yet; the first full export seats its
        # sessions in their update groups.
        self._export_dirty[speaker] = None
        return speaker

    # ------------------------------------------------------------------
    # Dirty bookkeeping (called by BgpSpeaker mutation hooks)

    def decisions_due(self, speaker: BgpSpeaker) -> None:
        """``speaker`` recorded decisions due: it reruns the decision
        process for them, and whatever moves is exported."""
        self._dirty.add(speaker)

    def key_lost(self, speaker: BgpSpeaker, key: Key) -> None:
        """``speaker`` lost its last route for ``key``."""
        if self._lost is not None and key not in self._lost:
            self._lost[key] = set()

    def speaker_dirty(self, speaker: BgpSpeaker) -> None:
        """Everything about ``speaker`` is suspect: every key is
        re-decided *and* re-exported."""
        speaker.redecide_all()
        self._dirty.add(speaker)
        self._export_dirty[speaker] = None

    def origins_changed(self, speaker: BgpSpeaker, key: Key) -> None:
        """A speaker started or stopped originating ``key``: the
        domain's own-prefix cache and the network-wide origin index
        are stale, and every speaker of the domain filters exports
        against the domain's origins (aggregation), so each must
        re-export the keys the prefix strictly covers."""
        domain = speaker.domain
        self._own_prefix_cache.pop(domain, None)
        self._origin_index = None
        if not self.aggregate:
            return
        network, length, route_type = key
        shift = ADDRESS_BITS - length
        for router in domain.routers.values():
            peer_speaker = self.speakers.get(router)
            if peer_speaker is None:
                continue
            covered = [
                held
                for held in peer_speaker.loc_rib.keys()
                if held[2] is route_type
                and held[1] > length
                and (held[0] ^ network) >> shift == 0
            ]
            if covered:
                mark_pending(self._export_dirty, peer_speaker, covered)

    def invalidate(self) -> None:
        """Mark every key of every speaker dirty and drop every cache
        — the big hammer for callers that mutate the topology after
        construction. The advertised tables stay: they are what
        receivers read, and the full re-export is diffed against them;
        a member whose terms changed leaves its group with a private
        copy of the group's table, which its receiver reads from now."""
        self._own_prefix_cache.clear()
        self._origin_index = None
        self._sessions.clear()
        self._rank = None
        for router, groups in self._groups.items():
            for terms, group in groups.items():
                for peer in group.members:
                    if self._session_terms(router, peer) != terms:
                        group.leave(peer)
                        table = self._advertised[router, peer] = dict(
                            group.table
                        )
                        self.speakers[peer]._adj_in[router] = table
        for speaker in self.speakers.values():
            self.speaker_dirty(speaker)
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

    def grib_moved(
        self, speaker: BgpSpeaker, prefix: Prefix, kind: str
    ) -> None:
        """Speaker hook: the best group route for ``prefix`` was just
        added, withdrawn or changed in its Loc-RIB."""
        if self._grib_subscribers:
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
            self._rank = None
            # Existing neighbors must send to the newcomer.
            self._sessions.clear()
            self._reexport_peers(router)
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
        down = self._down_routers
        if down and (a in down or b in down):
            return False
        return not self._down_sessions or (a, b) not in self._down_sessions

    @staticmethod
    def _peers(router: BorderRouter) -> List[BorderRouter]:
        """``router``'s session peers: external, then the iBGP mesh."""
        return list(router.external_neighbors) + router.internal_peers()

    def _reexport_peers(self, router: BorderRouter) -> None:
        """``router`` lost what its peers had advertised to it: each of
        them must re-evaluate every export."""
        for peer in self._peers(router):
            peer_speaker = self.speakers.get(peer)
            if peer_speaker is not None:
                self._export_dirty[peer_speaker] = None

    def set_session_state(
        self, a: BorderRouter, b: BorderRouter, up: bool
    ) -> None:
        """Bring a session down or back up.

        Going down immediately withdraws everything either side learned
        from the other (BGP's session-loss semantics); coming back up
        re-advertises on the next :meth:`converge` — both ends
        re-evaluate every export against the now-empty advertised
        tables, so no explicit replay is needed.
        """
        if up == ((a, b) not in self._down_sessions):
            return
        self._sessions.clear()
        if up:
            self._down_sessions.difference_update(((a, b), (b, a)))
            for router in (a, b):
                self.speaker_dirty(self.speaker(router))
            return
        self._down_sessions.update(((a, b), (b, a)))
        self.speaker(a).drop_session(b)
        self.speaker(b).drop_session(a)
        self._forget_session(a, b)

    def _forget_session(self, a: BorderRouter, b: BorderRouter) -> None:
        """Both receivers dropped their views: both directions' private
        tables and group memberships go too."""
        for sender, receiver in ((a, b), (b, a)):
            self._advertised.pop((sender, receiver), None)
            for group in self._groups.get(sender, {}).values():
                if receiver in group.members:
                    group.leave(receiver)

    def fail_router(self, router: BorderRouter) -> None:
        """Crash a border router: every peer withdraws the routes it
        learned from it, and the router's own volatile state is lost
        (origins survive — they model configuration)."""
        if router in self._down_routers:
            return
        self._down_routers.add(router)
        self._sessions.clear()
        for peer in self._peers(router):
            peer_speaker = self.speakers.get(peer)
            if peer_speaker is not None:
                peer_speaker.drop_session(router)
            self._forget_session(router, peer)
        self._groups.pop(router, None)
        self.speaker(router).reset()

    def restore_router(self, router: BorderRouter) -> None:
        """Restart a crashed router; the next :meth:`converge` rebuilds
        its sessions and re-announces its origins."""
        if router not in self._down_routers:
            return
        self._down_routers.discard(router)
        self._sessions.clear()
        self.speaker_dirty(self.speaker(router))
        self._reexport_peers(router)

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

        Each round: the exporting speakers export their pending keys
        once per distinct session terms, every key whose export differs
        from a live session's advertised table is delivered (one UPDATE
        per session that carried any, counted in :attr:`updates_sent`),
        then every speaker that received one reruns the decision process
        for the delivered keys. Crashed routers and down sessions carry
        nothing — their routes were withdrawn when the fault hit.

        The first round exports the keys left pending by mutation
        hooks plus whatever the initial decision pass moves; later
        rounds exactly the keys whose best route moved in the round
        before. A key whose inputs did not change would be re-decided
        to the same route and a suppressed advertisement, so skipping
        it changes neither the delivered updates nor the round count.
        """
        if self._rank is None:
            routers = self._ordered_routers()
            self._rank = {self.speakers[r]: i for i, r in enumerate(routers)}
        rank = self._rank
        self._lost = self._lost or {}  # kept by a budget-exhausted call
        tracer, live = self.tracer, len(rank) - len(self._down_routers)
        try:
            with tracer.span(
                "bgp.converge", layer="bgp", speakers=live
            ) as span:
                exporters = self._run_decisions(rank)
                for round_index in range(1, max_rounds + 1):
                    round_updates = 0
                    for speaker, keys in exporters:
                        round_updates += self._send_round(speaker, keys)
                    self.updates_sent += round_updates
                    exporters = self._run_decisions(rank)
                    if tracer.enabled:
                        span.event(
                            "round",
                            index=round_index,
                            updates=round_updates,
                            changed=bool(exporters),
                        )
                    if not exporters:
                        del self._lost
                        span.finish(
                            status="converged", rounds=round_index
                        )
                        return ConvergenceResult(True, round_index)
                # Budget exhausted mid-flight: remember which keys
                # still have unexported changes so the next attempt
                # resumes instead of silently dropping them.
                for speaker, keys in exporters:
                    mark_pending(self._export_dirty, speaker, keys)
                span.finish(status="budget-exhausted", rounds=max_rounds)
                return ConvergenceResult(False, max_rounds)
        finally:
            self.flush_grib_deltas()

    def _run_decisions(
        self, rank: Dict[BgpSpeaker, object]
    ) -> List[Tuple[BgpSpeaker, Optional[Set[Key]]]]:
        """Every live speaker in ``rank`` (by canonical position) with
        decisions due settles them; returns the live speakers left with
        keys to export — moved just now or pending from mutation hooks
        — in rank order."""
        dirty, lost = self._dirty, self._lost
        for speaker in self._live(dirty, rank):
            dirty.discard(speaker)
            moved = speaker.recompute()
            if moved:
                mark_pending(self._export_dirty, speaker, moved)
                for key in lost.keys() & moved if lost else ():
                    lost[key].add(speaker.router.domain.domain_id)
        ready = self._live(self._export_dirty, rank)
        return [(s, self._export_dirty.pop(s)) for s in ready]

    def _live(self, speakers: Iterable[BgpSpeaker], rank: Dict) -> List:
        """``speakers`` in ``rank`` whose router is up, in rank order."""
        found = [s for s in speakers if s in rank]
        if self._down_routers:
            found = [s for s in found if s.router not in self._down_routers]
        return sorted(found, key=rank.__getitem__)

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

    def _update_groups(self, router: BorderRouter) -> List:
        """``router``'s live sessions as (terms, update group, private
        peers) tuples in first-seen peer order (external, then iBGP);
        cached."""
        classes = self._sessions.get(router)
        if classes is None:
            groups = self._groups.setdefault(router, {})
            found: Dict[Terms, List[BorderRouter]] = {}
            for peer in self._peers(router):
                if self.session_up(router, peer):
                    terms = self._session_terms(router, peer)
                    found.setdefault(terms, []).append(peer)
            classes = []
            for terms, peers in found.items():
                group = groups.setdefault(terms, UpdateGroup())
                joined = set(group.members)
                private = [peer for peer in peers if peer not in joined]
                classes.append((terms, group, tuple(private)))
            classes = self._sessions[router] = tuple(classes)
        return classes

    # ------------------------------------------------------------------
    # Export once per terms class, diff once per update group, deliver
    # in one batch (shared with the schedule in ``repro.bgp.events``)

    def _send_round(
        self, speaker: BgpSpeaker, keys: Optional[Set[Key]]
    ) -> int:
        """``speaker``'s turn in a round; returns the UPDATEs sent. After
        a full export (``keys`` None) every private table provably
        equals its group's, so the private sessions join it and their
        receivers read the group's table from then on."""
        router = speaker.router
        advertised = self._advertised
        groups = self._update_groups(router)
        held = []  # what a full export must cover besides the Loc-RIB
        for _terms, group, private in groups if keys is None else ():
            held.append(group.table)
            held.extend(advertised.get((router, p), {}) for p in private)
        bests = self._best_routes(speaker, keys, held)
        stale = self._superseded(speaker, bests) if self._lost else None
        sent, merged = 0, False
        for terms, group, private in groups:
            exports = self._exports(router, terms, bests)
            table = group.table
            changes = self._diff(table, exports, stale)
            if changes:
                for peer in group.members:
                    self.speaker(peer).deliver(router, table, changes)
                sent += len(group.members)
            for peer in private:
                own = advertised.setdefault((router, peer), {})
                changes = self._diff(own, exports, stale)
                if changes:
                    self.speaker(peer).deliver(router, own, changes)
                    sent += 1
            if keys is None and private:
                for peer in private:
                    del advertised[router, peer]
                    self.speaker(peer)._adj_in[router] = table
                group.members += private
                merged = True
        if merged:
            self._sessions[router] = tuple([
                (terms, group, ()) for terms, group, _private in groups
            ])
        return sent

    def _best_routes(
        self,
        speaker: BgpSpeaker,
        keys: Optional[Iterable[Key]],
        tables: Iterable[Dict[Key, Route]],
    ) -> List[Tuple[Key, Optional[Route]]]:
        """``keys`` (None: every key the speaker holds or has
        advertised in any of ``tables``) in canonical order, each with
        the speaker's best route for it."""
        installed = speaker.loc_rib.best
        if keys is None:
            keys = set(installed).union(*tables)
        return [(key, installed.get(key)) for key in sorted(keys)]

    def _superseded(self, speaker: BgpSpeaker, bests: List) -> Set[Key]:
        """The keys of ``bests`` whose route was built from one a router
        on its next-hop chain no longer holds, left pending; a walk stops
        where no domain left on the path moved the key this convergence."""
        lost, speakers, stale = self._lost, self.speakers, set()
        for key, route in bests:
            if route is None or key not in lost:
                continue
            moved, holder = lost[key], speaker
            while route.next_hop and not moved.isdisjoint(route.as_path):
                hop, path = route.next_hop, route.as_path
                # Equal, not only identical: a view that moved to its
                # group's table holds equal routes of the group's.
                held = holder._adj_in[hop].get(key)
                holder, internal = speakers[hop], route.from_internal
                upstream = holder.loc_rib.best.get(key)
                if (held is not route and held != route) or (
                    upstream is None
                    or upstream.as_path != (path if internal else path[1:])
                    or internal and upstream.from_internal
                ):
                    stale.add(key)
                    break
                route = upstream
        if stale:
            mark_pending(self._export_dirty, speaker, stale)
        return stale

    def _exports(
        self, router: BorderRouter, terms: Terms, bests: List
    ) -> List[Tuple[Key, Optional[Route]]]:
        """``bests`` as the sessions of ``router`` with ``terms`` get
        them (``None``: not advertised there), in one pass: the export
        policy, the multicast capability of the link and the aggregation
        filter, each route built in the receiver-relative form of
        :meth:`Route.advertised_by`."""
        if terms is None:
            # iBGP redistributes what was learned outside the domain.
            return [
                (key, None if best is None or best.from_internal else Route(
                    best.prefix, key[2], router, best.as_path,
                    best.local_pref, True, best.learned_from,
                ))
                for key, best in bests
            ]
        multicast_ok, exporting_to, learned_from = terms
        domain = router.domain
        allows = self.policy.allows
        own = self._own_prefixes_by_type(domain) if self.aggregate else {}
        # Receiver-relative form: local_pref and learned_from reflect
        # the receiver's relationship to us (customer routes preferred).
        local_pref = preference_for(learned_from)
        head = (domain.domain_id,)
        paths = self._paths
        unicast = RouteType.UNICAST
        exports = []
        for key, best in bests:
            route = None
            # Unicast-only links carry no multicast routing state: group
            # and M-RIB routes detour around them, making the multicast
            # topology incongruent with the unicast one (sections 2-3 of
            # the paper).
            if best is not None and (multicast_ok or key[2] is unicast) and (
                allows(domain, best, best.learned_from, exporting_to)
            ):
                network, length, kind = key
                # A learned route strictly inside one of the domain's
                # own prefixes is covered by the aggregate (section 4.3.2).
                for own_network, own_length in (
                    own.get(kind, ()) if best.next_hop is not None else ()
                ):
                    if own_length < length and not (
                        (network ^ own_network) >> (ADDRESS_BITS - own_length)
                    ):
                        break
                else:
                    path = head + best.as_path
                    route = Route(
                        best.prefix, kind, router,
                        paths.setdefault(path, path),
                        local_pref, False, learned_from,
                    )
            exports.append((key, route))
        return exports

    @staticmethod
    def _diff(
        table: Dict[Key, Route], exports: List, stale=None
    ) -> List[Tuple[Key, Optional[Route], Optional[Route]]]:
        """Bring the advertised table ``table`` up to date with
        ``exports``; the difference is the UPDATE to deliver, each
        changed key with the route it held and the one it holds now
        (``None``: withdrawn). A ``stale`` key is withdrawn, not
        announced anew."""
        changes = []
        for key, route in exports:
            held = table.get(key)
            if route is None or stale and key in stale and route != held:
                if held is not None:
                    del table[key]
                    changes.append((key, held, None))
            elif held is None or route != held:
                table[key] = route
                changes.append((key, held, route))
        return changes

    def _session_terms(
        self, router: BorderRouter, peer: BorderRouter
    ) -> Terms:
        """What an export on the external session router -> peer
        depends on besides the route: whether the link carries
        multicast, what the peer's domain is to ours (export policy)
        and ours to the peer's (the receiver-relative attributes).
        ``None`` for an iBGP session."""
        domain = router.domain
        if peer.domain == domain:
            return None
        return (
            self.topology.multicast_capable(router, peer),
            domain.relationship_to(peer.domain),
            peer.domain.relationship_to(domain),
        )

    def _own_prefixes_by_type(
        self, domain: Domain
    ) -> Dict[RouteType, List[Tuple[int, int]]]:
        """The (network, length) of each prefix originated in
        ``domain``, by type; cached."""
        found = self._own_prefix_cache.get(domain)
        if found is None:
            found = {}
            for router in domain.routers.values():
                speaker = self.speakers.get(router)
                if speaker is None:
                    continue
                for network, length, kind in speaker._origins:
                    found.setdefault(kind, []).append((network, length))
            self._own_prefix_cache[domain] = found
        return found

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
        """SHA-256 over every router's Loc-RIB in canonical order; a
        crashed router contributes its header line only. One pass:
        each prefix and next hop is formatted once, each shared route
        once per domain."""
        digest = hashlib.sha256()
        texts: Dict[object, str] = {None: "-"}
        domain, lines = None, {}
        for router in self._ordered_routers():
            # A domain's routers share most routes over the iBGP mesh;
            # lines kept across domains would pile up every route's.
            if router.domain is not domain:
                domain, lines = router.domain, {}
            parts = [f"@{router.domain.domain_id}/{router.name}".encode()]
            for route in self.speakers[router].loc_rib.routes():
                line = lines.get(id(route))
                if line is None:
                    prefix, hop = route.prefix, route.next_hop
                    if prefix not in texts:
                        texts[prefix] = str(prefix)
                    if hop not in texts:
                        texts[hop] = f"{hop.domain.domain_id}/{hop.name}"
                    path = ",".join(map(str, route.as_path))
                    line = lines[id(route)] = (
                        f"{texts[prefix]}|{route.route_type.value}|"
                        f"{texts[hop]}|{path}|{route.local_pref}|"
                        f"{route.from_internal}|{route.learned_from}"
                    ).encode()
                parts.append(line)
            digest.update(b"".join(parts))
        return digest.hexdigest()
