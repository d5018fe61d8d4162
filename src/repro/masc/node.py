"""The MASC claim-collide state machine.

One :class:`MascNode` per MASC domain, driven by the discrete-event
simulator. Nodes exchange the messages of :mod:`repro.masc.messages`
over an overlay (:class:`MascOverlay`) that models per-link delay and
partitions.

The protocol (section 4.1 of the paper):

1. A child listens to its parent's space advertisements.
2. To acquire space it selects a sub-range not known to be claimed,
   announces the claim to its parent and siblings, and waits out the
   collision-detection period (48 hours by default — "long enough to
   span network partitions").
3. A sibling already using (or simultaneously claiming and winning)
   the range answers with a collision announcement; the loser abandons
   the claim and tries a different range.
4. A claim that survives the waiting period is confirmed: the node
   hands it to its MAASes and injects it into BGP as a group route
   (the ``on_confirmed`` callback).

Winner resolution on simultaneous claims follows footnote 4 of the
paper: the lower domain identifier wins.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List, Optional, Tuple

from repro.addressing.leases import LeaseTable
from repro.addressing.prefix import MULTICAST_SPACE, Prefix
from repro.masc.config import MascConfig
from repro.masc.messages import (
    ClaimMessage,
    CollisionMessage,
    HelloMessage,
    ReleaseMessage,
    RenewalAck,
    RenewalMessage,
    SpaceAdvertisement,
)
from repro.masc.spaces import ClaimedSpace, select_claim
from repro.sim.engine import Event, Simulator
from repro.trace.tracer import NULL_SPAN, NULL_TRACER


class PendingClaim:
    """One in-flight claim attempt (re-created on every retry).

    The trace ``span`` (when tracing is on) survives retries: a claim
    that collides, backs off, and reselects is one transaction, so the
    retry's :class:`PendingClaim` inherits the span of the attempt it
    replaces.
    """

    __slots__ = (
        "prefix", "length", "serial", "attempts", "timer",
        "on_confirmed", "on_failed", "expires_at", "span",
    )

    def __init__(
        self,
        prefix: Prefix,
        length: int,
        serial: int,
        attempts: int,
        timer: Event,
        on_confirmed: Optional[Callable[[Prefix], None]],
        on_failed: Optional[Callable[[], None]],
        expires_at: float,
        span=NULL_SPAN,
    ):
        self.prefix = prefix
        self.length = length
        self.serial = serial
        self.attempts = attempts
        self.timer = timer
        self.on_confirmed = on_confirmed
        self.on_failed = on_failed
        self.expires_at = expires_at
        self.span = span


class PendingRenewal:
    """One in-flight renewal exchange, retried with backoff until a
    parent acks or the attempt budget runs out."""

    __slots__ = (
        "prefix", "serial", "attempts", "timer", "expires_at", "span",
    )

    def __init__(
        self,
        prefix: Prefix,
        serial: int,
        attempts: int,
        timer: Event,
        expires_at: float,
        span=NULL_SPAN,
    ):
        self.prefix = prefix
        self.serial = serial
        self.attempts = attempts
        self.timer = timer
        self.expires_at = expires_at
        self.span = span


class MascOverlay:
    """Message transport between MASC nodes.

    Supports per-delivery delay (plus optional uniform jitter),
    administratively cut links (to model the network partitions the
    waiting period guards against), random message loss (which periodic
    re-announcement rides out), a deterministic ``drop_filter`` for
    targeted fault injection, and crashed endpoints (a dead sender
    emits nothing; a message in flight to a node that is dead on
    arrival is lost).
    """

    def __init__(
        self,
        sim: Simulator,
        delay: float = 0.1,
        loss_rate: float = 0.0,
        rng: Optional[random.Random] = None,
        jitter: float = 0.0,
    ):
        if not 0.0 <= loss_rate < 1.0:
            raise ValueError(f"loss rate out of range: {loss_rate}")
        if jitter < 0.0:
            raise ValueError(f"negative jitter: {jitter}")
        self.sim = sim
        self.delay = delay
        self.loss_rate = loss_rate
        self.jitter = jitter
        self.rng = rng if rng is not None else random.Random(0)
        self.messages_dropped = 0
        #: Deterministic loss hook: ``drop_filter(src, dst, message)``
        #: returning True drops the message (fault-injection tests).
        self.drop_filter: Optional[
            Callable[["MascNode", "MascNode", object], bool]
        ] = None
        self._cut: set = set()

    def cut(self, a: "MascNode", b: "MascNode") -> None:
        """Partition a pair of nodes (messages silently dropped)."""
        self._cut.add(frozenset((a.node_id, b.node_id)))

    def heal(self, a: "MascNode", b: "MascNode") -> None:
        """Repair a previously cut pair."""
        self._cut.discard(frozenset((a.node_id, b.node_id)))

    def send(self, src: "MascNode", dst: "MascNode", message) -> None:
        """Deliver a message after the overlay delay, unless cut,
        lost, or an endpoint is dead."""
        if not src.alive:
            return
        if frozenset((src.node_id, dst.node_id)) in self._cut:
            return
        if self.drop_filter is not None and self.drop_filter(
            src, dst, message
        ):
            self.messages_dropped += 1
            return
        if self.loss_rate and self.rng.random() < self.loss_rate:
            self.messages_dropped += 1
            return
        delay = self.delay
        if self.jitter:
            delay += self.rng.uniform(0.0, self.jitter)
        self.sim.schedule(delay, self._deliver, dst, message, src)

    def _deliver(self, dst: "MascNode", message, src: "MascNode") -> None:
        if not dst.alive:
            self.messages_dropped += 1
            return
        dst.handle(message, src)


class MascNode:
    """MASC protocol engine for one domain."""

    def __init__(
        self,
        node_id: int,
        name: str,
        overlay: MascOverlay,
        config: Optional[MascConfig] = None,
        rng: Optional[random.Random] = None,
        on_confirmed: Optional[Callable[[Prefix], None]] = None,
        on_released: Optional[Callable[[Prefix], None]] = None,
        tracer=None,
    ):
        self.node_id = node_id
        self.name = name
        self.overlay = overlay
        self.config = config if config is not None else MascConfig()
        self.rng = rng if rng is not None else random.Random(node_id)
        #: Telemetry sink (assignable after construction; the null
        #: tracer makes every trace call a no-op).
        self.tracer = tracer if tracer is not None else NULL_TRACER
        #: MASC parents — the paper allows "one or more" providers.
        self.parents: List[MascNode] = []
        self.children: List[MascNode] = []
        self.siblings: List[MascNode] = []
        #: Ranges advertised per parent (node id -> prefixes).
        self._advertised: Dict[int, List[Prefix]] = {}
        #: Explicit claimable-space override (exchange bootstrap).
        self._space_override: Optional[List[Prefix]] = None
        #: Ranges known claimed by others, mapped to the claimant id.
        self.heard_claims: Dict[Prefix, int] = {}
        #: This node's confirmed claims, with lifetimes.
        self.claimed = LeaseTable()
        self._pending: List[PendingClaim] = []
        self._serial = 0
        self._on_confirmed = on_confirmed
        self._on_released = on_released
        #: Failure-handling state.
        self.alive = True
        self._heard_expiry: Dict[Prefix, float] = {}
        self._renewals: Dict[int, PendingRenewal] = {}
        self._renew_timers: Dict[Prefix, Event] = {}
        self._renew_serial = 0
        self._last_heard: Dict[int, float] = {}
        self._suspect_parents: set = set()
        self._hello_timer: Optional[Event] = None
        self._liveness_epoch: Optional[float] = None
        #: Counters for tests and reports.
        self.collisions_sent = 0
        self.collisions_received = 0
        self.claims_confirmed = 0
        self.claims_failed = 0
        self.oversize_collisions = 0
        self.renewals_acked = 0
        self.renewal_retries = 0
        self.renewals_failed = 0
        self.failovers = 0
        self.crashes = 0
        self.heard_claims_gced = 0

    # ------------------------------------------------------------------
    # Hierarchy wiring

    @property
    def parent(self) -> Optional["MascNode"]:
        """The primary (first) parent, None for top-level nodes."""
        return self.parents[0] if self.parents else None

    @property
    def parent_spaces(self) -> List[Prefix]:
        """The ranges this node may claim from: an explicit override
        (exchange bootstrap), else the union of every parent's
        advertisements, else the whole class-D space (top level)."""
        if self._space_override is not None:
            return list(self._space_override)
        if self.parents:
            spaces: List[Prefix] = []
            for parent in self.parents:
                spaces.extend(self._advertised.get(parent.node_id, ()))
            if spaces:
                return spaces
        # Top level, or parents that hold nothing yet (bootstrap):
        # claim straight from the class-D space.
        return [MULTICAST_SPACE]

    @parent_spaces.setter
    def parent_spaces(self, spaces: List[Prefix]) -> None:
        self._space_override = list(spaces)

    def set_parent(self, parent: "MascNode") -> None:
        """Attach under a parent node; sibling lists update on both
        sides and the parent advertises its space. May be called with
        several providers — the paper's "one or more … MASC parent"."""
        if parent in self.parents:
            return
        self.parents.append(parent)
        for child in parent.children:
            if child is not self:
                if child not in self.siblings:
                    self.siblings.append(child)
                if self not in child.siblings:
                    child.siblings.append(self)
        parent.children.append(self)
        parent.advertise_space()

    add_parent = set_parent

    def add_top_level_peer(self, other: "MascNode") -> None:
        """Register another top-level domain as a sibling (all
        top-level domains claim from 224/4 together)."""
        if other not in self.siblings:
            self.siblings.append(other)
        if self not in other.siblings:
            other.siblings.append(self)

    def advertise_space(self) -> None:
        """Send the current claimed ranges to every child."""
        prefixes = tuple(self.claimed.prefixes())
        message = SpaceAdvertisement(self.node_id, prefixes)
        for child in self.children:
            self.overlay.send(self, child, message)

    # ------------------------------------------------------------------
    # Claiming

    def start_claim(
        self,
        length: int,
        lifetime: float = float("inf"),
        on_confirmed: Optional[Callable[[Prefix], None]] = None,
        on_failed: Optional[Callable[[], None]] = None,
    ) -> Optional[Prefix]:
        """Begin acquiring a /``length`` range.

        Returns the initially selected prefix (None when the known free
        space cannot fit the request). Confirmation is asynchronous:
        ``on_confirmed`` fires after the waiting period if no collision
        arrives.
        """
        prefix = self._select(length)
        if prefix is None:
            self.claims_failed += 1
            if self.tracer.enabled:
                self.tracer.event(
                    "masc.claim_rejected", node=self.name, length=length
                )
            if on_failed is not None:
                on_failed()
            return None
        expires_at = (
            self.overlay.sim.now + lifetime
            if lifetime != float("inf")
            else float("inf")
        )
        self._serial += 1
        span = NULL_SPAN
        if self.tracer.enabled:
            span = self.tracer.start_span(
                "masc.claim",
                layer="masc",
                node=self.name,
                length=length,
                prefix=str(prefix),
            )
        pending = PendingClaim(
            prefix,
            length,
            self._serial,
            attempts=1,
            timer=self._arm_timer(prefix, self._serial),
            on_confirmed=on_confirmed,
            on_failed=on_failed,
            expires_at=expires_at,
            span=span,
        )
        self._pending.append(pending)
        self._announce(pending)
        self._schedule_reannounce(pending)
        return prefix

    def _schedule_reannounce(self, pending: PendingClaim) -> None:
        # Scheduled as a bound method keyed by serial (not a closure
        # over the PendingClaim) so a pending re-announce timer in the
        # event queue survives a checkpoint (repro.checkpoint).
        interval = self.config.reannounce_interval
        if interval is None:
            return
        self.overlay.sim.schedule(
            interval, self._reannounce_tick, pending.serial
        )

    def _reannounce_tick(self, serial: int) -> None:
        pending = self._find_pending(serial)
        if pending is None:
            return
        self._announce(pending)
        self.overlay.sim.schedule(
            self.config.reannounce_interval, self._reannounce_tick, serial
        )

    def _arm_timer(self, prefix: Prefix, serial: int) -> Event:
        return self.overlay.sim.schedule(
            self.config.waiting_period,
            self._confirm,
            prefix,
            serial,
            name=f"{self.name}-claim-wait",
        )

    def _announce(self, pending: PendingClaim) -> None:
        if self.tracer.enabled:
            pending.span.event(
                "announce",
                prefix=str(pending.prefix),
                attempt=pending.attempts,
            )
        message = ClaimMessage(
            self.node_id,
            pending.prefix,
            pending.serial,
            pending.expires_at,
        )
        for parent in self.parents:
            self.overlay.send(self, parent, message)
        for sibling in self.siblings:
            self.overlay.send(self, sibling, message)

    def _select(self, length: int) -> Optional[Prefix]:
        """The claim algorithm's selection step against this node's
        *local view*: parent spaces minus heard claims, own claims, and
        own pending claims. Each range is booked into a throwaway view
        of each parent space; one outside a view, or overlapping a range
        already booked there, is skipped."""
        taken = list(self.heard_claims)
        taken.extend(self.claimed.prefixes())
        taken.extend(p.prefix for p in self._pending)
        views = [ClaimedSpace(space) for space in self.parent_spaces]
        for view in views:
            for prefix in taken:
                view.allocate_exact(prefix)
        return select_claim(
            views, length, self.rng, self.config.claim_policy
        )

    def _confirm(self, prefix: Prefix, serial: int) -> None:
        pending = self._find_pending(serial)
        if pending is None or pending.prefix != prefix:
            return
        self._pending.remove(pending)
        self.claimed.add(prefix, pending.expires_at, holder=self.name)
        self.claims_confirmed += 1
        pending.span.finish(
            status="confirmed", prefix=str(prefix),
            attempts=pending.attempts,
        )
        self.advertise_space()
        self._schedule_renewal(prefix)
        if pending.on_confirmed is not None:
            pending.on_confirmed(prefix)
        if self._on_confirmed is not None:
            self._on_confirmed(prefix)

    def _find_pending(self, serial: int) -> Optional[PendingClaim]:
        for pending in self._pending:
            if pending.serial == serial:
                return pending
        return None

    # ------------------------------------------------------------------
    # Release and expiry

    def release(self, prefix: Prefix) -> None:
        """Give up a confirmed range."""
        self.claimed.remove(prefix)
        self._cancel_renewal(prefix)
        message = ReleaseMessage(self.node_id, prefix)
        for parent in self.parents:
            self.overlay.send(self, parent, message)
        for sibling in self.siblings:
            self.overlay.send(self, sibling, message)
        self.advertise_space()
        if self._on_released is not None:
            self._on_released(prefix)

    def expire(self) -> List[Prefix]:
        """Drop claims whose lifetime has passed (unrenewed ranges
        become claimable by others, section 4.3.1)."""
        now = self.overlay.sim.now
        expired = [l.prefix for l in self.claimed.expire(now)]
        for prefix in expired:
            self._cancel_renewal(prefix)
            if self.tracer.enabled:
                self.tracer.event(
                    "masc.expire", node=self.name, prefix=str(prefix)
                )
            if self._on_released is not None:
                self._on_released(prefix)
        if expired:
            self.advertise_space()
        return expired

    # ------------------------------------------------------------------
    # Renewal (section 4.3.1: unrenewed ranges lapse)

    def _schedule_renewal(self, prefix: Prefix) -> None:
        """Arm the auto-renew timer ``renew_lead`` before expiry."""
        if not self.config.auto_renew:
            return
        lease = self.claimed.get(prefix)
        if lease is None or lease.expires_at == float("inf"):
            return
        now = self.overlay.sim.now
        delay = max(lease.expires_at - self.config.renew_lead - now, 0.0)
        self._cancel_renewal(prefix)
        self._renew_timers[prefix] = self.overlay.sim.schedule(
            delay, self._begin_renewal, prefix,
            name=f"{self.name}-renew",
        )

    def _cancel_renewal(self, prefix: Prefix) -> None:
        timer = self._renew_timers.pop(prefix, None)
        if timer is not None:
            timer.cancel()
        for serial, renewal in list(self._renewals.items()):
            if renewal.prefix == prefix:
                renewal.timer.cancel()
                renewal.span.finish(status="cancelled")
                del self._renewals[serial]

    def _begin_renewal(self, prefix: Prefix) -> None:
        self._renew_timers.pop(prefix, None)
        if not self.alive or self.claimed.get(prefix) is None:
            return
        new_expiry = self.overlay.sim.now + self.config.claim_lifetime
        if not self.parents:
            # Top level: no renewal authority above; extend locally and
            # tell the siblings so their heard records stay fresh.
            self.claimed.renew(prefix, new_expiry)
            self.renewals_acked += 1
            self._serial_renewal_to_siblings(prefix, new_expiry)
            self._schedule_renewal(prefix)
            return
        self._renew_serial += 1
        span = NULL_SPAN
        if self.tracer.enabled:
            span = self.tracer.start_span(
                "masc.renew",
                layer="masc",
                node=self.name,
                prefix=str(prefix),
            )
        renewal = PendingRenewal(
            prefix,
            self._renew_serial,
            attempts=1,
            timer=self._arm_renewal_timeout(
                self._renew_serial, self.config.renew_ack_timeout
            ),
            expires_at=new_expiry,
            span=span,
        )
        self._renewals[renewal.serial] = renewal
        self._send_renewal(renewal)

    def _serial_renewal_to_siblings(
        self, prefix: Prefix, expires_at: float
    ) -> None:
        message = RenewalMessage(self.node_id, prefix, 0, expires_at)
        for sibling in self.siblings:
            self.overlay.send(self, sibling, message)

    def _arm_renewal_timeout(self, serial: int, timeout: float) -> Event:
        return self.overlay.sim.schedule(
            timeout, self._renewal_timeout, serial,
            name=f"{self.name}-renew-timeout",
        )

    def _send_renewal(self, renewal: PendingRenewal) -> None:
        message = RenewalMessage(
            self.node_id,
            renewal.prefix,
            renewal.serial,
            renewal.expires_at,
        )
        for parent in self.parents:
            self.overlay.send(self, parent, message)
        for sibling in self.siblings:
            self.overlay.send(self, sibling, message)

    def _renewal_timeout(self, serial: int) -> None:
        """No ack yet: retry with exponential backoff, or give up and
        let the lease lapse at its current expiry."""
        renewal = self._renewals.get(serial)
        if renewal is None or not self.alive:
            return
        if renewal.attempts >= self.config.max_renew_attempts:
            del self._renewals[serial]
            self.renewals_failed += 1
            renewal.span.finish(
                status="failed", attempts=renewal.attempts,
            )
            return
        renewal.attempts += 1
        self.renewal_retries += 1
        if self.tracer.enabled:
            renewal.span.event("retry", attempt=renewal.attempts)
        backoff = self.config.renew_ack_timeout * (
            self.config.renew_backoff ** (renewal.attempts - 1)
        )
        renewal.timer = self._arm_renewal_timeout(serial, backoff)
        self._send_renewal(renewal)

    def _handle_renewal_ack(self, message: RenewalAck) -> None:
        renewal = self._renewals.pop(message.renew_serial, None)
        if renewal is None:
            return
        renewal.timer.cancel()
        if self.claimed.get(renewal.prefix) is None:
            renewal.span.finish(status="stale")
            return
        self.claimed.renew(renewal.prefix, renewal.expires_at)
        self.renewals_acked += 1
        renewal.span.finish(status="acked", attempts=renewal.attempts)
        self._schedule_renewal(renewal.prefix)

    def _handle_renewal(
        self, message: RenewalMessage, sender: "MascNode"
    ) -> None:
        """Refresh the heard record; a parent acks its child."""
        self.heard_claims.setdefault(message.prefix, message.sender_id)
        recorded = self._heard_expiry.get(message.prefix, 0.0)
        self._heard_expiry[message.prefix] = max(
            recorded, message.expires_at
        )
        if sender in self.children:
            self.overlay.send(
                self,
                sender,
                RenewalAck(
                    self.node_id, message.prefix, message.renew_serial
                ),
            )

    # ------------------------------------------------------------------
    # Liveness, failover, and garbage collection

    def start_liveness(self) -> None:
        """Begin sending hello beacons and watching the primary parent
        (no-op unless ``config.hello_interval`` is set)."""
        if self.config.hello_interval is None:
            return
        if self._hello_timer is not None:
            self._hello_timer.cancel()
        self._liveness_epoch = self.overlay.sim.now
        self._hello_timer = self.overlay.sim.schedule(
            self.config.hello_interval, self._hello_tick,
            name=f"{self.name}-hello",
        )

    def _hello_tick(self) -> None:
        if not self.alive:
            return
        message = HelloMessage(self.node_id)
        for peer in self.parents + self.children + self.siblings:
            self.overlay.send(self, peer, message)
        self._check_parent_liveness()
        self.gc_heard_claims()
        self.expire()
        self._hello_timer = self.overlay.sim.schedule(
            self.config.hello_interval, self._hello_tick,
            name=f"{self.name}-hello",
        )

    def _check_parent_liveness(self) -> None:
        primary = self.parent
        if primary is None or len(self.parents) < 2:
            return
        if primary.node_id in self._suspect_parents:
            return
        now = self.overlay.sim.now
        heard = self._last_heard.get(
            primary.node_id, self._liveness_epoch or now
        )
        if now - heard > self.config.liveness_timeout:
            self._parent_failover(primary)

    def _parent_failover(self, dead: "MascNode") -> None:
        """Demote a silent primary parent; the next configured parent
        becomes primary and its advertised space drives new claims."""
        self._suspect_parents.add(dead.node_id)
        self.parents.remove(dead)
        self.parents.append(dead)
        self._advertised.pop(dead.node_id, None)
        self.failovers += 1

    def gc_heard_claims(self) -> None:
        """Drop heard claims whose lifetime has lapsed — the lease-
        expiry garbage collection that reclaims space held by crashed
        (hence silent, hence unrenewed) children and siblings."""
        now = self.overlay.sim.now
        for prefix, expires_at in list(self._heard_expiry.items()):
            if expires_at <= now:
                del self._heard_expiry[prefix]
                if self.heard_claims.pop(prefix, None) is not None:
                    self.heard_claims_gced += 1

    # ------------------------------------------------------------------
    # Crash and restart

    def crash(self) -> None:
        """Stop participating: timers die, in-flight claims are lost.
        Confirmed leases persist (allocations outlive the process) but
        are not renewed, so they lapse unless the node restarts."""
        if not self.alive:
            return
        self.alive = False
        self.crashes += 1
        if self.tracer.enabled:
            self.tracer.event("masc.crash", node=self.name)
        for pending in self._pending:
            pending.timer.cancel()
            pending.span.finish(status="crashed")
        self._pending.clear()
        for timer in self._renew_timers.values():
            timer.cancel()
        self._renew_timers.clear()
        for renewal in self._renewals.values():
            renewal.timer.cancel()
            renewal.span.finish(status="crashed")
        self._renewals.clear()
        if self._hello_timer is not None:
            self._hello_timer.cancel()
            self._hello_timer = None

    def restart(self) -> None:
        """Come back up: drop leases that lapsed while down, re-arm
        renewal for the survivors, re-advertise, resume liveness."""
        if self.alive:
            return
        self.alive = True
        if self.tracer.enabled:
            self.tracer.event("masc.restart", node=self.name)
        self.expire()
        for prefix in self.claimed.prefixes():
            self._schedule_renewal(prefix)
        self.advertise_space()
        self.start_liveness()

    # ------------------------------------------------------------------
    # Message handling

    def handle(self, message, sender: "MascNode") -> None:
        """Dispatch an incoming protocol message."""
        if not self.alive:
            return
        self._last_heard[sender.node_id] = self.overlay.sim.now
        if isinstance(message, SpaceAdvertisement):
            self._handle_advertisement(message)
        elif isinstance(message, ClaimMessage):
            self._handle_claim(message, sender)
        elif isinstance(message, CollisionMessage):
            self._handle_collision(message)
        elif isinstance(message, ReleaseMessage):
            self._handle_release(message)
        elif isinstance(message, RenewalMessage):
            self._handle_renewal(message, sender)
        elif isinstance(message, RenewalAck):
            self._handle_renewal_ack(message)
        elif isinstance(message, HelloMessage):
            pass  # the _last_heard update above is the whole effect
        else:
            raise TypeError(f"unknown MASC message {message!r}")

    def _handle_advertisement(self, message: SpaceAdvertisement) -> None:
        if any(p.node_id == message.sender_id for p in self.parents):
            self._advertised[message.sender_id] = list(message.prefixes)

    def _handle_claim(self, message: ClaimMessage, sender: "MascNode") -> None:
        prefix = message.prefix
        if sender in self.children:
            # A child claims *from* this node's space: not a conflict.
            # Claims falling outside the space draw an explicit
            # collision (section 4.4's start-up rule) — unless the
            # child has other parents, whose space the claim may
            # legitimately target. A claim that *straddles* our space
            # boundary is always malformed. Oversized claims draw the
            # section 7 fair-use collision.
            own = self.claimed.prefixes()
            contained = any(mine.contains(prefix) for mine in own)
            straddles = any(
                mine.overlaps(prefix) and not mine.contains(prefix)
                for mine in own
            )
            sole_parent = len(sender.parents) == 1
            if own and straddles:
                self._send_collision(sender, message)
            elif own and not contained and sole_parent:
                self._send_collision(sender, message)
            elif contained and self._claim_too_large(prefix):
                self.oversize_collisions += 1
                self._send_collision(sender, message)
            return self._record_heard(message)
        # Collision with a confirmed allocation: the holder always wins.
        for mine in self.claimed.prefixes():
            if mine.overlaps(prefix):
                self._send_collision(sender, message)
                return self._record_heard(message)
        # Collision with an own pending claim: lower node id wins.
        for pending in list(self._pending):
            if pending.prefix.overlaps(prefix):
                if self.node_id < message.sender_id:
                    self._send_collision(sender, message)
                else:
                    self._retry(pending, blocked=prefix)
        self._record_heard(message)

    def _claim_too_large(self, prefix: Prefix) -> bool:
        """Section 7 fair-use test: is a child's claim an excessive
        share of this parent's space?"""
        fraction = self.config.max_child_claim_fraction
        if fraction is None:
            return False
        own_total = sum(p.size for p in self.claimed.prefixes())
        if own_total == 0:
            return False
        return prefix.size > own_total * fraction

    def _record_heard(self, message: ClaimMessage) -> None:
        self.heard_claims[message.prefix] = message.sender_id
        if message.expires_at != float("inf"):
            self._heard_expiry[message.prefix] = message.expires_at

    def _send_collision(self, claimer: "MascNode", claim: ClaimMessage) -> None:
        self.collisions_sent += 1
        if self.tracer.enabled:
            self.tracer.event(
                "masc.collision_sent",
                node=self.name,
                against=claimer.name,
                prefix=str(claim.prefix),
            )
        self.overlay.send(
            self,
            claimer,
            CollisionMessage(self.node_id, claim.prefix, claim.claim_serial),
        )

    def _handle_collision(self, message: CollisionMessage) -> None:
        pending = self._find_pending(message.claim_serial)
        if pending is None:
            return
        self.collisions_received += 1
        self._retry(pending, blocked=message.prefix)

    def _retry(self, pending: PendingClaim, blocked: Prefix) -> None:
        """Abandon a losing claim and try a different range."""
        pending.timer.cancel()
        self._pending.remove(pending)
        # Remember the conflicting range so reselection avoids it even
        # if we never heard the winner's claim directly.
        self.heard_claims.setdefault(blocked, -1)
        if self.tracer.enabled:
            pending.span.event(
                "collide",
                prefix=str(pending.prefix),
                blocked_by=str(blocked),
            )
        if pending.attempts >= self.config.max_claim_attempts:
            self.claims_failed += 1
            pending.span.finish(
                status="failed", reason="attempts-exhausted",
            )
            if pending.on_failed is not None:
                pending.on_failed()
            return
        prefix = self._select(pending.length)
        if prefix is None:
            self.claims_failed += 1
            pending.span.finish(status="failed", reason="no-space")
            if pending.on_failed is not None:
                pending.on_failed()
            return
        self._serial += 1
        if self.tracer.enabled:
            pending.span.event(
                "backoff",
                attempt=pending.attempts + 1,
                reselected=str(prefix),
            )
        retry = PendingClaim(
            prefix,
            pending.length,
            self._serial,
            attempts=pending.attempts + 1,
            timer=self._arm_timer(prefix, self._serial),
            on_confirmed=pending.on_confirmed,
            on_failed=pending.on_failed,
            expires_at=pending.expires_at,
            span=pending.span,
        )
        self._pending.append(retry)
        self._announce(retry)
        self._schedule_reannounce(retry)

    def _handle_release(self, message: ReleaseMessage) -> None:
        self.heard_claims.pop(message.prefix, None)
        self._heard_expiry.pop(message.prefix, None)

    # ------------------------------------------------------------------

    def pending_claims(self) -> List[Tuple[Prefix, int]]:
        """In-flight claims as (prefix, attempt-count) pairs."""
        return [(p.prefix, p.attempts) for p in self._pending]

    def __repr__(self) -> str:
        return (
            f"MascNode({self.name}, id={self.node_id}, "
            f"claimed={len(self.claimed)}, pending={len(self._pending)})"
        )
