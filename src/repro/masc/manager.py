"""The MASC claim algorithm (section 4.3.3 of the paper).

:class:`DomainSpaceManager` owns one domain's claimed address spaces
and decides *what* to claim when demand outgrows them:

- the initial claim is the smallest prefix that satisfies the demand;
- growth first tries to **double** an active prefix in place (claim its
  buddy from the parent) when post-doubling utilization of the whole
  space stays at or above the occupancy threshold;
- otherwise, when the domain already holds its maximum number of
  prefixes, it claims one **new prefix large enough for the current
  usage** and marks the old prefixes inactive (they are released when
  their interior allocations drain);
- otherwise it claims an **additional small prefix just sufficient**
  for the unmet demand.

A manager also acts as the :class:`ClaimSource` for its children: child
claims are interior allocations of its spaces, so a parent's claimed
ranges always cover its children's — which is exactly what makes the
G-RIB aggregate (section 4.3.2).
"""

from __future__ import annotations

import random
from typing import Callable, List, Optional

from repro.addressing.leases import LeaseTable
from repro.addressing.prefix import MULTICAST_SPACE, Prefix, mask_length_for
from repro.masc.config import MascConfig
from repro.masc.spaces import AddressPool, ClaimedSpace, select_claim
from repro.sim.randomness import default_stream
from repro.trace.tracer import NULL_TRACER


class ClaimSource:
    """What a claimer needs from its parent: candidate selection,
    commitment, in-place growth, and release."""

    def select_claim(
        self, length: int, rng: random.Random, policy: str
    ) -> Optional[Prefix]:
        """Pick a free /``length`` candidate (no allocation)."""
        raise NotImplementedError

    def commit_claim(self, prefix: Prefix) -> bool:
        """Allocate a previously selected candidate; False on a race."""
        raise NotImplementedError

    def grow_claim(self, prefix: Prefix) -> bool:
        """Replace an allocated claim by its doubled parent prefix if
        the buddy range is free; False otherwise."""
        raise NotImplementedError

    def can_grow_claim(self, prefix: Prefix) -> bool:
        """Whether :meth:`grow_claim` would succeed, without side
        effects. Used for the paper's "none of them can be expanded"
        consolidation test."""
        raise NotImplementedError

    def release_claim(self, prefix: Prefix) -> None:
        """Return a claim."""
        raise NotImplementedError

    def renew_claim(self, prefix: Prefix) -> bool:
        """Whether a claim's lifetime may be extended. A parent declines
        when the range no longer lies in one of its active spaces,
        steering children back into its current allocation."""
        raise NotImplementedError

    def shrink_claim(self, prefix: Prefix) -> bool:
        """Replace an allocated claim by its lower half, returning the
        upper half to this source. False when the claim is unknown."""
        raise NotImplementedError


class RootClaimSource(ClaimSource):
    """The global multicast space, 224/4.

    Top-level domains have no parent; they claim straight from the
    class-D space (section 4.1). In the abstract (non-message-level)
    simulations this object is the shared oracle of what is taken.
    """

    def __init__(self, space: Prefix = MULTICAST_SPACE):
        self.space = space
        self._claims = ClaimedSpace(space)

    def select_claim(self, length, rng, policy):
        return select_claim((self._claims,), length, rng, policy)

    def commit_claim(self, prefix):
        return self._claims.allocate_exact(prefix)

    def grow_claim(self, prefix):
        return self._claims.double_allocation(prefix)

    def can_grow_claim(self, prefix):
        return self._claims.can_double_allocation(prefix)

    def release_claim(self, prefix):
        self._claims.free(prefix)

    def renew_claim(self, prefix):
        return True

    def shrink_claim(self, prefix):
        return self._claims.halve_allocation(prefix)

    def allocated(self) -> List[Prefix]:
        """All top-level claims currently outstanding."""
        return self._claims.allocations()

    def allocated_total(self) -> int:
        """Total addresses claimed out of the root space."""
        return self._claims.used


class DomainSpaceManager(ClaimSource):
    """Claim policy and space bookkeeping for one domain."""

    def __init__(
        self,
        name: str,
        source: ClaimSource,
        config: Optional[MascConfig] = None,
        rng: Optional[random.Random] = None,
        on_claimed: Optional[Callable[[Prefix], None]] = None,
        on_released: Optional[Callable[[Prefix], None]] = None,
        clock: Optional[Callable[[], float]] = None,
        tracer=None,
    ):
        self.name = name
        self.source = source
        #: Telemetry sink (the null tracer makes it a no-op).
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.config = config if config is not None else MascConfig()
        self.rng = (
            rng
            if rng is not None
            else default_stream(f"masc/manager/{name}")
        )
        self.pool = AddressPool()
        self.clock = clock if clock is not None else (lambda: 0.0)
        #: Lifetimes of this domain's claimed ranges (section 4.3.1).
        self.claim_leases = LeaseTable()
        self._on_claimed = on_claimed
        self._on_released = on_released
        #: Counters for experiment reporting.
        self.claims_made = 0
        self.claims_failed = 0
        self.doublings = 0
        self.consolidations = 0
        self.renewals = 0
        self.renewals_declined = 0
        self.shedding = 0
        self._last_shrink = float("-inf")

    # ------------------------------------------------------------------
    # Demand entry points

    def request_block(self, size: Optional[int] = None) -> Optional[Prefix]:
        """Allocate a MAAS block (first-fit in active spaces), expanding
        the domain's claimed space when it does not fit.

        Returns None when even expansion fails (parent space and the
        root space exhausted).
        """
        if size is None:
            size = self.config.block_size
        length = mask_length_for(size)
        block = self.pool.allocate_block(length)
        if block is not None:
            return block
        if not self.expand(length):
            return None
        return self.pool.allocate_block(length)

    def release_block(self, block: Prefix) -> None:
        """Free a MAAS block and release any drained inactive spaces."""
        self.pool.free(block)
        self._release_drained()

    # ------------------------------------------------------------------
    # The expansion decision (the heart of section 4.3.3)

    def expand(self, needed_length: int) -> bool:
        """Grow the claimed space so a /``needed_length`` range fits.

        Tries doubling, then consolidation, then a small extra prefix,
        per the paper's rules. Returns True when any growth succeeded.
        """
        needed = 1 << (32 - needed_length)
        demand = self.pool.live_addresses() + needed
        threshold = self.config.occupancy_threshold
        total = self.pool.total_size()

        # 1. Double an active prefix in place. Eligible spaces must be
        # big enough that the freed half hosts the request, and the
        # post-doubling utilization of the whole space must stay at or
        # above the threshold ("typically ... we double the smallest").
        actives = sorted(
            self.pool.active_spaces(), key=lambda s: s.size
        )
        if self.config.allow_doubling:
            for space in actives:
                if space.size < needed:
                    continue
                if demand / (total + space.size) < threshold:
                    continue
                if self._grow_own_space(space):
                    return True

        # 2. Consolidate — claim one new prefix large enough for
        # current usage and deactivate the rest — when the domain is
        # (a) at the prefix cap with no active prefix expandable at all
        # (the paper's explicit rule), or (b) already past the cap
        # (honouring "we attempt to keep the number of prefixes per
        # domain to no more than two" before confetti accumulates).
        at_cap_and_stuck = len(actives) >= self.config.max_prefixes and not any(
            self.source.can_grow_claim(s.prefix) for s in actives
        )
        if at_cap_and_stuck or len(actives) > self.config.max_prefixes:
            consolidated_length = mask_length_for(max(demand, needed))
            prefix = self._claim_new(consolidated_length)
            if prefix is not None:
                for space in actives:
                    space.active = False
                self.consolidations += 1
                if self.tracer.enabled:
                    self.tracer.event(
                        "masc.consolidate",
                        domain=self.name,
                        into=str(prefix),
                    )
                self._release_drained()
                return True

        # 3. Small growth, preferring in-place doubling of an existing
        # small prefix when the increment is commensurate with the
        # need (a doubled /24 costs no more than a detached /24 and
        # keeps the domain's holdings aggregatable); otherwise claim a
        # fresh small prefix just sufficient for the unmet demand.
        if self.config.allow_doubling:
            for space in actives:
                if (
                    needed <= space.size <= 4 * needed
                    and self._grow_own_space(space)
                ):
                    return True
        prefix = self._claim_new(needed_length)
        return prefix is not None

    def maybe_proactive_expand(self) -> bool:
        """Grow headroom once occupancy exceeds the threshold, so the
        domain stays "ahead of the demand" (section 4.1).

        Only in-place doubling is attempted: claiming detached scraps
        of space proactively would fragment the parent and wreck
        aggregation; if no space can double, the reactive path handles
        actual demand when it arrives.
        """
        if not self.config.proactive_expansion:
            return False
        if not self.config.allow_doubling:
            return False
        total = self.pool.total_size()
        if total == 0:
            return False
        live = self.pool.live_addresses()
        if live / total <= self.config.occupancy_threshold:
            return False
        for space in sorted(
            self.pool.active_spaces(), key=lambda s: s.size
        ):
            if self._grow_own_space(space):
                return True
        return False

    def _claim_new(self, length: int) -> Optional[Prefix]:
        """Run the claim loop against the parent for a fresh prefix."""
        for _ in range(self.config.max_claim_attempts):
            candidate = self.source.select_claim(
                length, self.rng, self.config.claim_policy
            )
            if candidate is None:
                self.claims_failed += 1
                return None
            if self.source.commit_claim(candidate):
                self.pool.add(candidate)
                self.claim_leases.add(
                    candidate, self.clock() + self.config.claim_lifetime
                )
                self.claims_made += 1
                if self.tracer.enabled:
                    self.tracer.event(
                        "masc.claim",
                        domain=self.name,
                        prefix=str(candidate),
                    )
                if self._on_claimed is not None:
                    self._on_claimed(candidate)
                return candidate
        self.claims_failed += 1
        if self.tracer.enabled:
            self.tracer.event(
                "masc.claim_failed", domain=self.name, length=length
            )
        return None

    def _grow_own_space(self, space: ClaimedSpace) -> bool:
        """Double one of this domain's claimed spaces in place (the
        parent grants the buddy range). Returns False when the parent
        cannot grant it."""
        old_prefix = space.prefix
        if not self.source.grow_claim(old_prefix):
            return False
        self.pool.grow_space(space)
        self.doublings += 1
        if self.tracer.enabled:
            self.tracer.event(
                "masc.double",
                domain=self.name,
                grown=str(space.prefix),
            )
        self._resized(old_prefix, space.prefix)
        return True

    def _resized(self, old: Prefix, new: Prefix) -> None:
        """A space was doubled or halved in place: carry its lease over
        and report the release of the old prefix and the claim of the
        new one so G-RIB accounting stays exact."""
        expiry = self.clock() + self.config.claim_lifetime
        lease = self.claim_leases.get(old)
        if lease is not None:
            self.claim_leases.remove(old)
            expiry = max(expiry, lease.expires_at)
        self.claim_leases.add(new, expiry)
        if self._on_released is not None:
            self._on_released(old)
        if self._on_claimed is not None:
            self._on_claimed(new)

    def _release_drained(self) -> None:
        for space in self.pool.drained_inactive():
            self._release_space(space.prefix)

    def _release_space(self, prefix: Prefix) -> None:
        self.pool.remove(prefix)
        if prefix in self.claim_leases:
            self.claim_leases.remove(prefix)
        self.source.release_claim(prefix)
        if self._on_released is not None:
            self._on_released(prefix)

    def maintain(self) -> None:
        """Process claim-lifetime expiries (call periodically).

        An expired range is released when drained; otherwise the domain
        asks its parent for renewal. A declined renewal deactivates the
        space — its interior allocations drain out, after which it is
        released — and future demand re-claims from the parent's
        current ranges, re-packing the hierarchy (section 4.3.3's
        recycling).
        """
        for space in self.pool:
            if not space.active:
                self._release_drained()
                break
        self.shed_excess()
        now = self.clock()
        for lease in self.claim_leases.expire(now):
            space = self.pool.space_of(lease.prefix)
            if space is None or space.prefix != lease.prefix:
                continue
            if space.is_empty:
                self._release_space(space.prefix)
                continue
            if space.active and self._try_shrink():
                continue
            if space.active and self.source.renew_claim(space.prefix):
                self.renewals += 1
                self.claim_leases.add(
                    space.prefix, now + self.config.claim_lifetime
                )
            else:
                if space.active:
                    self.renewals_declined += 1
                space.active = False
                # Re-check once the grace period has passed; interior
                # allocations normally drain well before then.
                self.claim_leases.add(
                    space.prefix, now + self.config.claim_lifetime
                )

    def shed_excess(self) -> int:
        """Halve over-claimed spaces in place (the inverse of
        doubling).

        First-fit-low block placement drains the upper half of an
        oversized space within one block lifetime; once empty, that
        half goes back to the parent without any migration. Runs until
        occupancy reaches the threshold or nothing can halve. Returns
        the number of halvings performed.
        """
        if self.pool.nothing_to_shed(self.config.shrink_low_water):
            return 0
        halvings = 0
        # Release idle active spaces outright: an empty space is pure
        # over-claim whenever the remaining spaces still meet the
        # occupancy target (demand drained out of it and packs lower).
        live = self.pool.live_addresses()
        for space in list(self.pool.active_spaces()):
            if not space.is_empty:
                continue
            others = (
                sum(s.size for s in self.pool.active_spaces())
                - space.size
            )
            if others <= 0:
                continue
            if live / others <= self.config.occupancy_threshold:
                self._release_space(space.prefix)
        # Draining (inactive) spaces shed their empty upper halves
        # unconditionally — that space serves nobody.
        for space in list(self.pool.spaces):
            if space.active:
                continue
            while (
                space.prefix.length < 32
                and space.upper_half_empty()
                and not space.is_empty
                and self.source.shrink_claim(space.prefix)
            ):
                self._halve(space)
                halvings += 1
        # Active spaces shed only with hysteresis: expansion fires when
        # a space fills, so shedding waits for occupancy to fall well
        # below the target — otherwise demand noise thrashes between
        # halving and re-claiming. Draining-space contents count as
        # live (they migrate into the active spaces).
        while True:
            live = self.pool.live_addresses()
            active_total = sum(
                s.size for s in self.pool.active_spaces()
            )
            if live == 0 or active_total == 0:
                return halvings
            if live / active_total >= self.config.shrink_low_water:
                return halvings
            shrunk_one = False
            for space in sorted(
                (
                    s
                    for s in self.pool.active_spaces()
                    if s.upper_half_empty() and s.prefix.length < 32
                ),
                key=lambda s: -s.size,
            ):
                # Keep enough headroom that the next demand swing does
                # not immediately force a re-claim.
                remaining = active_total - space.size // 2
                if remaining < live / self.config.occupancy_threshold:
                    continue
                if self.source.shrink_claim(space.prefix):
                    self._halve(space)
                    halvings += 1
                    shrunk_one = True
                    break
            if not shrunk_one:
                return halvings

    def _halve(self, space: ClaimedSpace) -> None:
        """Book-keeping around :meth:`AddressPool.halve_space`."""
        old_prefix = space.prefix
        self.pool.halve_space(space)
        self.shedding += 1
        self._resized(old_prefix, space.prefix)

    def _try_shrink(self) -> bool:
        """Relinquish over-claimed space at renewal time.

        When occupancy of the *active* spaces is under the low-water
        mark, claim one fresh prefix sized to current usage and
        deactivate every old space (they release as their interior
        allocations drain). Rate-limited to once per claim lifetime so
        staggered migrations do not cascade. Returns True when a shrink
        consolidation happened.
        """
        now = self.clock()
        if now - self._last_shrink < 2 * self.config.claim_lifetime:
            return False
        # Wait for in-flight migrations to (mostly) finish: shrinking
        # again while old spaces still drain restarts the migration
        # forever. A trickle of stragglers must not block reclamation
        # indefinitely, so allow up to 10% still draining.
        total = self.pool.total_size()
        draining = sum(
            s.size for s in self.pool.spaces if not s.active
        )
        if total and draining > total * 0.1:
            return False
        actives = self.pool.active_spaces()
        active_total = sum(s.size for s in actives)
        total_live = self.pool.live_addresses()
        if total_live == 0 or active_total == 0:
            return False
        # Compare everything live (allocations in draining spaces will
        # migrate into the active ones) against active capacity, so an
        # in-progress migration never looks like over-claiming.
        if total_live / active_total >= self.config.shrink_low_water:
            return False
        target_length = mask_length_for(total_live)
        if (1 << (32 - target_length)) >= active_total:
            return False
        prefix = self._claim_new(target_length)
        if prefix is None:
            return False
        for space in actives:
            space.active = False
        self._last_shrink = now
        self.consolidations += 1
        if self.tracer.enabled:
            self.tracer.event(
                "masc.consolidate",
                domain=self.name,
                into=str(prefix),
                shrink=True,
            )
        self._release_drained()
        return True

    # ------------------------------------------------------------------
    # ClaimSource role (this manager as a parent of child domains)

    def select_claim(self, length, rng, policy):
        candidate = select_claim(
            self.pool.active_spaces(), length, rng, policy
        )
        if candidate is not None:
            return candidate
        if not self.expand(length):
            return None
        return select_claim(self.pool.active_spaces(), length, rng, policy)

    def commit_claim(self, prefix):
        if not self.pool.allocate_exact(prefix):
            return False
        self.maybe_proactive_expand()
        return True

    def grow_claim(self, prefix):
        space = self.pool.space_of(prefix)
        if space is None:
            return False
        if prefix == space.prefix:
            # The child's claim fills this whole space: grow our own
            # claim first (the doubling cascades up the hierarchy,
            # which is what keeps every level's holdings aggregatable
            # as demand ramps).
            if not self._grow_own_space(space):
                return False
        if not space.double_allocation(prefix):
            return False
        self.maybe_proactive_expand()
        return True

    def can_grow_claim(self, prefix):
        space = self.pool.space_of(prefix)
        if space is None:
            return False
        if prefix == space.prefix:
            # Growing would require doubling our own space first.
            return self.source.can_grow_claim(space.prefix)
        return space.can_double_allocation(prefix)

    def release_claim(self, prefix):
        self.pool.free(prefix)
        self._release_drained()

    def renew_claim(self, prefix):
        space = self.pool.space_of(prefix)
        return space is not None and space.active

    def shrink_claim(self, prefix):
        space = self.pool.space_of(prefix)
        return space is not None and space.halve_allocation(prefix)

    # ------------------------------------------------------------------
    # Reporting

    def prefixes(self) -> List[Prefix]:
        """This domain's claimed prefixes, sorted."""
        return self.pool.prefixes()

    def prefix_count(self) -> int:
        """Number of claimed prefixes (the domain's G-RIB footprint)."""
        return len(self.pool)

    def utilization(self) -> float:
        """Interior allocations / claimed space."""
        return self.pool.utilization()

    def __repr__(self) -> str:
        return (
            f"DomainSpaceManager({self.name}, "
            f"prefixes={self.prefix_count()}, "
            f"util={self.utilization():.2f})"
        )
