"""Multicast Address Allocation Servers.

A MAAS assigns individual multicast addresses to group initiators in
its domain, out of address blocks obtained from the domain's MASC
space (sections 1 and 4 of the paper; the intra-domain coordination of
[13] is abstracted into a single server per domain).

The block-demand behaviour is the Figure 2 model: blocks of 256
addresses leased for 30 days, requested at uniform random intervals.
"""

from __future__ import annotations

import random
from typing import List, Optional, Set

from repro.addressing.leases import Lease, LeaseTable
from repro.addressing.prefix import Prefix
from repro.masc.config import LifetimePools, MascConfig
from repro.masc.manager import DomainSpaceManager
from repro.sim.randomness import default_stream


class MaasServer:
    """The address allocation server of one domain."""

    def __init__(
        self,
        manager: DomainSpaceManager,
        config: Optional[MascConfig] = None,
        rng: Optional[random.Random] = None,
        pools: Optional["LifetimePools"] = None,
    ):
        self.manager = manager
        self.config = config if config is not None else manager.config
        self.rng = (
            rng
            if rng is not None
            else default_stream(f"masc/maas/{manager.name}")
        )
        #: Optional two-pool lifetime model (section 4.3.1): a months-
        #: scale pool for steady demand, a days-scale pool for surges.
        self.pools = pools
        self.leases = LeaseTable()
        self._assigned: Set[int] = set()
        #: Counters for experiment reporting.
        self.requests_served = 0
        self.requests_failed = 0

    # ------------------------------------------------------------------
    # Block demand (the Figure 2 workload)

    def request_block(
        self,
        now: float,
        size: Optional[int] = None,
        lifetime: Optional[float] = None,
        steady: bool = True,
    ) -> Optional[Lease]:
        """Obtain a block from the domain's claimed space.

        With lifetime pools configured, ``steady`` selects the
        months-scale pool (steady-state demand) or the days-scale pool
        (short-term surges); an explicit ``lifetime`` overrides both.
        Returns the lease, or None when the space (and all expansion up
        the hierarchy) is exhausted.
        """
        if size is None:
            size = self.config.block_size
        if lifetime is None:
            if self.pools is not None:
                lifetime = self.pools.lifetime_for(steady)
            else:
                lifetime = self.config.block_lifetime
        block = self.manager.request_block(size)
        if block is None:
            self.requests_failed += 1
            return None
        self.requests_served += 1
        return self.leases.add(block, now + lifetime, holder=self)

    def expire_blocks(self, now: float) -> List[Lease]:
        """Release every block whose lease has run out, dropping any
        group addresses assigned inside them."""
        expired = self.leases.expire(now)
        for lease in expired:
            self.manager.release_block(lease.prefix)
        if expired and self._assigned:
            self._assigned = {
                address
                for address in self._assigned
                if not any(
                    lease.prefix.contains_address(address)
                    for lease in expired
                )
            }
        return expired

    def next_expiry(self) -> Optional[float]:
        """When the earliest live block lease runs out."""
        return self.leases.next_expiry()

    def next_request_delay(self) -> float:
        """Draw the next inter-request time (uniform per Figure 2)."""
        return self.rng.uniform(
            self.config.inter_request_min, self.config.inter_request_max
        )

    def live_blocks(self, now: float) -> List[Lease]:
        """Blocks still leased at ``now``."""
        return self.leases.active(now)

    def live_addresses(self, now: float) -> int:
        """Total addresses in live blocks (the "requested" quantity of
        the paper's utilization metric)."""
        return sum(l.prefix.size for l in self.live_blocks(now))

    # ------------------------------------------------------------------
    # Individual group-address assignment (sdr-style clients)

    def assign_group_address(self, now: float) -> Optional[int]:
        """Assign the lowest free address from live blocks, requesting
        a fresh block when every live address is taken."""
        address = self._first_free(now)
        if address is not None:
            self._assigned.add(address)
            return address
        if self.request_block(now) is None:
            return None
        address = self._first_free(now)
        if address is not None:
            self._assigned.add(address)
        return address

    def release_group_address(self, address: int) -> None:
        """Return an assigned address."""
        self._assigned.discard(address)

    def assigned_addresses(self) -> Set[int]:
        """Currently assigned individual addresses."""
        return set(self._assigned)

    def _first_free(self, now: float) -> Optional[int]:
        for lease in self.live_blocks(now):
            base = lease.prefix.network
            for offset in range(lease.prefix.size):
                candidate = base + offset
                if candidate not in self._assigned:
                    return candidate
        return None

    def __repr__(self) -> str:
        return f"MaasServer({self.manager.name})"
