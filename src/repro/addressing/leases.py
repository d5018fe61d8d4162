"""Lifetime (lease) bookkeeping.

Every MASC allocation carries a lifetime (section 4.3.1 of the paper):
the range becomes invalid when the lifetime expires unless renewed, and
a child may only claim for a lifetime no longer than its parent's.
:class:`LeaseTable` tracks expiry times and answers "what expires next"
efficiently for the simulator.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Dict, Iterator, List, Optional, Tuple

from repro.addressing.prefix import Prefix


class Lease:
    """A prefix allocation with an expiry time.

    ``expires_at`` is in simulation-time units (the library uses hours
    for the MASC experiments). ``holder`` is an opaque owner identifier.
    """

    __slots__ = ("prefix", "expires_at", "holder", "_serial")

    def __init__(self, prefix: Prefix, expires_at: float, holder=None):
        self.prefix = prefix
        self.expires_at = expires_at
        self.holder = holder
        self._serial = 0

    def active_at(self, now: float) -> bool:
        """True if the lease has not expired at time ``now``."""
        return now < self.expires_at

    def remaining(self, now: float) -> float:
        """Time left before expiry (negative once expired)."""
        return self.expires_at - now

    def __repr__(self) -> str:
        return (
            f"Lease({self.prefix}, expires_at={self.expires_at}, "
            f"holder={self.holder!r})"
        )


class LeaseTable:
    """A collection of leases keyed by prefix, with an expiry heap.

    Renewals update expiry in place; stale heap entries are skipped
    lazily. One lease per prefix: re-adding an existing prefix replaces
    (renews) it.
    """

    def __init__(self) -> None:
        self._leases: Dict[Prefix, Lease] = {}
        self._heap: List[Tuple[float, int, Prefix]] = []
        self._serials = itertools.count()

    def __len__(self) -> int:
        return len(self._leases)

    def __contains__(self, prefix: Prefix) -> bool:
        return prefix in self._leases

    def __iter__(self) -> Iterator[Lease]:
        return iter(list(self._leases.values()))

    def get(self, prefix: Prefix) -> Optional[Lease]:
        """The lease for ``prefix``, or None."""
        return self._leases.get(prefix)

    def add(self, prefix: Prefix, expires_at: float, holder=None) -> Lease:
        """Add or renew a lease."""
        lease = self._leases.get(prefix)
        if lease is None:
            lease = Lease(prefix, expires_at, holder)
            self._leases[prefix] = lease
        else:
            lease.expires_at = expires_at
            if holder is not None:
                lease.holder = holder
        lease._serial = next(self._serials)
        heapq.heappush(self._heap, (expires_at, lease._serial, prefix))
        return lease

    def renew(self, prefix: Prefix, expires_at: float) -> Lease:
        """Extend an existing lease. Raises KeyError if absent."""
        lease = self._leases[prefix]
        return self.add(prefix, max(lease.expires_at, expires_at), lease.holder)

    def remove(self, prefix: Prefix) -> Lease:
        """Drop a lease explicitly (relinquished space)."""
        return self._leases.pop(prefix)

    def next_expiry(self) -> Optional[float]:
        """Earliest expiry time among live leases, or None when empty."""
        self._discard_stale()
        if not self._heap:
            return None
        return self._heap[0][0]

    def expire(self, now: float) -> List[Lease]:
        """Remove and return every lease with ``expires_at <= now``."""
        if not self._heap or self._heap[0][0] > now:
            return []
        expired: List[Lease] = []
        self._discard_stale()
        while self._heap and self._heap[0][0] <= now:
            expires_at, serial, prefix = heapq.heappop(self._heap)
            lease = self._leases.get(prefix)
            if lease is None or lease._serial != serial:
                continue
            del self._leases[prefix]
            expired.append(lease)
            self._discard_stale()
        return expired

    def active(self, now: float) -> List[Lease]:
        """Leases still valid at ``now``, sorted by prefix."""
        return sorted(
            (l for l in self._leases.values() if l.active_at(now)),
            key=lambda l: l.prefix,
        )

    def prefixes(self) -> List[Prefix]:
        """All leased prefixes, sorted."""
        return sorted(self._leases)

    def _discard_stale(self) -> None:
        while self._heap:
            expires_at, serial, prefix = self._heap[0]
            lease = self._leases.get(prefix)
            if lease is not None and lease._serial == serial:
                return
            heapq.heappop(self._heap)
