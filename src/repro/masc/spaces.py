"""Claimed address spaces and the MASC claim rule.

A :class:`ClaimedSpace` is one prefix a domain has successfully claimed
from its parent, together with the allocations living inside it (MAAS
blocks and child-domain claims), and the in-place doubling and halving
of those allocations. A space is *active* while new allocations may be
placed in it; consolidation marks old spaces inactive, and drained
inactive spaces are released back to the parent (section 4.3.3: "the
old prefixes are made inactive and will timeout when the currently
allocated addresses timeout").

:class:`AddressPool` is the set of a domain's spaces with pool-wide
queries (live addresses, total size, first-fit block placement).

:func:`select_claim` is the selection step of section 4.3.3, the one
copy of it: the root space, a manager's pool and a protocol node's
local view of its parent's ranges all select through it.
"""

from __future__ import annotations

import random
from typing import Iterable, Iterator, List, Optional

from repro.addressing.prefix import Prefix
from repro.addressing.trie import PrefixTrie


class ClaimedSpace:
    """One claimed prefix and its interior allocations."""

    def __init__(self, prefix: Prefix, active: bool = True):
        self.prefix = prefix
        self.active = active
        self._trie = PrefixTrie(prefix)

    @property
    def size(self) -> int:
        """Number of addresses in this space."""
        return 1 << (32 - self.prefix._length)

    @property
    def used(self) -> int:
        """Addresses covered by interior allocations."""
        return self._trie._root.used

    @property
    def is_empty(self) -> bool:
        """True when nothing is allocated inside."""
        return not self._trie._root.used

    def utilization(self) -> float:
        """Fraction of this space allocated."""
        return self.used / self.size

    def allocations(self) -> List[Prefix]:
        """Interior allocations, sorted."""
        return self._trie.allocations()

    def lowest_fit(self, length: int) -> Optional[Prefix]:
        """The lowest-addressed free /``length`` range, if any
        (without allocating it)."""
        return self._trie.lowest_fit(length)

    def upper_half_empty(self) -> bool:
        """True when no interior allocation touches the buddy (upper)
        half of this space — the precondition for halving in place."""
        return self._trie.upper_half_empty()

    def allocate_exact(self, prefix: Prefix) -> bool:
        """Allocate a specific interior range (a child's chosen claim).

        Returns False when it does not fit (collision with an existing
        interior allocation or outside this space).
        """
        try:
            self._trie.insert(prefix)
        except ValueError:
            return False
        return True

    def free(self, prefix: Prefix) -> None:
        """Release an interior allocation."""
        self._trie.remove(prefix)

    def can_double_allocation(self, prefix: Prefix) -> bool:
        """True when interior allocation ``prefix`` can grow in place
        to ``prefix.parent()``: it is allocated, smaller than this
        space, and its buddy is free."""
        return (
            prefix.length > self.prefix.length
            and prefix in self._trie
            and not self._trie.overlapping(prefix.buddy())
        )

    def double_allocation(self, prefix: Prefix) -> bool:
        """Replace interior allocation ``prefix`` by its parent (the
        paper's "double one of its active prefixes"). False, changing
        nothing, unless :meth:`can_double_allocation`."""
        if not self.can_double_allocation(prefix):
            return False
        self._trie.remove(prefix)
        self._trie.insert(prefix.parent())
        return True

    def halve_allocation(self, prefix: Prefix) -> bool:
        """Replace interior allocation ``prefix`` by its lower half,
        freeing the upper half. False when ``prefix`` is not allocated
        here or is a /32."""
        if prefix.length >= 32 or prefix not in self._trie:
            return False
        self._trie.remove(prefix)
        self._trie.insert(prefix.children()[0])
        return True

    def contains(self, prefix: Prefix) -> bool:
        """True if ``prefix`` lies inside this space."""
        return self.prefix.contains(prefix)

    def __repr__(self) -> str:
        state = "active" if self.active else "inactive"
        return f"ClaimedSpace({self.prefix}, {state}, used={self.used})"


class AddressPool:
    """All spaces claimed by one domain."""

    def __init__(self) -> None:
        self._spaces: List[ClaimedSpace] = []

    def __iter__(self) -> Iterator[ClaimedSpace]:
        return iter(self._spaces)

    def __len__(self) -> int:
        return len(self._spaces)

    @property
    def spaces(self) -> List[ClaimedSpace]:
        """All spaces, in claim order."""
        return list(self._spaces)

    def active_spaces(self) -> List[ClaimedSpace]:
        """Spaces accepting new allocations."""
        return [s for s in self._spaces if s.active]

    def prefixes(self) -> List[Prefix]:
        """The claimed prefixes, sorted."""
        return sorted(s.prefix for s in self._spaces)

    def total_size(self) -> int:
        """Total addresses claimed (active + inactive)."""
        total = 0
        for space in self._spaces:
            total += 1 << (32 - space.prefix._length)
        return total

    def live_addresses(self) -> int:
        """Total addresses covered by interior allocations."""
        live = 0
        for space in self._spaces:
            live += space._trie._root.used
        return live

    def utilization(self) -> float:
        """live / total, or 0.0 with no space."""
        total = self.total_size()
        return self.live_addresses() / total if total else 0.0

    def add(self, prefix: Prefix, active: bool = True) -> ClaimedSpace:
        """Register a newly claimed prefix."""
        for space in self._spaces:
            if space.prefix.overlaps(prefix):
                raise ValueError(
                    f"{prefix} overlaps claimed space {space.prefix}"
                )
        space = ClaimedSpace(prefix, active=active)
        self._spaces.append(space)
        return space

    def remove(self, prefix: Prefix) -> ClaimedSpace:
        """Drop the space for ``prefix`` (must be drained by caller
        policy; this method does not check)."""
        for index, space in enumerate(self._spaces):
            if space.prefix == prefix:
                return self._spaces.pop(index)
        raise KeyError(str(prefix))

    def space_of(self, prefix: Prefix) -> Optional[ClaimedSpace]:
        """The space containing ``prefix``, if any."""
        network, length = prefix._network, prefix._length
        for space in self._spaces:
            held = space.prefix
            if length >= held._length and not (
                (network ^ held._network) >> (32 - held._length)
            ):
                return space
        return None

    def grow_space(self, space: ClaimedSpace) -> ClaimedSpace:
        """Double a space in place to its parent prefix, keeping
        interior allocations, and return it.

        The caller must have secured the buddy range from the parent.
        """
        space.prefix = space._trie.grow()
        return space

    def halve_space(self, space: ClaimedSpace) -> ClaimedSpace:
        """Shrink a space in place to its lower half, keeping interior
        allocations, and return it. Raises ValueError while anything
        sits in the upper half.

        The inverse of :meth:`grow_space`: the caller returns the upper
        half to the parent.
        """
        space.prefix = space._trie.halve()
        return space

    def allocate_exact(self, prefix: Prefix) -> bool:
        """Allocate a specific range in whichever space contains it."""
        space = self.space_of(prefix)
        if space is None:
            return False
        return space.allocate_exact(prefix)

    def allocate_block(self, length: int) -> Optional[Prefix]:
        """First-fit allocation of a /``length`` block in active
        spaces (lowest-addressed active space gap first)."""
        best: Optional[Prefix] = None
        for space in self._spaces:
            if not space.active:
                continue
            lowest = space._trie.lowest_fit(length)
            if lowest is None:
                continue
            if best is None or lowest._network < best._network:
                best, trie = lowest, space._trie
        if best is not None:
            trie.insert(best)
        return best

    def free(self, prefix: Prefix) -> None:
        """Release an interior allocation wherever it lives."""
        space = self.space_of(prefix)
        if space is None:
            raise KeyError(str(prefix))
        space.free(prefix)

    def drained_inactive(self) -> List[ClaimedSpace]:
        """Inactive spaces with no interior allocations left (ready to
        be released to the parent)."""
        return [
            s for s in self._spaces if not s.active and not s._trie._root.used
        ]

    def nothing_to_shed(self, low_water: float) -> bool:
        """One pass that rules out every shedding rule of
        :meth:`~repro.masc.manager.DomainSpaceManager.shed_excess`:
        no active space is idle, no draining space with allocations
        left has an empty upper half, and the active spaces are at
        least ``low_water`` full (or hold nothing). False means some
        rule may fire."""
        live = active_total = 0
        for space in self._spaces:
            used = space._trie._root.used
            live += used
            if space.active:
                if not used:
                    return False
                active_total += 1 << (32 - space.prefix._length)
            elif used and space._trie.upper_half_empty():
                return False
        return not live or not active_total or live / active_total >= low_water


def select_claim(
    spaces: Iterable[ClaimedSpace],
    length: int,
    rng: random.Random,
    policy: str,
) -> Optional[Prefix]:
    """The claim algorithm's selection step (section 4.3.3): "it finds
    all the remaining prefixes of the shortest possible mask length,
    and randomly chooses one of them", then returns the first
    /``length`` sub-prefix of the chosen block. Allocates nothing.

    Free blocks are gathered space by space in the order given, each
    space's in address order, and one ``rng.choice`` picks among them;
    the ``"first"`` policy takes the lowest instead. None when no
    space has room.
    """
    candidates: List[Prefix] = []
    for space in spaces:
        candidates.extend(space._trie.shortest_free_prefixes(length))
    if not candidates:
        return None
    best = min(p.length for p in candidates)
    shortlist = [p for p in candidates if p.length == best]
    if policy == "first":
        block = min(shortlist)
    else:
        block = rng.choice(shortlist)
    return block.first_subprefix(length)
