"""A domain's claimed address spaces.

A :class:`ClaimedSpace` is one prefix a domain has successfully claimed
from its parent, together with the allocations living inside it (MAAS
blocks and child-domain claims). A space is *active* while new
allocations may be placed in it; consolidation marks old spaces
inactive, and drained inactive spaces are released back to the parent
(section 4.3.3: "the old prefixes are made inactive and will timeout
when the currently allocated addresses timeout").

:class:`AddressPool` is the set of a domain's spaces with pool-wide
queries (live addresses, total size, selection of a free range across
all active spaces).
"""

from __future__ import annotations

import random
from typing import Iterator, List, Optional

from repro.addressing.prefix import Prefix
from repro.addressing.trie import PrefixTrie
from repro.sim.randomness import default_stream


class ClaimedSpace:
    """One claimed prefix and its interior allocations."""

    def __init__(self, prefix: Prefix, active: bool = True):
        self.prefix = prefix
        self.active = active
        self._trie = PrefixTrie(prefix)

    @property
    def size(self) -> int:
        """Number of addresses in this space."""
        return self.prefix.size

    @property
    def used(self) -> int:
        """Addresses covered by interior allocations."""
        return self._trie.utilized()

    @property
    def is_empty(self) -> bool:
        """True when nothing is allocated inside."""
        return self.used == 0

    def utilization(self) -> float:
        """Fraction of this space allocated."""
        return self.used / self.size

    def allocations(self) -> List[Prefix]:
        """Interior allocations, sorted."""
        return self._trie.allocations()

    def can_fit(self, length: int) -> bool:
        """True if a /``length`` range fits in this space's free gaps."""
        return bool(self._trie.shortest_free_prefixes(length))

    def candidates(self, length: int) -> List[Prefix]:
        """Shortest-mask free blocks that can host a /``length``."""
        return self._trie.shortest_free_prefixes(length)

    def lowest_fit(self, length: int) -> Optional[Prefix]:
        """The lowest-addressed free /``length`` range, if any
        (without allocating it)."""
        return self._trie.lowest_fit(length)

    def allocate_first_fit(self, length: int) -> Optional[Prefix]:
        """Allocate the lowest-addressed free /``length`` range.

        Used for MAAS block placement: packing low keeps spaces dense
        so doubling and release work well.
        """
        block = self.lowest_fit(length)
        if block is not None:
            self._trie.insert(block)
        return block

    def upper_half_empty(self) -> bool:
        """True when no interior allocation touches the buddy (upper)
        half of this space — the precondition for halving in place."""
        return self._trie.upper_half_empty()

    def is_free(self, prefix: Prefix) -> bool:
        """True when ``prefix`` lies in this space and overlaps no
        interior allocation."""
        return self.prefix.contains(prefix) and not self._trie.overlapping(
            prefix
        )

    def is_allocated(self, prefix: Prefix) -> bool:
        """True when exactly ``prefix`` is an interior allocation."""
        return prefix in self._trie

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
        return sum(s.size for s in self._spaces)

    def live_addresses(self) -> int:
        """Total addresses covered by interior allocations."""
        return sum(s.used for s in self._spaces)

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
        for space in self._spaces:
            if space.contains(prefix):
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

    def select_range(
        self,
        length: int,
        rng: Optional[random.Random] = None,
        policy: str = "random",
    ) -> Optional[Prefix]:
        """Pick a free /``length`` range across all active spaces using
        the paper's claim rule: collect the free blocks of the shortest
        available mask over every active space, choose one (randomly by
        default), take its first sub-prefix. Returns None when nothing
        fits. Does not allocate.
        """
        candidates: List[Prefix] = []
        for space in self.active_spaces():
            candidates.extend(space.candidates(length))
        if not candidates:
            return None
        best = min(p.length for p in candidates)
        shortlist = [p for p in candidates if p.length == best]
        if policy == "first":
            block = min(shortlist)
        else:
            if rng is None:
                rng = default_stream("masc/spaces/select")
            block = rng.choice(shortlist)
        return block.first_subprefix(length)

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
        best_space: Optional[ClaimedSpace] = None
        for space in self.active_spaces():
            lowest = space.lowest_fit(length)
            if lowest is None:
                continue
            if best is None or lowest.network < best.network:
                best = lowest
                best_space = space
        if best is None or best_space is None:
            return None
        best_space.allocate_exact(best)
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
        return [s for s in self._spaces if not s.active and s.is_empty]
