"""Claim-space allocation.

:class:`PrefixAllocator` wraps a :class:`~repro.addressing.trie.PrefixTrie`
with the policy pieces of the MASC claim algorithm that are pure address
arithmetic: choosing a candidate block, taking the *first* sub-prefix of
the desired size inside it, and the buddy-doubling expansion used when a
domain outgrows an active prefix (section 4.3.3 of the paper).
"""

from __future__ import annotations

import random
from typing import List, Optional

from repro.addressing.ipv4 import ADDRESS_BITS
from repro.addressing.prefix import Prefix
from repro.addressing.trie import PrefixTrie
from repro.sim.randomness import default_stream


class AllocationError(Exception):
    """Raised when no free block can satisfy a request."""


def mask_length_for(address_count: int) -> int:
    """Smallest mask length whose block holds ``address_count`` addresses.

    >>> mask_length_for(1024)
    22
    >>> mask_length_for(1)
    32
    """
    if address_count <= 0:
        raise ValueError(f"address count must be positive: {address_count}")
    size = 1
    length = ADDRESS_BITS
    while size < address_count:
        size <<= 1
        length -= 1
        if length < 0:
            raise ValueError(f"address count too large: {address_count}")
    return length


class PrefixAllocator:
    """Allocates sub-prefixes of a root space.

    The default ``choose`` policy implements the paper's randomized rule
    (random among the shortest-mask free blocks, then the first
    sub-prefix); a deterministic policy is available for the ablation
    that measures collision rates without randomization.
    """

    RANDOM = "random"
    FIRST = "first"

    def __init__(
        self,
        space: Prefix,
        rng: Optional[random.Random] = None,
        policy: str = RANDOM,
    ):
        if policy not in (self.RANDOM, self.FIRST):
            raise ValueError(f"unknown allocation policy: {policy}")
        self._trie = PrefixTrie(space)
        self._rng = (
            rng
            if rng is not None
            else default_stream(f"addressing/allocator/{space}")
        )
        self._policy = policy

    @property
    def space(self) -> Prefix:
        """The root space allocated from."""
        return self._trie.space

    @property
    def trie(self) -> PrefixTrie:
        """The underlying allocation trie (read it, don't mutate it)."""
        return self._trie

    def allocations(self) -> List[Prefix]:
        """All currently allocated prefixes, sorted."""
        return self._trie.allocations()

    def utilized(self) -> int:
        """Number of allocated addresses."""
        return self._trie.utilized()

    def utilization(self) -> float:
        """Fraction of the root space currently allocated."""
        return self.utilized() / self.space.size

    def candidates(self, length: int) -> List[Prefix]:
        """Free blocks of shortest available mask that can hold a /length."""
        return self._trie.shortest_free_prefixes(length)

    def select(self, length: int) -> Prefix:
        """Pick the prefix a claimer *would* claim, without allocating it.

        Implements the claim rule: find the free blocks with the shortest
        mask, choose one (randomly under the default policy), and take the
        first /``length`` sub-prefix inside it.
        """
        blocks = self.candidates(length)
        if not blocks:
            raise AllocationError(
                f"no free /{length} block in {self.space}"
            )
        if self._policy == self.RANDOM:
            block = self._rng.choice(blocks)
        else:
            block = blocks[0]
        return block.first_subprefix(length)

    def claim(self, length: int) -> Prefix:
        """Select and allocate a /``length`` prefix."""
        prefix = self.select(length)
        self._trie.insert(prefix)
        return prefix

    def claim_exact(self, prefix: Prefix) -> None:
        """Allocate a specific prefix (e.g. one learned from a peer).

        Raises ValueError on overlap with existing allocations.
        """
        self._trie.insert(prefix)

    def release(self, prefix: Prefix) -> None:
        """Release an exact allocation."""
        self._trie.remove(prefix)

    def is_free(self, prefix: Prefix) -> bool:
        """True if ``prefix`` does not overlap any allocation."""
        return self.space.contains(prefix) and not self._trie.overlapping(
            prefix
        )

    def can_double(self, prefix: Prefix) -> bool:
        """True if ``prefix`` is allocated and its buddy block is free, so
        the allocation can grow in place to ``prefix.parent()``."""
        if prefix not in self._trie:
            return False
        if prefix.length <= self.space.length:
            return False
        return self.is_free(prefix.buddy())

    def double(self, prefix: Prefix) -> Prefix:
        """Grow an allocation in place: replace ``prefix`` by its parent.

        This is the paper's "double one of its active prefixes" expansion.
        Raises AllocationError when the buddy is taken.
        """
        if not self.can_double(prefix):
            raise AllocationError(f"cannot double {prefix}: buddy in use")
        self._trie.remove(prefix)
        parent = prefix.parent()
        self._trie.insert(parent)
        return parent
