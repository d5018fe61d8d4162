"""CIDR prefixes.

A :class:`Prefix` is the unit of allocation in MASC and the unit of
routing in the G-RIB: an aligned, power-of-two sized block of addresses
written ``address/length`` (e.g. ``224.0.128.0/24``).
"""

from __future__ import annotations

import functools
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.addressing.ipv4 import (
    ADDRESS_BITS,
    bit_at,
    format_address,
    mask_bits,
    parse_address,
)

#: Canonical intern cache: one live instance per (network, length).
#: Grows with the number of *distinct* prefixes a process touches
#: (bounded by the address plan, not by event count). Under the GIL a
#: construction race can briefly let an uninterned duplicate escape;
#: equality stays value-based so that is a missed fast path, not a bug.
_INTERNED: Dict[Tuple[int, int], "Prefix"] = {}


def interned_count() -> int:
    """Number of distinct prefixes in the canonical intern cache."""
    return len(_INTERNED)


@functools.total_ordering
class Prefix:
    """An immutable CIDR prefix: a 32-bit network address plus mask length.

    The network address is always stored canonically (host bits zeroed).
    Prefixes order first by network address, then by mask length, which
    yields the conventional routing-table ordering (covering aggregates
    sort before their sub-prefixes).

    Instances are *interned*: ``Prefix(n, l)`` returns the one canonical
    instance per ``(network, length)``, so equality is usually a single
    identity check and the hash is computed once. Pickling reduces to
    the constructor, so checkpoint restores re-enter the cache of the
    restoring process instead of materialising duplicates.
    """

    __slots__ = ("_network", "_length", "_hash")

    def __new__(cls, network: int, length: int) -> "Prefix":
        if cls is Prefix:
            cached = _INTERNED.get((network, length))
            if cached is not None:
                return cached
        if not 0 <= length <= ADDRESS_BITS:
            raise ValueError(f"mask length out of range: {length}")
        mask = mask_bits(length)
        if network & ~mask & ((1 << ADDRESS_BITS) - 1):
            raise ValueError(
                f"host bits set in {format_address(network)}/{length}"
            )
        self = super().__new__(cls)
        self._network = network
        self._length = length
        self._hash = hash((network, length))
        if cls is Prefix:
            _INTERNED[(network, length)] = self
        return self

    @classmethod
    def parse(cls, text: str) -> "Prefix":
        """Parse ``"224.0.1.0/24"`` (or a shorthand like ``"228/6"``)."""
        if "/" not in text:
            raise ValueError(f"missing mask length in {text!r}")
        addr_text, _, len_text = text.partition("/")
        # Accept the paper's shorthand ("228/6" means 228.0.0.0/6).
        while addr_text.count(".") < 3:
            addr_text += ".0"
        return cls(parse_address(addr_text), int(len_text))

    @classmethod
    def from_block(cls, start: int, size: int) -> "Prefix":
        """Build the prefix covering ``[start, start + size)``.

        ``size`` must be a power of two and ``start`` aligned to it.
        """
        if size <= 0 or size & (size - 1):
            raise ValueError(f"block size must be a power of two: {size}")
        if start % size:
            raise ValueError(f"block start {start} not aligned to {size}")
        return cls(start, ADDRESS_BITS - size.bit_length() + 1)

    @property
    def network(self) -> int:
        """The (canonical) network address as an integer."""
        return self._network

    @property
    def length(self) -> int:
        """The mask length (number of significant bits)."""
        return self._length

    @property
    def size(self) -> int:
        """Number of addresses covered by this prefix."""
        return 1 << (ADDRESS_BITS - self._length)

    @property
    def last(self) -> int:
        """The highest address covered by this prefix."""
        return self._network + self.size - 1

    def contains_address(self, address: int) -> bool:
        """True if ``address`` falls inside this prefix."""
        return self._network <= address <= self.last

    def contains(self, other: "Prefix") -> bool:
        """True if ``other`` is this prefix or a sub-prefix of it."""
        return (
            other._length >= self._length
            and (other._network & mask_bits(self._length)) == self._network
        )

    def overlaps(self, other: "Prefix") -> bool:
        """True if the two prefixes share any address."""
        return self.contains(other) or other.contains(self)

    def parent(self) -> "Prefix":
        """The covering prefix one bit shorter."""
        if self._length == 0:
            raise ValueError("0.0.0.0/0 has no parent")
        length = self._length - 1
        return Prefix(self._network & mask_bits(length), length)

    def buddy(self) -> "Prefix":
        """The sibling prefix that shares this prefix's parent.

        Doubling an allocation (section 4.3.3 of the paper) succeeds
        exactly when the buddy is free: the merged range is ``parent()``.
        """
        if self._length == 0:
            raise ValueError("0.0.0.0/0 has no buddy")
        flip = 1 << (ADDRESS_BITS - self._length)
        return Prefix(self._network ^ flip, self._length)

    def children(self) -> "tuple[Prefix, Prefix]":
        """The two halves of this prefix (low half first)."""
        if self._length == ADDRESS_BITS:
            raise ValueError("a /32 cannot be split")
        length = self._length + 1
        low = Prefix(self._network, length)
        return low, low.buddy()

    def first_subprefix(self, length: int) -> "Prefix":
        """The lowest sub-prefix of the given length inside this prefix.

        This is the paper's claim rule: "the prefix it then claims is the
        first sub-prefix of the desired size within the chosen space".
        """
        if length < self._length:
            raise ValueError(
                f"/{length} does not fit inside /{self._length}"
            )
        return Prefix(self._network, length)

    def subprefix_at(self, length: int, index: int) -> "Prefix":
        """The ``index``-th sub-prefix of the given length (0-based)."""
        count = 1 << (length - self._length)
        if not 0 <= index < count:
            raise ValueError(f"index {index} out of range for {count} slots")
        step = 1 << (ADDRESS_BITS - length)
        return Prefix(self._network + index * step, length)

    def iter_subprefixes(self, length: int) -> Iterator["Prefix"]:
        """Iterate all sub-prefixes of the given length, lowest first."""
        step = 1 << (ADDRESS_BITS - length)
        for index in range(1 << (length - self._length)):
            yield Prefix(self._network + index * step, length)

    def bit(self, position: int) -> int:
        """Bit ``position`` (0 = most significant) of the network address."""
        return bit_at(self._network, position)

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, Prefix):
            return NotImplemented
        return self._network == other._network and self._length == other._length

    def __lt__(self, other: "Prefix") -> bool:
        if not isinstance(other, Prefix):
            return NotImplemented
        return (self._network, self._length) < (other._network, other._length)

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # Route unpickling through the constructor so restored worlds
        # share the restoring process's intern cache.
        return (type(self), (self._network, self._length))

    def __repr__(self) -> str:
        return f"Prefix({str(self)!r})"

    def __str__(self) -> str:
        return f"{format_address(self._network)}/{self._length}"


#: The entire IPv4 multicast (class D) address space, 224.0.0.0/4.
MULTICAST_SPACE = Prefix(parse_address("224.0.0.0"), 4)


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


def coalesce(prefixes: Iterable[Prefix]) -> List[Prefix]:
    """Return the minimal sorted list of prefixes covering the same
    addresses as the input.

    Removes prefixes covered by others and merges buddy pairs bottom-up.
    This is the CIDR aggregation performed on group routes (section
    4.3.2): e.g. 128.8/16 + 128.9/16 -> 128.8/15.
    """
    remaining = sorted(set(prefixes), key=lambda p: (p.length, p.network))
    # Drop prefixes covered by a shorter one. Sorted by length, any cover
    # appears before its covered prefixes.
    kept: List[Prefix] = []
    for prefix in remaining:
        if not any(other.contains(prefix) for other in kept):
            kept.append(prefix)
    # Merge buddies bottom-up until a fixed point.
    merged = True
    current = set(kept)
    while merged:
        merged = False
        for prefix in sorted(current, key=lambda p: -p.length):
            if prefix not in current or prefix.length == 0:
                continue
            buddy = prefix.buddy()
            if buddy in current:
                current.discard(prefix)
                current.discard(buddy)
                current.add(prefix.parent())
                merged = True
    return sorted(current)


def aggregate_prefixes(
    own: Iterable[Prefix], covered: Iterable[Prefix]
) -> List[Prefix]:
    """Aggregate a domain's advertised set: its own prefixes plus any
    child prefixes *not already covered* by its own.

    Mirrors section 4.3.2: a parent need not propagate children's group
    routes that its own claimed ranges subsume.
    """
    own_list = coalesce(own)
    extra = [
        child
        for child in covered
        if not any(mine.contains(child) for mine in own_list)
    ]
    return coalesce(list(own_list) + extra)


def find_covering(prefixes: Iterable[Prefix], address: int) -> Optional[Prefix]:
    """Longest-match lookup: the most specific prefix covering ``address``.

    Returns ``None`` when no prefix covers it.
    """
    best: Optional[Prefix] = None
    for prefix in prefixes:
        if prefix.contains_address(address):
            if best is None or prefix.length > best.length:
                best = prefix
    return best
