"""Prefix tables: an allocation trie and a longest-match map.

:class:`PrefixTrie` tracks which sub-prefixes of a root space are
allocated and answers the query at the heart of the MASC claim
algorithm (section 4.3.3 of the paper): *what are the largest free
blocks* — the free sub-prefixes of the shortest possible mask length —
from which a claimer then picks one at random. It counts as it goes:
every node knows how many addresses are allocated beneath it, so the
accounting the claim policy asks for constantly (how full, empty yet,
upper half clear) costs nothing, and a space doubles or halves by
changing the root rather than by rebuilding.

:class:`LpmTrie` is the routing-side sibling: a longest-prefix-match
map in which prefixes may overlap (aggregates coexist with their more
specifics, exactly as in a RIB), kept as one hash table per mask
length. It backs the G-RIB lookups of :class:`~repro.bgp.rib.LocRib`,
the origin index of ``BgpNetwork.root_domain_of`` and BGMP's
group-to-delta reverse index.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.addressing.ipv4 import ADDRESS_BITS, mask_bits
from repro.addressing.prefix import Prefix


class _Node:
    __slots__ = ("allocated", "used", "low", "high")

    def __init__(self, used: int = 0) -> None:
        self.allocated = False
        #: Addresses allocated in this node's subtree.
        self.used = used
        self.low: Optional[_Node] = None
        self.high: Optional[_Node] = None


class PrefixTrie:
    """Allocation state for sub-prefixes of a single root space.

    An *allocated* prefix marks its whole subtree as in use. Free space is
    everything under the root not covered by an allocated prefix. The trie
    enforces that allocations never overlap.

    Every node carries ``used``, the number of addresses allocated in
    its subtree. :meth:`insert` and :meth:`remove` patch it along the
    one path they walk, and ``remove`` unlinks a subtree whose count
    reaches zero, so a node below the root exists only while it holds
    an allocation. :meth:`utilized` and emptiness are therefore field
    reads, overlap is one descent, and the free-space walk skips any
    subtree too full to matter. :meth:`grow` and :meth:`halve` resize
    the space in place by re-rooting: the old root becomes a child of
    a new one, or the root's low child takes its place.
    """

    def __init__(self, root_space: Prefix):
        self._space = root_space
        self._root = _Node()
        self._count = 0

    @property
    def space(self) -> Prefix:
        """The root space this trie manages."""
        return self._space

    def __len__(self) -> int:
        return self._count

    def __contains__(self, prefix: Prefix) -> bool:
        node, length = self._reach(prefix)
        return length == prefix._length and node.allocated

    def _reach(self, prefix: Prefix) -> Tuple[Optional[_Node], int]:
        """The deepest existing node from the root toward ``prefix``
        and its mask length; (None, -1) when ``prefix`` lies outside
        the space. The walk ends early at an allocated node, which has
        no children."""
        space = self._space
        base, network, length = space._length, prefix._network, prefix._length
        if length < base or (network ^ space._network) >> (32 - base):
            return None, -1
        node = self._root
        for shift in range(31 - base, 31 - length, -1):
            child = node.high if (network >> shift) & 1 else node.low
            if child is None:
                return node, 31 - shift
            node = child
        return node, length

    def covering_allocation(self, prefix: Prefix) -> Optional[Prefix]:
        """The allocated prefix covering ``prefix``, if any (including
        ``prefix`` itself)."""
        node, length = self._reach(prefix)
        if node is None or not node.allocated:
            return None
        return Prefix(prefix._network & mask_bits(length), length)

    def overlapping(self, prefix: Prefix) -> bool:
        """True if any allocated prefix overlaps ``prefix``."""
        node, length = self._reach(prefix)
        return node is not None and (
            node.allocated or (length == prefix._length and node.used > 0)
        )

    def insert(self, prefix: Prefix) -> None:
        """Allocate ``prefix``. Raises ValueError on any overlap."""
        node, depth = self._reach(prefix)
        if node is None:
            raise ValueError(f"{prefix} outside space {self._space}")
        network, length = prefix._network, prefix._length
        if node.allocated or (depth == length and node.used):
            raise ValueError(f"{prefix} overlaps an existing allocation")
        size = 1 << (32 - length)
        node = self._root
        node.used += size
        for shift in range(31 - self._space._length, 31 - length, -1):
            high = (network >> shift) & 1
            child = node.high if high else node.low
            if child is None:
                child = _Node()
                if high:
                    node.high = child
                else:
                    node.low = child
            child.used += size
            node = child
        node.allocated = True
        self._count += 1

    def remove(self, prefix: Prefix) -> None:
        """Release an exact allocation. Raises KeyError if absent
        (which any prefix outside the space is)."""
        node, length = self._reach(prefix)
        if length != prefix._length or not node.allocated:
            raise KeyError(str(prefix))
        self._count -= 1
        network, size = prefix._network, 1 << (32 - length)
        node = self._root
        node.used -= size
        for shift in range(31 - self._space._length, 31 - length, -1):
            high = (network >> shift) & 1
            child = node.high if high else node.low
            child.used -= size
            if not child.used:
                # Unlink the emptied subtree: free-space walks read a
                # missing child as a free block.
                if high:
                    node.high = None
                else:
                    node.low = None
                return
            node = child
        node.allocated = False

    def grow(self) -> Prefix:
        """Double the space in place and return it: a new root adopts
        the old one as its low or high child. Nothing is re-inserted."""
        old, space = self._root, self._space
        self._space = space.parent()
        self._root = root = _Node(old.used)
        if old.used:
            if (space.network >> (32 - space.length)) & 1:
                root.high = old
            else:
                root.low = old
        return self._space

    def upper_half_empty(self) -> bool:
        """True when no allocation touches the upper half of the space
        (the precondition of :meth:`halve`)."""
        root = self._root
        return (
            self._space.length < ADDRESS_BITS
            and not root.allocated
            and root.high is None
        )

    def halve(self) -> Prefix:
        """Drop the upper half of the space in place and return what
        is left: the root's low child becomes the root. Raises
        ValueError (and changes nothing) while the upper half holds an
        allocation."""
        if not self.upper_half_empty():
            raise ValueError(f"upper half of {self._space} is not empty")
        self._space, _ = self._space.children()
        self._root = self._root.low or _Node()
        return self._space

    def allocations(self) -> List[Prefix]:
        """All allocated prefixes, sorted."""
        found: List[Prefix] = []
        stack = [(self._root, self._space.network, self._space.length)]
        while stack:
            node, network, length = stack.pop()
            if node.allocated:
                found.append(Prefix(network, length))
                continue
            length += 1
            if node.high is not None:
                high = network | 1 << (32 - length)
                stack.append((node.high, high, length))
            if node.low is not None:
                stack.append((node.low, network, length))
        return found

    def _free(
        self, limit: int, narrow: bool = False
    ) -> List[Tuple[int, int]]:
        """(network, length) of every maximal free block no longer than
        /``limit``, in address order. A subtree is entered only while
        it is shorter than the limit and has a /``limit`` worth of
        addresses unallocated. With ``narrow``, each block found lowers
        the limit to its own length, so every later block is at least
        as large and no subtree is entered that holds only smaller
        ones."""
        space = self._space
        found: List[Tuple[int, int]] = []
        if limit < space._length:
            return found
        need = 1 << (32 - limit)
        stack = [(self._root, space._network, space._length)]
        while stack:
            node, network, length = stack.pop()
            if node is None or not node.used:
                if length <= limit:
                    found.append((network, length))
                    if narrow:
                        limit, need = length, 1 << (32 - length)
            elif length < limit and node.used + need <= 1 << (32 - length):
                length += 1
                high = network | 1 << (32 - length)
                stack.append((node.high, high, length))
                stack.append((node.low, network, length))
        return found

    def free_prefixes(self, max_length: Optional[int] = None) -> List[Prefix]:
        """Maximal free blocks (free prefixes whose parent is not free),
        sorted.

        With ``max_length`` set, blocks longer than it are dropped.
        """
        limit = ADDRESS_BITS if max_length is None else max_length
        return [Prefix(*block) for block in self._free(limit)]

    def lowest_fit(self, length: int) -> Optional[Prefix]:
        """The lowest-addressed free /``length`` range, if any: the
        head of the first free block that can hold it."""
        space = self._space
        if length < space._length:
            return None
        need = 1 << (32 - length)
        stack = [(self._root, space._network, space._length)]
        while stack:
            node, network, depth = stack.pop()
            if node is None or not node.used:
                return Prefix(network, length)
            if depth < length and node.used + need <= 1 << (32 - depth):
                depth += 1
                stack.append((node.high, network | 1 << (32 - depth), depth))
                stack.append((node.low, network, depth))
        return None

    def shortest_free_prefixes(self, needed_length: int) -> List[Prefix]:
        """Free blocks of the shortest available mask length that can hold
        a /``needed_length`` claim, sorted by address.

        This is the candidate set of the paper's claim algorithm: "it
        finds all the remaining prefixes of the shortest possible mask
        length, and randomly chooses one of them".
        """
        blocks = self._free(needed_length, narrow=True)
        best = blocks[-1][1] if blocks else None
        return [Prefix(*block) for block in blocks if block[1] == best]

    def utilized(self) -> int:
        """Total number of addresses covered by allocations."""
        return self._root.used

    def __iter__(self) -> Iterator[Prefix]:
        return iter(self.allocations())


class LpmTrie:
    """Longest-prefix-match map over possibly overlapping prefixes.

    Unlike :class:`PrefixTrie` (an allocation tracker that forbids
    overlap), an ``LpmTrie`` stores one value per prefix and lets
    covering aggregates coexist with their more specifics. Entries
    live in one dict per stored mask length, keyed by the prefix's
    significant bits; :meth:`lookup` probes the lengths present,
    longest first. A routing table holds a handful of distinct lengths
    (CIDR aggregation is the paper's scaling argument), so a lookup is
    a handful of hash probes and insert/remove are O(1).
    """

    __slots__ = ("_tables", "_search")

    def __init__(self) -> None:
        #: mask length -> {network >> (32 - length): value}; a length
        #: whose last entry goes is dropped.
        self._tables: Dict[int, Dict[int, Any]] = {}
        #: (length, 32 - length, table) for every length present,
        #: longest first — the probe order of :meth:`lookup`.
        self._search: Tuple[Tuple[int, int, Dict[int, Any]], ...] = ()

    def _reindex(self) -> None:
        self._search = tuple(
            (length, ADDRESS_BITS - length, self._tables[length])
            for length in sorted(self._tables, reverse=True)
        )

    def _slot(self, prefix: Prefix) -> Tuple[Optional[Dict[int, Any]], int]:
        """The table for ``prefix``'s length (None when that length is
        not stored) and the prefix's key in it."""
        length = prefix.length
        return (
            self._tables.get(length),
            prefix.network >> (ADDRESS_BITS - length),
        )

    def __len__(self) -> int:
        return sum(len(table) for table in self._tables.values())

    def __contains__(self, prefix: Prefix) -> bool:
        table, key = self._slot(prefix)
        return table is not None and key in table

    def insert(self, prefix: Prefix, value: Any) -> None:
        """Store ``value`` under ``prefix`` (replacing any previous
        value for the exact same prefix)."""
        table, key = self._slot(prefix)
        if table is None:
            table = self._tables[prefix.length] = {}
            self._reindex()
        table[key] = value

    def get(self, prefix: Prefix) -> Any:
        """The value stored under exactly ``prefix`` (None if absent)."""
        table, key = self._slot(prefix)
        return None if table is None else table.get(key)

    def lookup(self, address: int) -> Any:
        """Longest-match lookup: the value of the most specific stored
        prefix covering ``address`` (None when nothing covers it)."""
        for _length, shift, table in self._search:
            key = address >> shift
            if key in table:
                return table[key]
        return None

    def remove(self, prefix: Prefix) -> bool:
        """Delete the entry stored under exactly ``prefix``.

        Returns True when an entry was removed, False when the prefix
        held no value.
        """
        table, key = self._slot(prefix)
        if table is None or key not in table:
            return False
        del table[key]
        if not table:
            del self._tables[prefix.length]
            self._reindex()
        return True

    def covered(self, prefix: Prefix) -> List[Tuple[Prefix, Any]]:
        """All stored entries whose prefix lies inside ``prefix``.

        This is the reverse-dependency query of BGMP tree maintenance:
        a G-RIB delta on a group range invalidates exactly the
        (more-specific) group prefixes registered under it. Includes an
        entry stored under ``prefix`` itself. Sorted by (network,
        length) so iteration order is deterministic. Scans every table
        of an equal or longer length.
        """
        wanted = prefix.network >> (ADDRESS_BITS - prefix.length)
        found: List[Tuple[Prefix, Any]] = []
        for length, shift, table in self._search:
            if length < prefix.length:
                break
            extra = length - prefix.length
            found.extend(
                (Prefix(key << shift, length), value)
                for key, value in table.items()
                if key >> extra == wanted
            )
        found.sort(key=lambda item: (item[0].network, item[0].length))
        return found

    def items(self) -> List[Tuple[Prefix, Any]]:
        """All stored (prefix, value) pairs, sorted deterministically."""
        return self.covered(Prefix(0, 0))
