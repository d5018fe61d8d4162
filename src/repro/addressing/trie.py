"""Prefix tables: an allocation trie and a longest-match map.

:class:`PrefixTrie` tracks which sub-prefixes of a root space are
allocated and answers the query at the heart of the MASC claim
algorithm (section 4.3.3 of the paper): *what are the largest free
blocks* — the free sub-prefixes of the shortest possible mask length —
from which a claimer then picks one at random.

:class:`LpmTrie` is the routing-side sibling: a longest-prefix-match
map in which prefixes may overlap (aggregates coexist with their more
specifics, exactly as in a RIB), kept as one hash table per mask
length. It backs the G-RIB lookups of :class:`~repro.bgp.rib.LocRib`,
the origin index of ``BgpNetwork.root_domain_of`` and BGMP's
group-to-delta reverse index.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.addressing.ipv4 import ADDRESS_BITS
from repro.addressing.prefix import Prefix


class _Node:
    __slots__ = ("allocated", "low", "high")

    def __init__(self) -> None:
        self.allocated = False
        self.low: Optional[_Node] = None
        self.high: Optional[_Node] = None

    @property
    def is_leaf(self) -> bool:
        return self.low is None and self.high is None


class PrefixTrie:
    """Allocation state for sub-prefixes of a single root space.

    An *allocated* prefix marks its whole subtree as in use. Free space is
    everything under the root not covered by an allocated prefix. The trie
    enforces that allocations never overlap.
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
        node = self._walk(prefix)
        return node is not None and node.allocated

    def _path_bits(self, prefix: Prefix) -> range:
        return range(self._space.length, prefix.length)

    def _walk(self, prefix: Prefix) -> Optional[_Node]:
        """Return the node for ``prefix``, or None if absent."""
        if not self._space.contains(prefix):
            return None
        node: Optional[_Node] = self._root
        for position in self._path_bits(prefix):
            if node is None:
                return None
            node = node.high if prefix.bit(position) else node.low
        return node

    def covering_allocation(self, prefix: Prefix) -> Optional[Prefix]:
        """The allocated prefix covering ``prefix``, if any (including
        ``prefix`` itself)."""
        if not self._space.contains(prefix):
            return None
        node = self._root
        network = self._space.network
        for position in self._path_bits(prefix):
            if node.allocated:
                return Prefix(network, position)
            bit = prefix.bit(position)
            child = node.high if bit else node.low
            if child is None:
                return None
            if bit:
                network |= 1 << (31 - position)
            node = child
        return prefix if node.allocated else None

    def overlapping(self, prefix: Prefix) -> bool:
        """True if any allocated prefix overlaps ``prefix``."""
        if self.covering_allocation(prefix) is not None:
            return True
        node = self._walk(prefix)
        return node is not None and _subtree_has_allocation(node)

    def insert(self, prefix: Prefix) -> None:
        """Allocate ``prefix``. Raises ValueError on any overlap."""
        if not self._space.contains(prefix):
            raise ValueError(f"{prefix} outside space {self._space}")
        if self.overlapping(prefix):
            raise ValueError(f"{prefix} overlaps an existing allocation")
        node = self._root
        for position in self._path_bits(prefix):
            if prefix.bit(position):
                if node.high is None:
                    node.high = _Node()
                node = node.high
            else:
                if node.low is None:
                    node.low = _Node()
                node = node.low
        node.allocated = True
        self._count += 1

    def remove(self, prefix: Prefix) -> None:
        """Release an exact allocation. Raises KeyError if absent."""
        path: List[_Node] = [self._root]
        node: Optional[_Node] = self._root
        for position in self._path_bits(prefix):
            node = node.high if prefix.bit(position) else node.low
            if node is None:
                raise KeyError(str(prefix))
            path.append(node)
        if not node.allocated:
            raise KeyError(str(prefix))
        node.allocated = False
        self._count -= 1
        # Prune now-empty branches so free-space queries stay fast.
        for index in range(len(path) - 1, 0, -1):
            child = path[index]
            if child.allocated or not child.is_leaf:
                break
            parent = path[index - 1]
            if parent.low is child:
                parent.low = None
            else:
                parent.high = None

    def allocations(self) -> List[Prefix]:
        """All allocated prefixes, sorted."""
        found: List[Prefix] = []
        self._collect(self._root, self._space, found)
        return found

    def _collect(self, node: _Node, prefix: Prefix, out: List[Prefix]) -> None:
        if node.allocated:
            out.append(prefix)
            return
        low, high = (
            prefix.children() if prefix.length < 32 else (None, None)
        )
        if node.low is not None and low is not None:
            self._collect(node.low, low, out)
        if node.high is not None and high is not None:
            self._collect(node.high, high, out)

    def free_prefixes(self, max_length: Optional[int] = None) -> List[Prefix]:
        """Maximal free blocks (free prefixes whose parent is not free).

        With ``max_length`` set, blocks longer than it are dropped.
        """
        found: List[Prefix] = []
        self._free(self._root, self._space, found)
        if max_length is not None:
            found = [p for p in found if p.length <= max_length]
        return sorted(found)

    def _free(self, node: _Node, prefix: Prefix, out: List[Prefix]) -> None:
        if node.allocated:
            return
        if node.is_leaf:
            out.append(prefix)
            return
        low, high = prefix.children()
        if node.low is None:
            out.append(low)
        else:
            self._free(node.low, low, out)
        if node.high is None:
            out.append(high)
        else:
            self._free(node.high, high, out)

    def shortest_free_prefixes(self, needed_length: int) -> List[Prefix]:
        """Free blocks of the shortest available mask length that can hold
        a /``needed_length`` claim, sorted by address.

        This is the candidate set of the paper's claim algorithm: "it
        finds all the remaining prefixes of the shortest possible mask
        length, and randomly chooses one of them".
        """
        candidates = [
            p for p in self.free_prefixes() if p.length <= needed_length
        ]
        if not candidates:
            return []
        best = min(p.length for p in candidates)
        return [p for p in candidates if p.length == best]

    def utilized(self) -> int:
        """Total number of addresses covered by allocations."""
        return sum(p.size for p in self.allocations())

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


def _subtree_has_allocation(node: _Node) -> bool:
    if node.allocated:
        return True
    stack = [child for child in (node.low, node.high) if child is not None]
    while stack:
        current = stack.pop()
        if current.allocated:
            return True
        stack.extend(
            child for child in (current.low, current.high) if child is not None
        )
    return False
