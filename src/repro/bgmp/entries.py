"""BGMP multicast forwarding state.

A :class:`ForwardingEntry` is the paper's (\\*,G) / (S,G) record: a
parent target (next hop towards the group's root domain, or towards the
source for an (S,G) entry) plus child targets. The
:class:`ForwardingTable` keys entries by group address and optional
source domain, with the standard longest-state match: packets from
source S prefer the (S,G) entry when one exists.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from typing import Callable, Dict, List, Optional

from repro.addressing.prefix import Prefix
from repro.bgmp.targets import Target
from repro.topology.domain import Domain


class ForwardingEntry:
    """One (\\*,G) or (S,G) entry at a BGMP router.

    Every state mutation (parent, upstream, child list) bumps the
    owning table's version counter, so per-router digest lines can be
    cached and rebuilt only where state actually moved.
    """

    __slots__ = (
        "group", "_parent", "source_domain", "children", "_upstream",
        "anchor", "_table",
    )

    def __init__(
        self,
        group: int,
        parent: Optional[Target],
        source_domain: Optional[Domain] = None,
    ):
        self.group = group
        self._parent = parent
        self.source_domain = source_domain
        self.children: List[Target] = []
        #: The concrete router the join was propagated to (the best
        #: exit router when the parent target is the MIGP component).
        #: Used to prune the correct upstream after G-RIB changes.
        self._upstream = None
        #: The G-RIB key (prefix of the group route) a (\*,G) entry's
        #: parent was last derived from; None while routeless.
        self.anchor: Optional[Prefix] = None
        #: The table this entry lives in (None until created through
        #: one); mutations invalidate that table's digest cache.
        self._table: Optional["ForwardingTable"] = None

    def _touch(self) -> None:
        if self._table is not None:
            self._table.version += 1

    @property
    def parent(self) -> Optional[Target]:
        return self._parent

    @parent.setter
    def parent(self, target: Optional[Target]) -> None:
        self._parent = target
        self._touch()

    @property
    def upstream(self):
        return self._upstream

    @upstream.setter
    def upstream(self, router) -> None:
        self._upstream = router
        self._touch()

    @property
    def is_source_specific(self) -> bool:
        """True for (S,G) entries."""
        return self.source_domain is not None

    def add_child(self, target: Target) -> bool:
        """Add a child target; False if already present."""
        if target in self.children:
            return False
        self.children.append(target)
        self._touch()
        return True

    def remove_child(self, target: Target) -> bool:
        """Remove a child target; False if absent."""
        if target not in self.children:
            return False
        self.children.remove(target)
        self._touch()
        return True

    def targets(self) -> List[Target]:
        """Parent plus children — the full target list."""
        found: List[Target] = []
        if self.parent is not None:
            found.append(self.parent)
        found.extend(self.children)
        return found

    def outputs_for(self, arrived_from: Optional[Target]) -> List[Target]:
        """Bidirectional forwarding rule: every target except the one
        the packet arrived from.

        A source-specific entry with no children is a *negative*
        (prune) entry — the source's packets stop here instead of
        continuing along the shared tree (section 5.3's prune-back).
        """
        if self.is_source_specific and not self.children:
            return []
        return [t for t in self.targets() if t is not arrived_from]

    def __repr__(self) -> str:
        kind = (
            f"({self.source_domain.name},G)"
            if self.source_domain
            else "(*,G)"
        )
        return (
            f"ForwardingEntry{kind} group={self.group:#x} "
            f"parent={self.parent!r} children={self.children!r}"
        )


class ForwardingTable:
    """All BGMP forwarding entries at one border router, in creation
    order: a (\\*,G) entry keyed by its group, an (S,G) entry by
    (group, source domain)."""

    def __init__(self) -> None:
        self._entries: Dict[object, ForwardingEntry] = {}
        #: The (\*,G) groups, sorted: read it, change it only through
        #: :meth:`create` and :meth:`remove`. A moved G-RIB key sends
        #: the entries in its range whose ``anchor`` it displaces back
        #: to ``update_parent``.
        self.shared: List[int] = []
        #: (S,G) source domains by group, in creation order: what a
        #: (\*,G) teardown removes without walking every entry.
        self._sources: Dict[int, Dict[Domain, None]] = {}
        #: Optional change hook, called with the group when an entry
        #: appears or disappears.
        #: :class:`~repro.bgmp.network.BgmpNetwork` uses it to flag the
        #: domain's membership for the next repair; ``None`` costs
        #: nothing.
        self.on_change: Optional[Callable[[int], None]] = None
        #: Monotone mutation counter covering entry creation, removal,
        #: and in-place entry edits — the digest cache's staleness key.
        self.version = 0

    def get(
        self, group: int, source_domain: Optional[Domain] = None
    ) -> Optional[ForwardingEntry]:
        """Exact lookup of a (\\*,G) or (S,G) entry."""
        if source_domain is None:
            return self._entries.get(group)
        return self._entries.get((group, source_domain))

    def match(
        self, group: int, source_domain: Optional[Domain] = None
    ) -> Optional[ForwardingEntry]:
        """Forwarding lookup: prefer (S,G) over (\\*,G)."""
        if source_domain is not None:
            specific = self._entries.get((group, source_domain))
            if specific is not None:
                return specific
        return self._entries.get(group)

    def shared_in(self, first: int, last: int) -> List[ForwardingEntry]:
        """The (\\*,G) entries of the groups ``first``..``last``, by
        group."""
        shared, entries = self.shared, self._entries
        return [
            entries[group]
            for group in shared[
                bisect_left(shared, first):bisect_right(shared, last)
            ]
        ]

    def create(
        self,
        group: int,
        parent: Optional[Target],
        source_domain: Optional[Domain] = None,
        anchor: Optional[Prefix] = None,
    ) -> ForwardingEntry:
        """Create (or return the existing) entry; a (\\*,G) entry
        records ``anchor``, the G-RIB key its parent derives from."""
        key = group if source_domain is None else (group, source_domain)
        entry = self._entries.get(key)
        if entry is None:
            entry = ForwardingEntry(group, parent, source_domain)
            entry._table = self
            self._entries[key] = entry
            if source_domain is None:
                entry.anchor = anchor
                insort(self.shared, group)
            else:
                self._sources.setdefault(group, {})[source_domain] = None
            self.version += 1
            if self.on_change is not None:
                self.on_change(group)
        return entry

    def remove(
        self, group: int, source_domain: Optional[Domain] = None
    ) -> bool:
        """Drop an entry; False if absent."""
        key = group if source_domain is None else (group, source_domain)
        if self._entries.pop(key, None) is None:
            return False
        if source_domain is None:
            del self.shared[bisect_left(self.shared, group)]
        else:
            sources = self._sources[group]
            del sources[source_domain]
            if not sources:
                del self._sources[group]
        self.version += 1
        if self.on_change is not None:
            self.on_change(group)
        return True

    def remove_sources(self, group: int) -> None:
        """Drop every (S,G) entry of ``group``, in creation order."""
        for source_domain in list(self._sources.get(group, ())):
            self.remove(group, source_domain)

    def entries(self) -> List[ForwardingEntry]:
        """All entries, in creation order."""
        return list(self._entries.values())

    def groups(self) -> List[int]:
        """Distinct group addresses with any state."""
        return sorted({entry.group for entry in self._entries.values()})

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key) -> bool:
        if isinstance(key, tuple):
            return self.get(*key) is not None
        return key in self._entries
