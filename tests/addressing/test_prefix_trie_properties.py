"""Property tests: PrefixTrie against a brute-force reference.

The allocation trie keeps a per-node address count and answers the
MASC claim queries from it; ``grow``/``halve`` re-root it in place.
Each is checked here, after every step of a hypothesis-generated
interleaving of ``insert`` / ``remove`` / ``grow`` / ``halve``, against
an oracle that keeps a plain set of prefixes and answers every query
by exhaustive scan. A refused operation must leave everything as it
was.
"""

import pickle

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.addressing.prefix import Prefix
from repro.addressing.trie import PrefixTrie


class Oracle:
    """The brute-force reference: a space, a set, exhaustive scans."""

    def __init__(self, space: Prefix) -> None:
        self.space = space
        self.taken = set()

    def overlapping(self, prefix):
        return self.space.contains(prefix) and any(
            prefix.overlaps(taken) for taken in self.taken
        )

    def covering_allocation(self, prefix):
        for taken in sorted(self.taken):
            if taken.contains(prefix):
                return taken
        return None

    def can_insert(self, prefix):
        return self.space.contains(prefix) and not self.overlapping(prefix)

    def can_halve(self):
        if self.space.length >= 32:
            return False
        _, high = self.space.children()
        return not self.overlapping(high)

    def free_prefixes(self):
        """Maximal free blocks: the whole space when nothing is taken,
        else every free sibling hanging off the path from an allocation
        up to the space (its parent holds that allocation, so it is
        maximal; and a maximal free block's buddy holds one)."""
        if not self.taken:
            return [self.space]
        candidates = set()
        for taken in sorted(self.taken):
            node = taken
            while node != self.space:
                candidates.add(node.buddy())
                node = node.parent()
        return sorted(p for p in candidates if not self.overlapping(p))


def subprefix(space: Prefix, depth: int, index: int) -> Prefix:
    """The sub-prefix ``depth`` bits below ``space`` (clamped at /32)
    picked by ``index``."""
    length = min(32, space.length + depth)
    return space.subprefix_at(length, index % (1 << (length - space.length)))


def outsider(space: Prefix, prefix: Prefix) -> Prefix:
    """``prefix`` moved into the space's buddy: outside, but with the
    same low-order bits (what an unchecked walk would follow)."""
    return Prefix(prefix.network ^ space.size, prefix.length)


def probes(oracle: Oracle, argument: Prefix):
    """Prefixes worth asking about: every allocation and its
    neighbourhood, the step's argument, the space and its surroundings."""
    space = oracle.space
    found = {argument, space, subprefix(space, 32, 0)}
    for taken in oracle.taken:
        found.add(taken)
        found.add(taken.buddy())
        found.add(taken.parent())
        if taken.length < 32:
            found.update(taken.children())
    if space.length:
        found.add(space.parent())
        found.add(space.buddy())
        if space.contains(argument):
            found.add(outsider(space, argument))
    return sorted(found)


def check_agrees(trie: PrefixTrie, oracle: Oracle, argument: Prefix) -> None:
    space = oracle.space
    assert trie.space == space
    assert len(trie) == len(oracle.taken)
    assert trie.utilized() == sum(p.size for p in oracle.taken)
    assert trie.allocations() == sorted(oracle.taken)
    assert list(trie) == sorted(oracle.taken)
    assert trie.upper_half_empty() == oracle.can_halve()
    free = oracle.free_prefixes()
    assert trie.free_prefixes() == free
    assert sum(p.size for p in free) + trie.utilized() == space.size
    for limit in range(max(0, space.length - 1), 33):
        fitting = [p for p in free if p.length <= limit]
        assert trie.free_prefixes(max_length=limit) == fitting
        best = min((p.length for p in fitting), default=None)
        assert trie.shortest_free_prefixes(limit) == [
            p for p in fitting if p.length == best
        ]
        lowest = Prefix(fitting[0].network, limit) if fitting else None
        assert trie.lowest_fit(limit) == lowest
    for probe in probes(oracle, argument):
        assert (probe in trie) == (probe in oracle.taken)
        assert trie.overlapping(probe) == oracle.overlapping(probe)
        assert trie.covering_allocation(
            probe
        ) == oracle.covering_allocation(probe)


def apply(trie: PrefixTrie, oracle: Oracle, step) -> Prefix:
    """Run one step on both; returns the prefix it was about. A step
    the oracle refuses must raise and (checked by the caller's
    ``check_agrees``) change nothing."""
    kind, depth, index = step
    space = oracle.space
    prefix = subprefix(space, depth, index)
    if kind == "insert-outside" and space.length:
        prefix = outsider(space, prefix)
    if kind in ("insert", "insert-outside"):
        if oracle.can_insert(prefix):
            trie.insert(prefix)
            oracle.taken.add(prefix)
        else:
            with pytest.raises(ValueError):
                trie.insert(prefix)
    elif kind in ("remove", "remove-any", "remove-outside"):
        if kind == "remove" and oracle.taken:
            prefix = sorted(oracle.taken)[index % len(oracle.taken)]
        elif kind == "remove-outside" and space.length:
            held = sorted(oracle.taken) or [prefix]
            prefix = outsider(space, held[index % len(held)])
        if prefix in oracle.taken:
            trie.remove(prefix)
            oracle.taken.remove(prefix)
        else:
            with pytest.raises(KeyError):
                trie.remove(prefix)
    elif kind == "grow":
        if space.length:
            assert trie.grow() == space.parent()
            oracle.space = space.parent()
        else:
            with pytest.raises(ValueError):
                trie.grow()
    else:
        assert kind == "halve"
        if oracle.can_halve():
            low, _ = space.children()
            assert trie.halve() == low
            oracle.space = low
        else:
            with pytest.raises(ValueError):
                trie.halve()
    return prefix


#: Shallow depths dominate so allocations collide, cover each other
#: and fill whole halves; the deep ones reach /32.
depths = st.one_of(st.integers(0, 3), st.integers(0, 28))
steps = st.tuples(
    st.sampled_from(
        [
            "insert", "insert", "insert", "insert-outside",
            "remove", "remove", "remove-any", "remove-outside",
            "grow", "halve", "halve",
        ]
    ),
    depths,
    st.integers(0, (1 << 28) - 1),
)
spaces = st.builds(
    lambda length, index: subprefix(Prefix(0, 0), length, index),
    st.integers(4, 30),
    st.integers(0, (1 << 30) - 1),
)


@settings(max_examples=150, deadline=None)
@given(spaces, st.lists(steps, max_size=24))
# The space allocated whole, halving refused, grown with the old root
# as an allocated child, released, and halved back twice.
@example(
    Prefix.parse("225.0.0.0/8"),
    [
        ("insert", 0, 0), ("halve", 0, 0), ("grow", 0, 0),
        ("insert", 1, 0), ("remove", 0, 0), ("halve", 0, 0),
        ("halve", 0, 0),
    ],
)
# A subtree emptied (its nodes unlinked) and refilled at other depths.
@example(
    Prefix.parse("224.0.0.0/4"),
    [
        ("insert", 3, 5), ("insert", 28, 7), ("remove", 0, 1),
        ("insert", 2, 2), ("remove", 0, 1), ("insert", 3, 5),
        ("insert", 3, 4), ("remove-outside", 0, 0),
    ],
)
def test_interleaving_matches_oracle(space, sequence):
    trie = PrefixTrie(space)
    oracle = Oracle(space)
    check_agrees(trie, oracle, space)
    for step in sequence:
        argument = apply(trie, oracle, step)
        check_agrees(trie, oracle, argument)
    # The counts are state: a pickled trie answers the same.
    check_agrees(pickle.loads(pickle.dumps(trie)), oracle, space)
