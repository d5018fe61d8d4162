"""Tests for the binary prefix trie."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.addressing.prefix import MULTICAST_SPACE, Prefix
from repro.addressing.trie import PrefixTrie


def make_trie(*texts):
    trie = PrefixTrie(MULTICAST_SPACE)
    for text in texts:
        trie.insert(Prefix.parse(text))
    return trie


class TestInsertRemove:
    def test_insert_and_contains(self):
        trie = make_trie("224.0.1.0/24")
        assert Prefix.parse("224.0.1.0/24") in trie
        assert Prefix.parse("224.0.2.0/24") not in trie
        assert len(trie) == 1

    def test_insert_rejects_outside_space(self):
        trie = PrefixTrie(MULTICAST_SPACE)
        with pytest.raises(ValueError):
            trie.insert(Prefix.parse("10.0.0.0/8"))

    def test_insert_rejects_covered(self):
        trie = make_trie("224.0.0.0/16")
        with pytest.raises(ValueError):
            trie.insert(Prefix.parse("224.0.128.0/24"))

    def test_insert_rejects_covering(self):
        trie = make_trie("224.0.128.0/24")
        with pytest.raises(ValueError):
            trie.insert(Prefix.parse("224.0.0.0/16"))

    def test_insert_rejects_duplicate(self):
        trie = make_trie("224.0.1.0/24")
        with pytest.raises(ValueError):
            trie.insert(Prefix.parse("224.0.1.0/24"))

    def test_insert_whole_space(self):
        trie = PrefixTrie(MULTICAST_SPACE)
        trie.insert(MULTICAST_SPACE)
        assert MULTICAST_SPACE in trie
        assert trie.free_prefixes() == []

    def test_remove(self):
        trie = make_trie("224.0.1.0/24")
        trie.remove(Prefix.parse("224.0.1.0/24"))
        assert len(trie) == 0
        assert Prefix.parse("224.0.1.0/24") not in trie

    def test_remove_missing_raises(self):
        trie = make_trie("224.0.1.0/24")
        with pytest.raises(KeyError):
            trie.remove(Prefix.parse("224.0.2.0/24"))

    def test_remove_outside_space_raises(self):
        # 225.0.0.0/25 shares its low-order bits with 224.0.0.0/25;
        # following them must not release the allocation inside.
        trie = PrefixTrie(Prefix.parse("224.0.0.0/24"))
        trie.insert(Prefix.parse("224.0.0.0/25"))
        with pytest.raises(KeyError):
            trie.remove(Prefix.parse("225.0.0.0/25"))
        with pytest.raises(KeyError):
            trie.remove(Prefix.parse("224.0.0.0/23"))
        assert trie.allocations() == [Prefix.parse("224.0.0.0/25")]

    def test_remove_then_reinsert(self):
        trie = make_trie("224.0.1.0/24")
        trie.remove(Prefix.parse("224.0.1.0/24"))
        trie.insert(Prefix.parse("224.0.0.0/16"))
        assert Prefix.parse("224.0.0.0/16") in trie


class TestQueries:
    def test_covering_allocation_exact(self):
        trie = make_trie("224.0.1.0/24")
        assert trie.covering_allocation(
            Prefix.parse("224.0.1.0/24")
        ) == Prefix.parse("224.0.1.0/24")

    def test_covering_allocation_ancestor(self):
        trie = make_trie("224.0.0.0/16")
        assert trie.covering_allocation(
            Prefix.parse("224.0.128.0/24")
        ) == Prefix.parse("224.0.0.0/16")

    def test_covering_allocation_none(self):
        trie = make_trie("224.0.0.0/16")
        assert trie.covering_allocation(Prefix.parse("225.0.0.0/16")) is None

    def test_overlapping_descendant(self):
        trie = make_trie("224.0.128.0/24")
        assert trie.overlapping(Prefix.parse("224.0.0.0/16"))
        assert not trie.overlapping(Prefix.parse("225.0.0.0/16"))

    def test_allocations_sorted(self):
        trie = make_trie("236.0.0.0/8", "224.0.1.0/24", "228.0.0.0/6")
        assert trie.allocations() == sorted(
            [
                Prefix.parse("236.0.0.0/8"),
                Prefix.parse("224.0.1.0/24"),
                Prefix.parse("228.0.0.0/6"),
            ]
        )

    def test_utilized(self):
        trie = make_trie("224.0.1.0/24", "239.0.0.0/8")
        assert trie.utilized() == 256 + (1 << 24)


class TestFreeSpace:
    def test_empty_trie_free_is_whole_space(self):
        trie = PrefixTrie(MULTICAST_SPACE)
        assert trie.free_prefixes() == [MULTICAST_SPACE]

    def test_paper_example(self):
        # Section 4.3.3: with 224.0.1/24 and 239/8 allocated, the largest
        # free blocks of 224/4 are 228/6 and 232/6 (no free /5 exists).
        trie = make_trie("224.0.1.0/24", "239.0.0.0/8")
        shortest = trie.shortest_free_prefixes(22)
        assert shortest == [
            Prefix.parse("228.0.0.0/6"),
            Prefix.parse("232.0.0.0/6"),
        ]

    def test_free_prefixes_partition(self):
        trie = make_trie("224.0.1.0/24", "239.0.0.0/8")
        frees = trie.free_prefixes()
        total_free = sum(p.size for p in frees)
        assert total_free == MULTICAST_SPACE.size - trie.utilized()
        # Disjointness.
        for i, a in enumerate(frees):
            for b in frees[i + 1:]:
                assert not a.overlaps(b)

    def test_shortest_free_respects_needed_length(self):
        trie = PrefixTrie(Prefix.parse("224.0.0.0/24"))
        trie.insert(Prefix.parse("224.0.0.0/25"))
        # Only a /25 is free; a /24 request cannot fit.
        assert trie.shortest_free_prefixes(24) == []
        assert trie.shortest_free_prefixes(25) == [
            Prefix.parse("224.0.0.128/25")
        ]

    def test_max_length_filter(self):
        trie = make_trie("224.0.0.0/5")
        frees = trie.free_prefixes(max_length=5)
        assert frees == [Prefix.parse("232.0.0.0/5")]


@st.composite
def subprefixes(draw, space=MULTICAST_SPACE, max_length=16):
    length = draw(st.integers(min_value=space.length, max_value=max_length))
    index = draw(
        st.integers(min_value=0, max_value=(1 << (length - space.length)) - 1)
    )
    return space.subprefix_at(length, index)


class TestTrieProperties:
    @settings(max_examples=60)
    @given(st.lists(subprefixes(), max_size=16))
    def test_insert_keeps_disjoint_invariant(self, items):
        trie = PrefixTrie(MULTICAST_SPACE)
        inserted = []
        for prefix in items:
            try:
                trie.insert(prefix)
                inserted.append(prefix)
            except ValueError:
                assert any(prefix.overlaps(p) for p in inserted)
        assert sorted(inserted) == trie.allocations()
        allocations = trie.allocations()
        for i, a in enumerate(allocations):
            for b in allocations[i + 1:]:
                assert not a.overlaps(b)

    @settings(max_examples=60)
    @given(st.lists(subprefixes(), max_size=16), st.data())
    def test_free_plus_allocated_partitions_space(self, items, data):
        trie = PrefixTrie(MULTICAST_SPACE)
        for prefix in items:
            if not trie.overlapping(prefix):
                trie.insert(prefix)
        # Randomly remove a few.
        allocations = trie.allocations()
        if allocations:
            victim = data.draw(st.sampled_from(allocations))
            trie.remove(victim)
        free_total = sum(p.size for p in trie.free_prefixes())
        assert free_total + trie.utilized() == MULTICAST_SPACE.size
