"""Prefix interning: one canonical object per (network, length).

The fast path hinges on prefix identity — interned prefixes make hash
table probes pointer comparisons and keep the millions of route/table
keys of an internet-scale run from materialising duplicate objects.
These tests pin the canonicalisation contract everywhere a Prefix can
come from: the constructor, the parsers, pickle, and checkpoint
restore — and that interning changes *nothing* observable (the
interned trie answers exactly like a brute-force oracle).
"""

import pickle
import random

from hypothesis import given, settings, strategies as st

from repro.addressing.prefix import Prefix, interned_count
from repro.addressing.trie import LpmTrie
from repro.checkpoint.core import capture, restore


class TestCanonicalIdentity:
    def test_constructor_returns_the_cached_object(self):
        a = Prefix((224 << 24), 8)
        b = Prefix((224 << 24), 8)
        assert a is b

    def test_parse_and_from_block_share_the_instance(self):
        constructed = Prefix((226 << 24) | (4 << 16), 16)
        assert Prefix.parse("226.4.0.0/16") is constructed
        assert Prefix.from_block((226 << 24) | (4 << 16), 1 << 16) is (
            constructed
        )

    def test_invalid_prefixes_are_never_cached(self):
        before = interned_count()
        for network, length in (((224 << 24) | 1, 8), (0, 40)):
            try:
                Prefix(network, length)
            except ValueError:
                pass
            else:  # pragma: no cover - the constructor must raise
                raise AssertionError("expected ValueError")
        assert interned_count() == before

    def test_unpickle_returns_the_interned_object(self):
        original = Prefix.parse("239.1.0.0/20")
        clone = pickle.loads(pickle.dumps(original))
        assert clone is original

    def test_nested_unpickle_interns_too(self):
        table = {Prefix.parse("224.0.0.0/4"): "root"}
        clone = pickle.loads(pickle.dumps(table))
        (key,) = clone
        assert key is Prefix.parse("224.0.0.0/4")

    def test_checkpoint_restore_preserves_interning(self):
        trie = LpmTrie()
        prefixes = [
            Prefix((224 << 24) | (i << 12), 20) for i in range(16)
        ]
        for index, prefix in enumerate(prefixes):
            trie.insert(prefix, index)
        restored = restore(capture({"trie": trie, "keys": prefixes}))
        for original, key in zip(prefixes, restored["keys"]):
            assert key is original
        assert restored["trie"].items() == trie.items()

    def test_hash_equals_tuple_hash(self):
        p = Prefix.parse("224.128.0.0/9")
        assert hash(p) == hash((p.network, p.length))


class TestNoLeaks:
    def test_capture_restore_does_not_duplicate_entries(self):
        prefixes = [
            Prefix((239 << 24) | (i << 16), 18) for i in range(8)
        ]
        before = interned_count()
        restored = restore(capture(prefixes))
        # Restoring resolves through the constructor: every prefix
        # already interned comes back as the same object, so the
        # table must not have grown.
        assert interned_count() == before
        assert all(a is b for a, b in zip(prefixes, restored))


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.data())
def test_interned_trie_matches_brute_force_oracle(seed, data):
    """LpmTrie over interned prefixes answers longest-match exactly
    like a brute-force scan over an uninterned (network, length)
    list — interning must be invisible to lookup semantics."""
    rng = random.Random(seed)
    entries = []
    trie = LpmTrie()
    for _ in range(data.draw(st.integers(min_value=1, max_value=24))):
        length = rng.randint(0, 32)
        network = (rng.getrandbits(32) >> (32 - length)) << (
            32 - length
        ) if length else 0
        value = rng.randint(0, 1000)
        trie.insert(Prefix(network, length), value)
        entries = [e for e in entries if e[:2] != (network, length)]
        entries.append((network, length, value))
    for _ in range(8):
        address = rng.getrandbits(32)
        best = None
        for network, length, value in entries:
            mask = ((1 << length) - 1) << (32 - length) if length else 0
            if address & mask == network and (
                best is None or length > best[0]
            ):
                best = (length, value)
        assert trie.lookup(address) == (
            best[1] if best is not None else None
        )
