"""Property tests: LpmTrie against a brute-force reference map.

The BGMP engine leans on three ``LpmTrie`` operations —
``insert``/``remove`` churn as groups register, ``lookup`` for
longest-match root-domain resolution, and the reverse-dependency query
``covered`` that turns a G-RIB delta into a dirty set. Each is checked
here against an oracle that keeps a plain ``{Prefix: value}`` dict and
answers every query by exhaustive scan, over both hypothesis-generated
and seeded-random operation sequences.
"""

import pickle
import random

from hypothesis import given, settings, strategies as st

from repro.addressing.ipv4 import mask_bits
from repro.addressing.prefix import Prefix
from repro.addressing.trie import LpmTrie


def make_prefix(network: int, length: int) -> Prefix:
    """A valid prefix from arbitrary bits (mask off host bits)."""
    return Prefix(network & mask_bits(length) & 0xFFFFFFFF, length)


#: Confined to a /4-ish neighbourhood so generated prefixes overlap
#: often (covering aggregates over more specifics — the interesting
#: case), with a sprinkle of full-range ones.
prefixes = st.builds(
    make_prefix,
    st.integers(min_value=0, max_value=0xFFFFFFFF),
    st.integers(min_value=0, max_value=32),
)
dense_prefixes = st.builds(
    make_prefix,
    st.integers(min_value=0xE0000000, max_value=0xE000FFFF),
    st.integers(min_value=4, max_value=32),
)
any_prefix = st.one_of(dense_prefixes, prefixes)


class Oracle:
    """The brute-force reference: a dict plus exhaustive scans."""

    def __init__(self) -> None:
        self.entries = {}

    def insert(self, prefix, value):
        self.entries[prefix] = value

    def remove(self, prefix):
        return self.entries.pop(prefix, None) is not None

    def get(self, prefix):
        return self.entries.get(prefix)

    def lookup(self, address):
        best = None
        for prefix, value in self.entries.items():
            if prefix.contains_address(address):
                if best is None or prefix.length > best[0].length:
                    best = (prefix, value)
        return None if best is None else best[1]

    def covered(self, query):
        found = [
            (prefix, value)
            for prefix, value in self.entries.items()
            if query.contains(prefix)
        ]
        found.sort(key=lambda item: (item[0].network, item[0].length))
        return found

    def items(self):
        found = sorted(
            self.entries.items(),
            key=lambda item: (item[0].network, item[0].length),
        )
        return found


#: Stored values include None and other falsy objects: a stored None is
#: an entry (it counts, it shadows a covering aggregate), not a hole.
values = st.one_of(
    st.none(), st.just(0), st.just(""), st.just(False), st.integers()
)
#: Two mask lengths only, so a length's table empties and comes back.
sparse_prefixes = st.builds(
    make_prefix,
    st.integers(min_value=0xE0000000, max_value=0xE0000003),
    st.sampled_from((0, 31, 32)),
)
operations = st.lists(
    st.tuples(
        st.booleans(), st.one_of(sparse_prefixes, any_prefix), values
    ),
    max_size=30,
)


def assert_same(trie, oracle, seen):
    """Every observable of ``trie`` equals the reference's."""
    assert len(trie) == len(oracle.entries)
    assert trie.items() == oracle.items()
    for prefix in seen:
        assert (prefix in trie) is (prefix in oracle.entries)
        assert trie.get(prefix) == oracle.get(prefix)
        assert trie.covered(prefix) == oracle.covered(prefix)
    for address in probe_addresses(seen):
        assert trie.lookup(address) == oracle.lookup(address)


def probe_addresses(prefixes_seen):
    """Addresses worth probing: each prefix's first/last address plus
    neighbours just outside."""
    out = set()
    for prefix in prefixes_seen:
        span = prefix.size
        out.add(prefix.network)
        out.add(prefix.network + span - 1)
        out.add((prefix.network - 1) & 0xFFFFFFFF)
        out.add((prefix.network + span) & 0xFFFFFFFF)
    return sorted(out)


class TestInsertLookupProperties:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(any_prefix, max_size=30))
    def test_inserts_match_reference(self, items):
        trie, oracle = LpmTrie(), Oracle()
        for value, prefix in enumerate(items):
            trie.insert(prefix, value)
            oracle.insert(prefix, value)
        assert len(trie) == len(oracle.entries)
        assert trie.items() == oracle.items()
        for prefix in items:
            assert (prefix in trie) is (prefix in oracle.entries)
            assert trie.get(prefix) == oracle.get(prefix)
        for address in probe_addresses(items):
            assert trie.lookup(address) == oracle.lookup(address)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(any_prefix, max_size=24),
        st.lists(any_prefix, max_size=24),
    )
    def test_removes_match_reference(self, inserts, removes):
        trie, oracle = LpmTrie(), Oracle()
        for value, prefix in enumerate(inserts):
            trie.insert(prefix, value)
            oracle.insert(prefix, value)
        for prefix in removes + inserts[::2]:
            assert trie.remove(prefix) is oracle.remove(prefix)
        assert len(trie) == len(oracle.entries)
        assert trie.items() == oracle.items()
        for address in probe_addresses(inserts + removes):
            assert trie.lookup(address) == oracle.lookup(address)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(any_prefix, max_size=24), any_prefix)
    def test_covered_matches_reference(self, items, query):
        trie, oracle = LpmTrie(), Oracle()
        for value, prefix in enumerate(items):
            trie.insert(prefix, value)
            oracle.insert(prefix, value)
        assert trie.covered(query) == oracle.covered(query)
        # The engine's own query shape: /32 registrations under a
        # covering range.
        for prefix, _value in oracle.covered(query):
            assert query.contains(prefix)


class TestInterleavedOperations:
    @settings(max_examples=80, deadline=None)
    @given(operations)
    def test_every_step_matches_reference(self, steps):
        """Inserts and removes interleaved, /0 and /32 included, falsy
        values stored; everything is compared after every step, and a
        pickled copy at the end answers like the original."""
        trie, oracle = LpmTrie(), Oracle()
        seen = [Prefix(0, 0)]
        for insert, prefix, value in steps:
            seen.append(prefix)
            if insert:
                trie.insert(prefix, value)
                oracle.insert(prefix, value)
            else:
                assert trie.remove(prefix) is (prefix in oracle.entries)
                oracle.entries.pop(prefix, None)
            assert_same(trie, oracle, seen)
        assert_same(pickle.loads(pickle.dumps(trie)), oracle, seen)

    def test_default_route_and_host_route(self):
        trie = LpmTrie()
        default, host = Prefix(0, 0), Prefix(0xE0000001, 32)
        trie.insert(default, "default")
        trie.insert(host, "host")
        assert trie.lookup(0) == "default"
        assert trie.lookup(0xFFFFFFFF) == "default"
        assert trie.lookup(0xE0000001) == "host"
        assert trie.lookup(0xE0000000) == "default"
        assert trie.covered(default) == [(default, "default"), (host, "host")]
        assert trie.covered(host) == [(host, "host")]
        assert trie.remove(default)
        assert trie.lookup(0) is None

    def test_stored_none_is_an_entry(self):
        trie = LpmTrie()
        aggregate, specific = Prefix(0xE0000000, 4), Prefix(0xE0000000, 24)
        trie.insert(aggregate, "aggregate")
        trie.insert(specific, None)
        assert len(trie) == 2
        assert specific in trie
        # The more specific None shadows the aggregate, as any value would.
        assert trie.lookup(0xE0000001) is None
        assert trie.lookup(0xE0000100) == "aggregate"
        assert trie.items() == [(aggregate, "aggregate"), (specific, None)]
        assert trie.remove(specific)
        assert trie.lookup(0xE0000001) == "aggregate"

    def test_emptied_length_is_recreated(self):
        trie = LpmTrie()
        aggregate, specific = Prefix(0xE0000000, 4), Prefix(0xE0001000, 20)
        trie.insert(aggregate, "aggregate")
        for round_ in range(3):
            trie.insert(specific, round_)
            assert trie.lookup(0xE0001234) == round_
            assert trie.remove(specific)
            assert not trie.remove(specific)
            assert trie.lookup(0xE0001234) == "aggregate"
            assert trie.covered(aggregate) == [(aggregate, "aggregate")]

    def test_pickled_copy_is_independent(self):
        trie = LpmTrie()
        trie.insert(Prefix(0xE0000000, 4), "aggregate")
        trie.insert(Prefix(0xE0001000, 20), "specific")
        copy = pickle.loads(pickle.dumps(trie))
        # A restored copy keeps working as a table: a new length must
        # become visible to lookups, and the original must not see it.
        copy.insert(Prefix(0xE0001200, 24), "deeper")
        assert copy.lookup(0xE0001234) == "deeper"
        assert trie.lookup(0xE0001234) == "specific"
        assert copy.remove(Prefix(0xE0001000, 20))
        assert copy.lookup(0xE0001034) == "aggregate"


class TestSeededChurn:
    def test_random_churn_against_reference(self):
        """Long seeded insert/remove/lookup/covered interleavings —
        lengths come and go under heavy churn, which short hypothesis
        examples rarely reach."""
        for seed in range(5):
            rng = random.Random(seed)
            trie, oracle = LpmTrie(), Oracle()
            pool = [
                make_prefix(
                    rng.randrange(0xE0000000, 0xE0100000),
                    rng.choice((4, 8, 12, 16, 20, 24, 28, 32)),
                )
                for _ in range(80)
            ]
            for step in range(600):
                prefix = rng.choice(pool)
                op = rng.random()
                if op < 0.5:
                    value = step
                    trie.insert(prefix, value)
                    oracle.insert(prefix, value)
                elif op < 0.8:
                    assert trie.remove(prefix) is oracle.remove(prefix)
                elif op < 0.9:
                    address = rng.choice(pool).network
                    assert trie.lookup(address) == oracle.lookup(
                        address
                    ), f"seed {seed} step {step}"
                else:
                    query = rng.choice(pool)
                    assert trie.covered(query) == oracle.covered(query)
            assert trie.items() == oracle.items()
            assert len(trie) == len(oracle.entries)

    def test_covered_after_full_drain(self):
        trie, oracle = LpmTrie(), Oracle()
        pool = [
            make_prefix(0xE0000000 | (i << 8), 24) for i in range(16)
        ]
        for value, prefix in enumerate(pool):
            trie.insert(prefix, value)
            oracle.insert(prefix, value)
        for prefix in pool:
            assert trie.remove(prefix)
            oracle.remove(prefix)
        assert len(trie) == 0
        assert trie.items() == []
        assert trie.covered(Prefix(0xE0000000, 4)) == []
        # The table survives a drain: it is still usable.
        trie.insert(pool[0], "again")
        assert trie.lookup(pool[0].network) == "again"
