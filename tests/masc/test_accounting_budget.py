"""MASC accounting budget: what the bookkeeping walks, counted not timed.

How many addresses a space holds changes only when something is
allocated or released, so asking for it must not walk the allocation
trie; and doubling or halving a claimed space re-roots its trie, so it
must not re-insert what the space holds. ``PrefixTrie.allocations``
and ``PrefixTrie.insert`` are wrapped by counters: a regression fails
here, in tier-1, instead of waiting for the benchmark's
``masc_claims`` to drift.
"""

import pytest

from repro.addressing.prefix import Prefix
from repro.addressing.trie import PrefixTrie
from repro.masc.manager import DomainSpaceManager, RootClaimSource

BLOCKS = 50


@pytest.fixture
def calls(monkeypatch):
    """Counts of ``PrefixTrie.allocations`` / ``insert`` calls from
    here on, by method name."""
    counts = {"allocations": 0, "insert": 0}

    def counted(name):
        method = getattr(PrefixTrie, name)

        def wrapper(self, *args):
            counts[name] += 1
            return method(self, *args)

        return wrapper

    for name in counts:
        monkeypatch.setattr(PrefixTrie, name, counted(name))
    return counts


def _family():
    """A parent holding 224.0.0.0/16 and its child holding the /18
    claimed out of it, with 50 of the /18's 64 /24 blocks allocated
    in the child's space."""
    parent = DomainSpaceManager("P", RootClaimSource())
    parent.pool.add(Prefix.parse("224.0.0.0/16"))
    child = DomainSpaceManager("C", parent)
    claim = Prefix.parse("224.0.0.0/18")
    assert parent.commit_claim(claim)
    space = child.pool.add(claim)
    for _ in range(BLOCKS):
        assert child.pool.allocate_block(24) is not None
    return parent, child, space


def test_address_counts_do_not_walk_the_trie(calls):
    parent, child, space = _family()
    inactive = child.pool.add(Prefix.parse("224.0.64.0/24"), active=False)
    calls["allocations"] = 0
    assert space.used == BLOCKS * 256
    assert not space.is_empty
    assert child.pool.live_addresses() == BLOCKS * 256
    assert child.pool.drained_inactive() == [inactive]
    assert calls["allocations"] == 0


def test_shrink_claim_does_not_walk_the_trie(calls):
    parent, child, space = _family()
    calls["allocations"] = 0
    assert not parent.shrink_claim(Prefix.parse("224.0.0.0/19"))
    assert parent.shrink_claim(space.prefix)
    assert calls["allocations"] == 0
    assert parent.pool.spaces[0].allocations() == [
        Prefix.parse("224.0.0.0/19")
    ]


def test_doubling_and_halving_do_not_reinsert(calls):
    parent, child, space = _family()
    held = space.allocations()
    assert len(held) == BLOCKS
    calls["insert"] = 0
    grown = child.pool.grow_space(space)
    assert grown.prefix == Prefix.parse("224.0.0.0/17")
    assert grown.allocations() == held
    shrunk = child.pool.halve_space(grown)
    assert shrunk.prefix == Prefix.parse("224.0.0.0/18")
    assert shrunk.allocations() == held
    assert calls["insert"] == 0
    assert shrunk.used == BLOCKS * 256
