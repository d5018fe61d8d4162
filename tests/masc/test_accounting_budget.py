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
from repro.masc.manager import (
    ClaimSource,
    DomainSpaceManager,
    RootClaimSource,
)

BLOCKS = 50


@pytest.fixture
def calls(monkeypatch):
    """Counts of ``PrefixTrie.allocations`` / ``insert`` calls from
    here on, by method name."""
    counts = {"allocations": 0, "insert": 0, "_free": 0}

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


class _AskedSource(ClaimSource):
    """A parent that records every :class:`ClaimSource` call made to
    it and forwards it to a real one."""

    def __init__(self, inner):
        self.asked = []
        self._inner = inner

    def __getattribute__(self, name):
        if name.startswith("_") or name == "asked":
            return object.__getattribute__(self, name)
        self.asked.append(name)
        return getattr(self._inner, name)


@pytest.mark.parametrize("draining", [False, True])
def test_maintain_with_nothing_due_asks_and_walks_nothing(calls, draining):
    """A day with no claim lease due, no drained space and nothing to
    shed: ``maintain`` is one pass over the spaces. With ``draining``
    the domain also holds an inactive space whose allocations sit in
    its upper half, so the drained-space check runs and finds nothing
    to release or halve."""
    parent, _child, _space = _family()
    source = _AskedSource(parent)
    child = DomainSpaceManager("C2", source, clock=lambda: 0.0)
    claim = Prefix.parse("224.0.64.0/22")
    assert parent.commit_claim(claim)
    space = child.pool.add(claim)
    child.claim_leases.add(claim, child.config.claim_lifetime)
    for _ in range(3):
        assert child.pool.allocate_block(24) is not None
    if draining:
        old = Prefix.parse("224.0.72.0/23")
        assert parent.commit_claim(old)
        child.pool.add(old, active=False)
        assert child.pool.allocate_exact(Prefix.parse("224.0.73.0/24"))
    for name in calls:
        calls[name] = 0
    source.asked.clear()
    child.maintain()
    assert source.asked == []
    assert calls == {"allocations": 0, "insert": 0, "_free": 0}
    assert len(child.pool) == 1 + draining
    assert space.prefix == claim
