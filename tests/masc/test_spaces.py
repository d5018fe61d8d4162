"""Tests for claimed spaces and address pools."""

import random

import pytest

from repro.addressing.prefix import Prefix
from repro.masc.spaces import AddressPool, ClaimedSpace, select_claim


P16 = Prefix.parse("224.1.0.0/16")
P24A = Prefix.parse("224.1.0.0/24")
P24B = Prefix.parse("224.1.1.0/24")


class TestClaimedSpace:
    def test_empty_space(self):
        space = ClaimedSpace(P16)
        assert space.size == 65536
        assert space.used == 0
        assert space.is_empty
        assert space.utilization() == 0.0

    def test_allocate_exact(self):
        space = ClaimedSpace(P16)
        assert space.allocate_exact(P24A)
        assert space.used == 256
        assert not space.is_empty

    def test_allocate_exact_rejects_outside(self):
        space = ClaimedSpace(P16)
        assert not space.allocate_exact(Prefix.parse("225.0.0.0/24"))

    def test_allocate_exact_rejects_overlap(self):
        space = ClaimedSpace(P16)
        assert space.allocate_exact(P24A)
        assert not space.allocate_exact(P24A)
        assert not space.allocate_exact(Prefix.parse("224.1.0.0/25"))

    def test_lowest_fit(self):
        space = ClaimedSpace(P16)
        space.allocate_exact(P24A)
        assert space.lowest_fit(24) == P24B

    def test_allocate_first_fit_packs_low(self):
        pool = AddressPool()
        pool.add(P16)
        first = pool.allocate_block(24)
        second = pool.allocate_block(24)
        assert first == P24A
        assert second == P24B

    def test_first_fit_reuses_gap(self):
        pool = AddressPool()
        pool.add(P16)
        a = pool.allocate_block(24)
        pool.allocate_block(24)
        pool.free(a)
        assert pool.allocate_block(24) == a

    def test_can_fit(self):
        space = ClaimedSpace(Prefix.parse("224.1.0.0/24"))
        assert select_claim([space], 24, None, "first") is not None
        space.allocate_exact(Prefix.parse("224.1.0.0/25"))
        assert select_claim([space], 24, None, "first") is None
        assert select_claim([space], 25, None, "first") == Prefix.parse(
            "224.1.0.128/25"
        )

    def test_full_space_has_no_fit(self):
        space = ClaimedSpace(Prefix.parse("224.1.0.0/24"))
        space.allocate_exact(Prefix.parse("224.1.0.0/24"))
        assert space.lowest_fit(32) is None

    def test_construction_builds_no_random_stream(self, monkeypatch):
        # A run claims thousands of spaces and none of them ever draws.
        def refuse(*args, **kwargs):
            raise AssertionError("ClaimedSpace built a random.Random")

        monkeypatch.setattr(random, "Random", refuse)
        pool = AddressPool()
        pool.add(P16)
        assert pool.allocate_block(24) == P24A


class TestAddressPool:
    def test_add_and_totals(self):
        pool = AddressPool()
        pool.add(P16)
        pool.add(Prefix.parse("226.0.0.0/24"))
        assert pool.total_size() == 65536 + 256
        assert len(pool) == 2
        assert pool.prefixes() == [P16, Prefix.parse("226.0.0.0/24")]

    def test_add_rejects_overlap(self):
        pool = AddressPool()
        pool.add(P16)
        with pytest.raises(ValueError):
            pool.add(P24A)

    def test_remove(self):
        pool = AddressPool()
        pool.add(P16)
        pool.remove(P16)
        assert len(pool) == 0
        with pytest.raises(KeyError):
            pool.remove(P16)

    def test_live_and_utilization(self):
        pool = AddressPool()
        pool.add(Prefix.parse("224.1.0.0/23"))
        pool.allocate_exact(P24A)
        assert pool.live_addresses() == 256
        assert pool.utilization() == pytest.approx(0.5)

    def test_utilization_empty_pool(self):
        assert AddressPool().utilization() == 0.0

    def test_allocate_block_prefers_lowest(self):
        pool = AddressPool()
        pool.add(Prefix.parse("226.0.0.0/24"))
        pool.add(P16)
        block = pool.allocate_block(24)
        assert block == P24A  # lowest address across spaces

    def test_allocate_block_skips_inactive(self):
        pool = AddressPool()
        space = pool.add(P16, active=False)
        assert pool.allocate_block(24) is None
        space.active = True
        assert pool.allocate_block(24) is not None

    def test_select_claim_shortest_mask_rule(self):
        pool = AddressPool()
        pool.add(Prefix.parse("224.0.0.0/16"))
        pool.add(Prefix.parse("226.0.0.0/18"))
        pool.allocate_exact(Prefix.parse("224.0.0.0/17"))
        # Largest free block over both spaces is 224.0.128.0/17 (the
        # /18 loses); first /24 inside it.
        choice = select_claim(pool.active_spaces(), 24, None, "first")
        assert choice == Prefix.parse("224.0.128.0/24")

    def test_select_claim_random_spans_spaces(self):
        pool = AddressPool()
        pool.add(Prefix.parse("224.0.0.0/24"))
        pool.add(Prefix.parse("226.0.0.0/24"))
        rng = random.Random(1)
        seen = {
            select_claim(pool.active_spaces(), 26, rng, "random")
            for _ in range(50)
        }
        assert seen == {
            Prefix.parse("224.0.0.0/26"),
            Prefix.parse("226.0.0.0/26"),
        }

    def test_select_claim_none_when_full(self):
        pool = AddressPool()
        pool.add(Prefix.parse("224.0.0.0/24"))
        pool.allocate_exact(Prefix.parse("224.0.0.0/24"))
        rng = random.Random(0)
        assert select_claim(pool.active_spaces(), 24, rng, "random") is None

    def test_grow_space_preserves_allocations(self):
        pool = AddressPool()
        space = pool.add(P24A)
        block = Prefix.parse("224.1.0.0/26")
        space.allocate_exact(block)
        grown = pool.grow_space(space)
        assert grown.prefix == Prefix.parse("224.1.0.0/23")
        assert block in grown.allocations()
        assert pool.total_size() == 512

    def test_grow_then_halve_round_trip(self):
        pool = AddressPool()
        space = pool.add(P24B)
        blocks = [
            Prefix.parse("224.1.1.0/26"), Prefix.parse("224.1.1.128/25")
        ]
        for block in blocks:
            assert space.allocate_exact(block)
        # 224.1.1.0/24 is the upper half of the /23 it grows into, so
        # halving is refused until its contents have gone.
        grown = pool.grow_space(space)
        assert grown.prefix == Prefix.parse("224.1.0.0/23")
        assert pool.prefixes() == [grown.prefix]
        assert pool.space_of(P24A) is grown
        assert grown.allocations() == blocks
        assert grown.used == 64 + 128
        assert grown.lowest_fit(24) == P24A
        with pytest.raises(ValueError):
            pool.halve_space(grown)
        for block in blocks:
            grown.free(block)
        low = Prefix.parse("224.1.0.0/26")
        assert grown.allocate_exact(low)
        shrunk = pool.halve_space(grown)
        assert shrunk.prefix == P24A
        assert pool.prefixes() == [P24A]
        assert pool.space_of(low) is shrunk
        assert pool.space_of(P24B) is None
        assert shrunk.allocations() == [low]
        assert (shrunk.size, shrunk.used) == (256, 64)

    def test_halve_refused_while_upper_half_holds_anything(self):
        pool = AddressPool()
        space = pool.add(P16, active=False)
        high = Prefix.parse("224.1.255.255/32")
        space.allocate_exact(P24A)
        space.allocate_exact(high)
        assert not space.upper_half_empty()
        with pytest.raises(ValueError, match="upper half of 224.1.0.0/16"):
            pool.halve_space(space)
        assert pool.prefixes() == [P16]
        assert pool.space_of(high).allocations() == [P24A, high]
        space.free(high)
        assert space.upper_half_empty()
        shrunk = pool.halve_space(space)
        assert shrunk.prefix == Prefix.parse("224.1.0.0/17")
        assert not shrunk.active
        assert pool.space_of(high) is None
        assert pool.space_of(P24A).allocations() == [P24A]

    def test_halve_refused_for_a_space_allocated_whole(self):
        pool = AddressPool()
        space = pool.add(P24A)
        space.allocate_exact(P24A)
        with pytest.raises(ValueError):
            pool.halve_space(space)
        assert pool.space_of(P24A).allocations() == [P24A]

    def test_space_of(self):
        pool = AddressPool()
        pool.add(P16)
        assert pool.space_of(P24A).prefix == P16
        assert pool.space_of(Prefix.parse("230.0.0.0/24")) is None

    def test_free_unknown_raises(self):
        with pytest.raises(KeyError):
            AddressPool().free(P24A)

    def test_drained_inactive(self):
        pool = AddressPool()
        space = pool.add(P24A, active=False)
        assert pool.drained_inactive() == [space]
        space.allocate_exact(Prefix.parse("224.1.0.0/26"))
        assert pool.drained_inactive() == []
