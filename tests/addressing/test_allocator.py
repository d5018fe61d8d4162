"""Tests for the claim-space allocator."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.addressing.allocator import (
    AllocationError,
    PrefixAllocator,
    mask_length_for,
)
from repro.addressing.prefix import MULTICAST_SPACE, Prefix


class TestMaskLengthFor:
    def test_single_address(self):
        assert mask_length_for(1) == 32

    def test_256_block(self):
        assert mask_length_for(256) == 24

    def test_paper_1024_example(self):
        # Section 4.3.3: "If a domain requires 1024 addresses this
        # requires a mask length of 22".
        assert mask_length_for(1024) == 22

    def test_rounds_up(self):
        assert mask_length_for(257) == 23
        assert mask_length_for(1025) == 21

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            mask_length_for(0)

    def test_rejects_oversized(self):
        with pytest.raises(ValueError):
            mask_length_for(1 << 33)


class TestSelect:
    def test_paper_example_candidates(self):
        # With 224.0.1/24 and 239/8 taken, a /22 claim comes from 228/6
        # or 232/6 and is the first /22 of the chosen block.
        allocator = PrefixAllocator(MULTICAST_SPACE, rng=random.Random(1))
        allocator.claim_exact(Prefix.parse("224.0.1.0/24"))
        allocator.claim_exact(Prefix.parse("239.0.0.0/8"))
        for _ in range(20):
            choice = allocator.select(22)
            assert choice in (
                Prefix.parse("228.0.0.0/22"),
                Prefix.parse("232.0.0.0/22"),
            )

    def test_first_policy_is_deterministic(self):
        allocator = PrefixAllocator(
            MULTICAST_SPACE, policy=PrefixAllocator.FIRST
        )
        allocator.claim_exact(Prefix.parse("224.0.1.0/24"))
        allocator.claim_exact(Prefix.parse("239.0.0.0/8"))
        assert allocator.select(22) == Prefix.parse("228.0.0.0/22")

    def test_random_policy_uses_both_blocks(self):
        allocator = PrefixAllocator(MULTICAST_SPACE, rng=random.Random(7))
        allocator.claim_exact(Prefix.parse("224.0.1.0/24"))
        allocator.claim_exact(Prefix.parse("239.0.0.0/8"))
        seen = {allocator.select(22) for _ in range(40)}
        assert seen == {
            Prefix.parse("228.0.0.0/22"),
            Prefix.parse("232.0.0.0/22"),
        }

    def test_select_does_not_allocate(self):
        allocator = PrefixAllocator(MULTICAST_SPACE)
        allocator.select(22)
        assert allocator.allocations() == []

    def test_exhausted_raises(self):
        allocator = PrefixAllocator(Prefix.parse("224.0.0.0/24"))
        allocator.claim_exact(Prefix.parse("224.0.0.0/24"))
        with pytest.raises(AllocationError):
            allocator.select(26)

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            PrefixAllocator(MULTICAST_SPACE, policy="bogus")


class TestClaimRelease:
    def test_claim_allocates(self):
        allocator = PrefixAllocator(MULTICAST_SPACE, rng=random.Random(3))
        prefix = allocator.claim(24)
        assert prefix in allocator.allocations()
        assert allocator.utilized() == 256

    def test_release(self):
        allocator = PrefixAllocator(MULTICAST_SPACE, rng=random.Random(3))
        prefix = allocator.claim(24)
        allocator.release(prefix)
        assert allocator.allocations() == []

    def test_claims_never_overlap(self):
        allocator = PrefixAllocator(MULTICAST_SPACE, rng=random.Random(5))
        claimed = [allocator.claim(20) for _ in range(32)]
        for i, a in enumerate(claimed):
            for b in claimed[i + 1:]:
                assert not a.overlaps(b)

    def test_utilization(self):
        allocator = PrefixAllocator(Prefix.parse("224.0.0.0/24"))
        allocator.claim_exact(Prefix.parse("224.0.0.0/25"))
        assert allocator.utilization() == pytest.approx(0.5)


class TestDoubling:
    def test_double_when_buddy_free(self):
        allocator = PrefixAllocator(MULTICAST_SPACE)
        prefix = Prefix.parse("224.0.0.0/24")
        allocator.claim_exact(prefix)
        assert allocator.can_double(prefix)
        grown = allocator.double(prefix)
        assert grown == Prefix.parse("224.0.0.0/23")
        assert allocator.allocations() == [grown]

    def test_double_blocked_by_buddy(self):
        allocator = PrefixAllocator(MULTICAST_SPACE)
        prefix = Prefix.parse("224.0.0.0/24")
        allocator.claim_exact(prefix)
        allocator.claim_exact(prefix.buddy())
        assert not allocator.can_double(prefix)
        with pytest.raises(AllocationError):
            allocator.double(prefix)

    def test_double_unallocated_fails(self):
        allocator = PrefixAllocator(MULTICAST_SPACE)
        assert not allocator.can_double(Prefix.parse("224.0.0.0/24"))

    def test_cannot_double_past_space(self):
        space = Prefix.parse("224.0.0.0/24")
        allocator = PrefixAllocator(space)
        allocator.claim_exact(space)
        assert not allocator.can_double(space)

    def test_repeated_doubling(self):
        allocator = PrefixAllocator(Prefix.parse("224.0.0.0/16"))
        prefix = allocator.claim(24)
        for expected_length in (23, 22, 21):
            prefix = allocator.double(prefix)
            assert prefix.length == expected_length


class TestAllocatorProperties:
    @settings(max_examples=40)
    @given(st.integers(min_value=0, max_value=2 ** 32 - 1),
           st.lists(st.integers(min_value=8, max_value=24), max_size=30))
    def test_random_claims_stay_disjoint_and_counted(self, seed, lengths):
        allocator = PrefixAllocator(MULTICAST_SPACE, rng=random.Random(seed))
        total = 0
        claimed = []
        for length in lengths:
            try:
                prefix = allocator.claim(length)
            except AllocationError:
                continue
            claimed.append(prefix)
            total += prefix.size
        assert allocator.utilized() == total
        for i, a in enumerate(claimed):
            for b in claimed[i + 1:]:
                assert not a.overlaps(b)
