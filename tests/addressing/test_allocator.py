"""Tests for claim-space allocation: block sizing, the section 4.3.3
selection step (:func:`repro.masc.spaces.select_claim`), claims out of
the root space, and in-place doubling of an interior allocation."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.addressing.prefix import MULTICAST_SPACE, Prefix, mask_length_for
from repro.masc.config import MascConfig
from repro.masc.manager import RootClaimSource
from repro.masc.spaces import ClaimedSpace, select_claim

PAPER_TAKEN = (Prefix.parse("224.0.1.0/24"), Prefix.parse("239.0.0.0/8"))
PAPER_CHOICES = {Prefix.parse("228.0.0.0/22"), Prefix.parse("232.0.0.0/22")}


def paper_space():
    """224/4 with the paper's example claims, 224.0.1/24 and 239/8,
    taken."""
    space = ClaimedSpace(MULTICAST_SPACE)
    for prefix in PAPER_TAKEN:
        assert space.allocate_exact(prefix)
    return space


def claim(root, length, rng):
    """Select and commit a /``length`` on ``root`` (None when full)."""
    prefix = root.select_claim(length, rng, "random")
    if prefix is not None:
        assert root.commit_claim(prefix)
    return prefix


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
        space = paper_space()
        rng = random.Random(1)
        for _ in range(20):
            choice = select_claim([space], 22, rng, "random")
            assert choice in PAPER_CHOICES

    def test_first_policy_is_deterministic(self):
        choice = select_claim([paper_space()], 22, None, "first")
        assert choice == Prefix.parse("228.0.0.0/22")

    def test_random_policy_uses_both_blocks(self):
        space = paper_space()
        rng = random.Random(7)
        seen = {select_claim([space], 22, rng, "random") for _ in range(40)}
        assert seen == PAPER_CHOICES

    def test_select_does_not_allocate(self):
        space = ClaimedSpace(MULTICAST_SPACE)
        select_claim([space], 22, random.Random(0), "random")
        assert space.allocations() == []

    def test_exhausted_returns_none(self):
        space = ClaimedSpace(Prefix.parse("224.0.0.0/24"))
        assert space.allocate_exact(Prefix.parse("224.0.0.0/24"))
        assert select_claim([space], 26, random.Random(0), "random") is None

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            MascConfig(claim_policy="bogus")


class TestClaimRelease:
    def test_claim_allocates(self):
        root = RootClaimSource()
        prefix = claim(root, 24, random.Random(3))
        assert prefix in root.allocated()
        assert root.allocated_total() == 256

    def test_release(self):
        root = RootClaimSource()
        prefix = claim(root, 24, random.Random(3))
        root.release_claim(prefix)
        assert root.allocated() == []

    def test_claims_never_overlap(self):
        root = RootClaimSource()
        rng = random.Random(5)
        claimed = [claim(root, 20, rng) for _ in range(32)]
        for i, a in enumerate(claimed):
            for b in claimed[i + 1:]:
                assert not a.overlaps(b)

    def test_utilization(self):
        space = ClaimedSpace(Prefix.parse("224.0.0.0/24"))
        space.allocate_exact(Prefix.parse("224.0.0.0/25"))
        assert space.utilization() == pytest.approx(0.5)


class TestDoubling:
    def test_double_when_buddy_free(self):
        root = RootClaimSource()
        prefix = Prefix.parse("224.0.0.0/24")
        assert root.commit_claim(prefix)
        assert root.can_grow_claim(prefix)
        assert root.grow_claim(prefix)
        assert root.allocated() == [Prefix.parse("224.0.0.0/23")]

    def test_double_blocked_by_buddy(self):
        root = RootClaimSource()
        prefix = Prefix.parse("224.0.0.0/24")
        assert root.commit_claim(prefix)
        assert root.commit_claim(prefix.buddy())
        assert not root.can_grow_claim(prefix)
        assert not root.grow_claim(prefix)
        assert root.allocated() == [prefix, prefix.buddy()]

    def test_double_unallocated_fails(self):
        root = RootClaimSource()
        prefix = Prefix.parse("224.0.0.0/24")
        assert not root.can_grow_claim(prefix)
        assert not root.grow_claim(prefix)
        assert root.allocated() == []

    def test_cannot_double_past_space(self):
        space = Prefix.parse("224.0.0.0/24")
        root = RootClaimSource(space)
        assert root.commit_claim(space)
        assert not root.can_grow_claim(space)
        assert not root.grow_claim(space)
        assert root.allocated() == [space]

    def test_repeated_doubling(self):
        space = ClaimedSpace(Prefix.parse("224.0.0.0/16"))
        prefix = Prefix.parse("224.0.0.0/24")
        assert space.allocate_exact(prefix)
        for expected_length in (23, 22, 21):
            assert space.double_allocation(prefix)
            prefix = prefix.parent()
            assert space.allocations() == [prefix]
            assert prefix.length == expected_length

    def test_halve_frees_the_upper_half(self):
        root = RootClaimSource()
        prefix = Prefix.parse("224.0.0.0/23")
        assert root.commit_claim(prefix)
        assert root.shrink_claim(prefix)
        assert root.allocated() == [Prefix.parse("224.0.0.0/24")]
        assert not root.shrink_claim(prefix)
        assert root.commit_claim(Prefix.parse("224.0.1.0/24"))


class TestAllocatorProperties:
    @settings(max_examples=40)
    @given(st.integers(min_value=0, max_value=2 ** 32 - 1),
           st.lists(st.integers(min_value=8, max_value=24), max_size=30))
    def test_random_claims_stay_disjoint_and_counted(self, seed, lengths):
        root = RootClaimSource()
        rng = random.Random(seed)
        total = 0
        claimed = []
        for length in lengths:
            prefix = claim(root, length, rng)
            if prefix is None:
                continue
            claimed.append(prefix)
            total += prefix.size
        assert root.allocated_total() == total
        for i, a in enumerate(claimed):
            for b in claimed[i + 1:]:
                assert not a.overlaps(b)
