"""Property test: the quick check in front of ``shed_excess``.

``DomainSpaceManager.shed_excess`` starts with one pass,
``AddressPool.nothing_to_shed``, and returns at once when it says no
shedding rule can fire. That early return is only sound if the three
rules really have nothing to do, so every pool here is also judged by
a test-side reference of the rules that reads allocations by scan:

1. an idle active space is released when the other active spaces
   still meet the occupancy threshold;
2. a draining (inactive) space that still holds allocations halves
   while its upper half is empty;
3. with active occupancy under the low-water mark, an active space
   with an empty upper half halves when enough headroom remains.
"""

from hypothesis import example, given, settings, strategies as st

from repro.addressing.prefix import Prefix
from repro.masc.config import MascConfig
from repro.masc.manager import DomainSpaceManager, RootClaimSource
from repro.masc.spaces import AddressPool

#: What a space holds: nothing, one allocation in its lower or upper
#: half, one in each, or a single allocation covering all of it.
CONTENTS = ("idle", "lower", "upper", "both", "whole")


def _upper_half_empty(space):
    if space.prefix.length >= 32:
        return False
    _, high = space.prefix.children()
    return not any(high.overlaps(held) for held in space.allocations())


def reference_finds_work(pool, threshold, low_water):
    """Whether any of the three rules would release or halve a space
    of ``pool`` as it stands."""
    actives = [s for s in pool if s.active]
    live = sum(held.size for s in pool for held in s.allocations())
    active_total = sum(s.prefix.size for s in actives)
    for space in actives:
        others = active_total - space.prefix.size
        if (
            not space.allocations()
            and others > 0
            and live / others <= threshold
        ):
            return True
    for space in pool:
        if (
            not space.active
            and space.allocations()
            and _upper_half_empty(space)
        ):
            return True
    if live == 0 or active_total == 0 or live / active_total >= low_water:
        return False
    return any(
        _upper_half_empty(space)
        and active_total - space.prefix.size // 2 >= live / threshold
        for space in actives
    )


def build_pool(layout):
    """One space per ``(length, active, contents, depth)``: the i-th
    at 224.0.(4 i).0 (a /22 to /24, so they never overlap), holding
    /(length + depth) allocations as ``contents`` says."""
    pool = AddressPool()
    for index, (length, active, contents, depth) in enumerate(layout):
        prefix = Prefix.parse(f"224.0.{4 * index}.0/{length}")
        space = pool.add(prefix, active)
        low, high = space.prefix.children()
        if contents == "whole":
            assert space.allocate_exact(space.prefix)
        if contents in ("lower", "both"):
            assert space.allocate_exact(low.first_subprefix(length + depth))
        if contents in ("upper", "both"):
            assert space.allocate_exact(high.first_subprefix(length + depth))
    return pool


layouts = st.lists(
    st.tuples(
        st.integers(22, 24),
        st.booleans(),
        st.sampled_from(CONTENTS),
        st.integers(1, 3),
    ),
    min_size=1,
    max_size=4,
)
fractions = st.floats(0.05, 1.0)


@settings(max_examples=300, deadline=None)
@given(layouts, fractions, fractions)
# A draining space with allocations in its lower half only, beside a
# full active space: rule 2 halves it.
@example([(24, True, "whole", 1), (23, False, "lower", 2)], 0.75, 0.5)
# An idle active space beside one that meets the threshold: rule 1.
@example([(24, True, "whole", 1), (24, True, "idle", 1)], 0.75, 0.5)
# Active occupancy under the low-water mark, upper half clear: rule 3.
@example([(22, True, "lower", 3)], 0.75, 0.5)
def test_quick_check_returns_early_only_when_no_rule_fires(
    layout, threshold, low_water
):
    pool = build_pool(layout)
    if not pool.nothing_to_shed(low_water):
        return
    assert not reference_finds_work(pool, threshold, low_water)
    # And the manager's shed pass then changes nothing.
    config = MascConfig(
        occupancy_threshold=threshold, shrink_low_water=low_water
    )
    manager = DomainSpaceManager("X", RootClaimSource(), config=config)
    manager.pool = pool
    before = [(s.prefix, s.active, s.allocations()) for s in pool]
    assert manager.shed_excess() == 0
    assert [(s.prefix, s.active, s.allocations()) for s in pool] == before
