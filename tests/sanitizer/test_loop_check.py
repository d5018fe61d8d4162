"""Property test: the sanitizer's loop-free check walks each chain once.

``check_loop_free_trees`` remembers the routers whose upstream walk
ended without a loop and stops a later walk that reaches one of them. That is only sound if it reports
exactly what walking every chain from scratch reports, so every
upstream map here — random, with and without cycles — is also judged
by the naive walk kept below.
"""

from types import SimpleNamespace

from hypothesis import given, strategies as st

from repro.sanitizer.core import check_loop_free_trees
from tests.sanitizer.test_sanitizer import FakeRouter

GROUPS = (0xE0008001, 0xE0008002)


class MapBgmp:
    """Upstream pointers per group, behind the surface the check reads:
    ``{group: {router: upstream router or None}}``; a router missing
    from a group's map holds no entry for it."""

    def __init__(self, maps):
        self._tables = {}
        for group, upstream_of in maps.items():
            for router, upstream in upstream_of.items():
                self._tables.setdefault(router, {})[group] = (
                    SimpleNamespace(upstream=upstream)
                )

    def tree_routers(self, group):
        return sorted(
            (r for r, table in self._tables.items() if group in table),
            key=lambda r: r.name,
        )

    def router_of(self, router):
        return SimpleNamespace(table=self._tables.get(router, {}))


def naive_loop_details(bgmp, groups):
    """The reference: walk the whole upstream chain from every on-tree
    router of every group, remembering nothing between walks."""
    details = []
    for group in groups:
        for start in bgmp.tree_routers(group):
            visited = {start}
            current = start
            while True:
                entry = bgmp.router_of(current).table.get(group)
                if entry is None or entry.upstream is None:
                    break
                current = entry.upstream
                if current in visited:
                    details.append(
                        f"upstream loop through {current.name} "
                        f"from {start.name} for group {group:#x}"
                    )
                    break
                visited.add(current)
    return details


#: Per router: its upstream's index, ``None`` for a tree root, or -1
#: for a router holding no entry for the group.
upstream_maps = st.integers(1, 12).flatmap(
    lambda size: st.lists(
        st.one_of(st.none(), st.integers(-1, size - 1)),
        min_size=size,
        max_size=size,
    )
)


@given(st.lists(upstream_maps, min_size=len(GROUPS), max_size=len(GROUPS)))
def test_loop_check_reports_what_a_naive_walk_reports(maps):
    routers = [FakeRouter(f"r{index:02d}") for index in range(12)]
    bgmp = MapBgmp(
        {
            group: {
                router: None if up is None else routers[up]
                for router, up in zip(routers, upstreams)
                if up != -1
            }
            for group, upstreams in zip(GROUPS, maps)
        }
    )
    details = [
        detail
        for group in GROUPS
        for detail in check_loop_free_trees(bgmp, group)
    ]
    assert details == naive_loop_details(bgmp, GROUPS)


def test_a_cycle_is_reported_from_every_router_that_reaches_it():
    a, b, c, d, e = (FakeRouter(name) for name in "abcde")
    # d -> e is loop free; a -> b -> c -> b loops.
    bgmp = MapBgmp({GROUPS[0]: {a: b, b: c, c: b, d: e, e: None}})
    details = check_loop_free_trees(bgmp, GROUPS[0])
    assert details == naive_loop_details(bgmp, GROUPS[:1])
    assert [detail.split(" from ")[1][0] for detail in details] == [
        "a", "b", "c",
    ]
