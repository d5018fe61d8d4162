"""Per-operation budget: a membership operation touches its branch,
not the world.

``Topology.domains`` is indexed once per churn event, so it must be a
cached tuple, not a re-sort. A (\\*,G) teardown must find the group's
(S,G) entries through the table's per-group index, not by walking every
entry at the router, and must remove them in the order they were
created — the order the walk it replaced removed them in.
"""

import pytest

from repro.addressing.prefix import Prefix
from repro.bgmp.entries import ForwardingTable
from repro.bgmp.network import BgmpNetwork
from repro.topology.network import Topology

GROUP = 0xE0000001
#: Groups the member domain also joins: state at the same router that
#: a teardown of GROUP must not pay for.
UNRELATED = [GROUP + 1 + offset for offset in range(40)]


def test_domains_tuple_is_rebuilt_only_by_add_domain():
    topology = Topology()
    late = topology.add_domain("LATE", domain_id=5)
    first = topology.domains
    assert isinstance(first, tuple)
    assert topology.domains is first
    topology.connect_domains(late, topology.add_domain("X", domain_id=7))
    second = topology.domains
    assert second is not first
    assert topology.domains is second
    early = topology.add_domain("EARLY", domain_id=2)
    assert [d.name for d in topology.domains] == ["EARLY", "LATE", "X"]
    assert early in topology.domains
    assert [d.name for d in first] == ["LATE"]


def _world():
    """A root domain R originating 224/4, a member domain M behind it,
    and three source domains; M's exit router holds (\\*,G) for GROUP
    and every unrelated group, plus (S,G) entries for GROUP from all
    three sources and one unrelated (S,G). The first source's entry was
    removed and re-created, so creation order is S1, S2, S0."""
    topology = Topology()
    root = topology.add_domain("R")
    member = topology.add_domain("M")
    sources = [topology.add_domain(f"S{index}") for index in range(3)]
    topology.connect_domains(root, member)
    for source in sources:
        topology.connect_domains(root, source)
    network = BgmpNetwork(topology)
    network.originate_group_range(root, Prefix(224 << 24, 4))
    network.converge()
    host = member.host("h")
    for group in [GROUP] + UNRELATED:
        assert network.join(host, group)
    exit_router = network.router_of(member.router("M-to-R"))
    for source in sources:
        assert exit_router.join_source(GROUP, source, None)
    assert exit_router.join_source(UNRELATED[0], sources[0], None)
    assert exit_router.table.remove(GROUP, sources[0])
    assert exit_router.join_source(GROUP, sources[0], None)
    return network, host, exit_router, sources


@pytest.fixture
def removals(monkeypatch):
    """(table, group, source) for every ForwardingTable.remove call."""
    seen = []
    remove = ForwardingTable.remove

    def recorded(self, group, source_domain=None):
        seen.append((self, group, source_domain))
        return remove(self, group, source_domain)

    monkeypatch.setattr(ForwardingTable, "remove", recorded)
    return seen


def test_teardown_never_walks_the_forwarding_table(monkeypatch):
    network, host, exit_router, _sources = _world()
    assert len(exit_router.table) > len(UNRELATED)

    def walked(self):
        raise AssertionError("a leave walked the whole forwarding table")

    monkeypatch.setattr(ForwardingTable, "entries", walked)
    network.leave(host, GROUP)
    assert exit_router.table.get(GROUP) is None


def test_teardown_removes_the_groups_sources_in_creation_order(removals):
    network, host, exit_router, sources = _world()
    removals.clear()
    network.leave(host, GROUP)
    at_exit = [
        (group, source)
        for table, group, source in removals
        if table is exit_router.table
    ]
    s0, s1, s2 = sources
    assert at_exit == [
        (GROUP, None), (GROUP, s1), (GROUP, s2), (GROUP, s0),
    ]
    assert all(
        exit_router.table.get(GROUP, source) is None for source in sources
    )
    # The other groups' state stays, (S,G) included.
    assert exit_router.table.get(UNRELATED[0], s0) is not None
    assert all(
        exit_router.table.get(group) is not None for group in UNRELATED
    )
    assert len(exit_router.table) == len(UNRELATED) + 1
