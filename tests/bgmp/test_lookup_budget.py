"""G-RIB lookup budget: how many times BGMP asks, counted not timed.

``LocRib.lookup`` is wrapped by a counter, so a decision that starts
looking its route up twice again fails here, in tier-1, instead of
waiting for the benchmark's ``bgp.lookup_calls`` to drift. The pinned
totals are functions of the seeds below alone.
"""

import random

import pytest

from repro.addressing.prefix import Prefix
from repro.bgmp.network import BgmpNetwork
from repro.bgp.rib import LocRib
from repro.bgp.routes import RouteType
from repro.experiments.churn import group_prefix
from repro.topology.generators import as_graph

GROUP_DOMAINS = 6


@pytest.fixture
def group_lookups(monkeypatch):
    """A one-element list counting GROUP lookups from here on."""
    count = [0]
    lookup = LocRib.lookup

    def counted(self, route_type, address):
        if route_type is RouteType.GROUP:
            count[0] += 1
        return lookup(self, route_type, address)

    monkeypatch.setattr(LocRib, "lookup", counted)
    return count


def _world():
    """40 domains, 224/4 at domain 0, a /20 at each of six others, two
    groups under each /20 with three member domains each; repaired."""
    topology = as_graph(random.Random(1998), node_count=40)
    network = BgmpNetwork(topology, auto_unicast=False)
    network.originate_group_range(topology.domains[0], Prefix(224 << 24, 4))
    for domain in topology.domains[1 : 1 + GROUP_DOMAINS]:
        network.originate_group_range(domain, group_prefix(domain.domain_id))
    network.converge()
    rng = random.Random(0)
    groups = [
        group_prefix(index).network + offset
        for index in range(1, 1 + GROUP_DOMAINS)
        for offset in (1, 2)
    ]
    for group in groups:
        for domain in rng.sample(topology.domains, 3):
            network.join(domain.host("m"), group)
    network.repair_trees()
    return topology, network, groups


def test_update_parent_asks_once(group_lookups):
    _topology, network, groups = _world()
    visited = 0
    for bgmp in network.bgmp_routers():
        for group in groups:
            if bgmp.table.get(group) is None:
                continue
            before = group_lookups[0]
            assert not bgmp.update_parent(group)
            assert group_lookups[0] - before == 1
            visited += 1
    assert visited > 2 * len(groups)


def test_crash_repair_cycle_lookup_total_is_pinned(group_lookups):
    topology, network, groups = _world()
    on_tree = {
        router.domain
        for group in groups
        for router in network.tree_routers(group)
    }
    victim = next(
        domain
        for domain in topology.domains[1 + GROUP_DOMAINS :]
        if domain.customers and domain in on_tree
    ).router()
    before = group_lookups[0]
    network.handle_router_crash(victim)
    network.converge()
    crash = network.repair_trees()
    network.handle_router_restart(victim)
    network.converge()
    restart = network.repair_trees()
    assert sum(crash.values()) + sum(restart.values()) > 0
    assert group_lookups[0] - before == 37
