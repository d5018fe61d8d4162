"""Path exploration on withdrawal, the yardstick of the synchronous
schedule.

When a root domain withdraws its group range, a router that loses its
best route falls back on an alternative learned from a neighbour whose
own route has already gone — the alternative is superseded before it
could be used. Advertising it would make every router downstream
install it, advertise it on, and withdraw it again a round later. The
synchronous engine withholds a best route whose next-hop chain is
already superseded, so a withdrawal half changes each Loc-RIB about
once, and costs no more UPDATEs than the re-origination that follows.

The world is the benchmark's W300: the ``as_graph`` of 300 domains
(topology seed 1998), the covering 224/4 at domain 0 and one /20 per
group domain 1-24; the /20s of domains 1-4 are flapped in turn.
"""

import random

import pytest

from repro.addressing.prefix import Prefix
from repro.bgp.network import BgpNetwork
from repro.bgp.routes import RouteType
from repro.topology.generators import as_graph

FLAPPED = range(1, 5)


def _group_prefix(index):
    return Prefix((224 << 24) | (index << 12), 20)


class DeltaCounter:
    """A G-RIB subscriber that counts Loc-RIB changes of group keys."""

    def __init__(self):
        self.changes = 0

    def grib_deltas(self, deltas):
        self.changes += len(deltas)

    def grib_reset(self):
        raise AssertionError("the delta stream lost continuity")


@pytest.fixture(scope="module")
def halves():
    """Per flapped domain, its withdrawal and re-origination halves as
    (Loc-RIB changes, routers whose entry differs after the half,
    UPDATEs sent)."""
    topology = as_graph(random.Random(1998), node_count=300)
    network = BgpNetwork(topology)
    network.originate_from_domain(topology.domains[0], Prefix(224 << 24, 4))
    for index in range(1, 25):
        network.originate_from_domain(
            topology.domains[index], _group_prefix(index)
        )
    network.converge()
    counter = DeltaCounter()
    network.subscribe_grib(counter)

    def half(mutate, *args):
        before = {
            router: speaker.loc_rib.get(RouteType.GROUP, prefix)
            for router, speaker in network.speakers.items()
        }
        counter.changes, sent = 0, network.updates_sent
        mutate(*args)
        network.converge()
        net = sum(
            speaker.loc_rib.get(RouteType.GROUP, prefix) != before[router]
            for router, speaker in network.speakers.items()
        )
        return counter.changes, net, network.updates_sent - sent

    found = {}
    for index in FLAPPED:
        domain, prefix = topology.domains[index], _group_prefix(index)
        down = half(network.withdraw, domain.router(), prefix)
        up = half(network.originate_from_domain, domain, prefix)
        found[index] = down, up
    return found


@pytest.mark.parametrize("index", FLAPPED)
def test_a_withdrawal_changes_each_loc_rib_about_once(halves, index):
    (changes, net, _updates), _up = halves[index]
    assert net > 700  # the /20 leaves nearly every router
    assert changes <= 1.2 * net, (changes, net)


@pytest.mark.parametrize("index", FLAPPED)
def test_a_withdrawal_costs_no_more_updates_than_the_return(halves, index):
    (_changes, _net, down), (_up_changes, _up_net, up) = halves[index]
    assert down <= up, (down, up)
