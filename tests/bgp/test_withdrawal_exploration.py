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
from repro.topology.network import Topology

from tests.bgp._gao_rexford import mismatches

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


def test_a_withheld_route_is_announced_once_its_chain_settles():
    """A route withheld because its next-hop chain was superseded stays
    pending for export. The chain may settle on a route with the same
    AS path from another next hop; then the speaker receives nothing,
    and only the pending key makes it announce the route it withheld.

    Domain ids in brackets; each arrow points from provider to
    customer: N[1] -> O[2], U[3] -> N, N -> S[4], U -> S, N -> T[0],
    S -> C[5]. O originates at o1. N's n1 and n2 both peer with o1; n3
    is interior. U's e1 and e2 reach n1 and n2, and U's u serves S. S
    also reaches n1, and T reaches only n1. Crashing n1 makes T lose the
    route (the key counts as lost) and moves n3 and e1 (so N and U
    moved it). S falls back on its route via u. In the same round, e1
    withdraws from u before S's turn, so S withholds the route and
    withdraws it from C. Then u picks e2's route, which has the same AS
    path, and sends S nothing. S announces to C only because the key
    is still pending.
    """
    topology = Topology()
    t, n, o, u, s, c = (
        topology.add_domain(name) for name in ("T", "N", "O", "U", "S", "C")
    )
    for provider, customer in ((n, o), (u, n), (n, s), (u, s), (n, t),
                               (s, c)):
        provider.add_customer(customer)
    n1, n2 = n.router("n1"), n.router("n2")
    n.router("n3")
    for a, b in (
        (n1, o.router("o1")), (n2, o.router("o1")),
        (u.router("e1"), n1), (u.router("e2"), n2),
        (u.router("u"), s.router("s")), (s.router("s"), n1),
        (t.router("t1"), n1), (c.router("c1"), s.router("s")),
    ):
        topology.connect(a, b)
    network = BgpNetwork(topology)
    prefix = Prefix.parse("226.1.0.0/20")
    network.originate_from_domain(o, prefix)
    network.converge()
    sent = network.updates_sent
    network.fail_router(n1)
    rounds = network.converge()
    route = network.speaker(c.router("c1")).loc_rib.get(
        RouteType.GROUP, prefix
    )
    assert route is not None and route.as_path == (4, 3, 1, 2)
    assert mismatches(network, (RouteType.GROUP, prefix)) == []
    assert (rounds, network.updates_sent - sent) == (3, 4)
