"""What one flapped prefix may cost: BGP reconverges per (network,
length, type) key, so withdrawing and re-originating a single /20
builds routes for that prefix only, leaves every other RIB entry
untouched — the very same object — and keeps each Loc-RIB's in-place
lookup index exact."""

import random

import pytest

from repro.addressing.prefix import Prefix
from repro.bgp.network import BgpNetwork
from repro.bgp.routes import Route, RouteType
from repro.topology.generators import as_graph
from tests.bgp._views import received

COVERING = Prefix(224 << 24, 4)
ORIGINS = {
    index: Prefix((224 << 24) | (index << 12), 20) for index in range(1, 7)
}
FLAPPED_DOMAIN = 2
FLAPPED = ORIGINS[FLAPPED_DOMAIN]
#: One address inside every originated range, one under the covering
#: /4 only, and one no route covers.
PROBES = [prefix.network + 5 for prefix in ORIGINS.values()] + [
    (239 << 24) + 1,
    (10 << 24) + 1,
]


def _held_routes(network):
    """Every Loc-RIB and Adj-RIB-In entry, by where it is held."""
    held = {}
    for router, speaker in network.speakers.items():
        held[router, None] = speaker.loc_rib.snapshot()
        for peer in speaker.peers():
            held[router, peer] = received(speaker, peer)
    return {holder: table for holder, table in held.items() if table}


def _stale_lookups(network):
    """(router, address) pairs whose indexed longest-match lookup
    disagrees with a scan of the table for the longest covering key."""
    stale = []
    for router, speaker in network.speakers.items():
        table = speaker.loc_rib.snapshot()
        for address in PROBES:
            covering = [
                route
                for route in table.values()
                if route.route_type is RouteType.GROUP
                and route.prefix.contains_address(address)
            ]
            expected = (
                max(covering, key=lambda route: route.prefix.length)
                if covering
                else None
            )
            found = speaker.loc_rib.lookup(RouteType.GROUP, address)
            if found is not expected:
                stale.append((router, address))
    return stale


@pytest.fixture(scope="module")
def flap():
    """Withdraw one /20 and converge, re-originate it and converge, on
    a converged 40-domain graph; returns what the cycle built, what
    the RIBs held before and after, and any stale lookup seen."""
    topology = as_graph(random.Random(7), node_count=40)
    network = BgpNetwork(topology)
    network.originate_from_domain(topology.domains[0], COVERING)
    for index, prefix in ORIGINS.items():
        network.originate_from_domain(topology.domains[index], prefix)
    network.converge()
    # Builds every lookup index, so the flap has to patch them.
    stale = _stale_lookups(network)
    before = _held_routes(network)

    built = []
    init = Route.__init__

    def counting_init(self, prefix, *args, **kwargs):
        built.append(prefix)
        init(self, prefix, *args, **kwargs)

    origin = topology.domains[FLAPPED_DOMAIN]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Route, "__init__", counting_init)
        network.withdraw(origin.router(), FLAPPED)
        network.converge()
        stale += _stale_lookups(network)
        assert network.group_next_hop(
            topology.domains[9].router(), FLAPPED.network + 5
        ).prefix == COVERING
        network.originate_from_domain(origin, FLAPPED)
        network.converge()
        stale += _stale_lookups(network)
    return built, before, _held_routes(network), stale


def test_every_route_built_carries_the_flapped_prefix(flap):
    built, _before, _after, _stale = flap
    assert set(built) == {FLAPPED}
    # Two alternatives exported while the withdrawal settles, both
    # withheld because their next-hop chains are already superseded
    # (the withdrawal announces nothing; it carries keys, not routes),
    # then the returning origin and one route per (speaker, session
    # terms) class it was exported to: sessions with equal terms share
    # one route object, not one each.
    assert len(built) == 52


def test_entries_under_other_keys_are_the_same_objects(flap):
    _built, before, after, _stale = flap
    assert before.keys() == after.keys()
    others = 0
    for holder, table in before.items():
        assert table.keys() == after[holder].keys()
        for key, route in table.items():
            if route.prefix != FLAPPED:
                assert after[holder][key] is route
                others += 1
    assert others > 500


def test_lookup_index_never_goes_stale(flap):
    _built, _before, _after, stale = flap
    assert stale == []
