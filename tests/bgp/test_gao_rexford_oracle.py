"""``BgpNetwork`` against the closed-form Gao–Rexford stable state
(``tests/bgp/_gao_rexford.py``), which runs no decision process and no
export code: every router's best route class and AS-path length must
be the one the domain graph implies, after the initial converge, a
withdrawal and re-origination, and a crash and restore."""

import os
import random

import pytest

from repro.addressing.prefix import Prefix
from repro.bgp.network import BgpNetwork
from repro.bgp.routes import RouteType
from repro.topology.generators import as_graph

from tests.bgp._gao_rexford import mismatches, stable_routes


def _prefix(domain):
    """One non-nested /20 per domain."""
    return Prefix((224 << 24) | (domain.domain_id << 12), 20)


def _world(node_count, stride=1):
    """``as_graph`` without aggregation; every ``stride``-th domain
    originates its /20."""
    topology = as_graph(random.Random(7), node_count=node_count)
    network = BgpNetwork(topology, aggregate=False)
    for domain in topology.domains[::stride]:
        network.originate_from_domain(domain, _prefix(domain))
    network.converge()
    return network


def _assert_closed_form(network):
    for domain in network.topology.domains:
        key = (RouteType.GROUP, _prefix(domain))
        assert mismatches(network, key) == [], domain


@pytest.fixture(scope="module")
def network():
    return _world(40)


def test_the_oracle_sees_every_route_class(network):
    classes = {
        kind
        for domain in network.topology.domains
        for kind, _length in stable_routes(
            network, (RouteType.GROUP, _prefix(domain))
        ).values()
    }
    assert classes == {"origin", "customer", "peer", "provider"}


def test_initial_converge(network):
    _assert_closed_form(network)


def test_withdraw_and_reoriginate(network):
    flapped = network.topology.domains[6]
    network.withdraw(flapped.router(), _prefix(flapped))
    network.converge()
    assert all(
        speaker.loc_rib.get(RouteType.GROUP, _prefix(flapped)) is None
        for speaker in network.speakers.values()
    )
    _assert_closed_form(network)
    network.originate_from_domain(flapped, _prefix(flapped))
    network.converge()
    _assert_closed_form(network)


def test_crash_and_restore(network):
    # AS0's router facing AS1: one of the three backbone peer links.
    crashed = network.topology.domains[0].router()
    network.fail_router(crashed)
    network.converge()
    _assert_closed_form(network)
    network.restore_router(crashed)
    network.converge()
    _assert_closed_form(network)


def test_three_hundred_domains():
    # A tenth of the domains originate: the whole set converges in
    # seconds, more than tier-1 affords.
    network = _world(300, stride=10)
    _assert_closed_form(network)


@pytest.mark.skipif(
    os.environ.get("REPRO_PAPER_SCALE", "") in ("", "0"),
    reason="route-views scale: set REPRO_PAPER_SCALE=1",
)
def test_route_views_scale():
    # The 3326-domain graph of the route-views workload; every 33rd
    # domain originates (101 prefixes), far beyond the tier-1 budget.
    network = _world(3326, stride=33)
    _assert_closed_form(network)
