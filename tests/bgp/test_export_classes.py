"""The synchronous round exports once per (speaker, session terms) and
reads each router's live sessions from a cached list: the list must
match a fresh computation after every point that can change it, and
sessions with equal terms must hold the very same route objects."""

import random

import pytest

from repro.addressing.prefix import Prefix
from repro.bgp.network import BgpNetwork
from repro.topology.generators import as_graph

ORIGINS = {
    index: Prefix((224 << 24) | (index << 12), 20) for index in range(12)
}


def _converged(node_count=12):
    topology = as_graph(random.Random(7), node_count=node_count)
    network = BgpNetwork(topology)
    for index, prefix in ORIGINS.items():
        network.originate_from_domain(topology.domains[index], prefix)
    network.converge()
    return network


def _recomputed(network, router):
    return [
        (peer, network._session_terms(router, peer))
        for peer in network._peers(router)
        if network.session_up(router, peer)
    ]


def _assert_cache_fresh(network):
    """Every router's session list, cached or rebuilt, equals one
    recomputed from the topology and the session state."""
    for router in network.speakers:
        assert network._live_sessions(router) == _recomputed(
            network, router
        )


def _session_down(network):
    network.set_session_state(*network.topology.links[0], up=False)


def _session_up(network):
    _session_down(network)
    network.converge()
    _assert_cache_fresh(network)
    network.set_session_state(*network.topology.links[0], up=True)


def _fail(network):
    network.fail_router(network.topology.domains[0].router())


def _restore(network):
    _fail(network)
    network.converge()
    _assert_cache_fresh(network)
    network.restore_router(network.topology.domains[0].router())


def _late_speaker(network):
    topology = network.topology
    newcomer = topology.add_domain(name="LATE")
    topology.connect(topology.domains[1].router(), newcomer.router())
    network.speaker(newcomer.router())


def _invalidate(network):
    topology = network.topology
    topology.set_multicast_capable(*topology.links[0], capable=False)
    network.invalidate()


@pytest.mark.parametrize(
    "mutate",
    [_session_down, _session_up, _fail, _restore, _late_speaker, _invalidate],
    ids=lambda mutate: mutate.__name__.lstrip("_"),
)
def test_cached_sessions_follow_every_change(mutate):
    network = _converged()
    # Every router exported in the first round, so each has a list to
    # go stale.
    assert network._sessions.keys() == network.speakers.keys()
    mutate(network)
    _assert_cache_fresh(network)
    network.converge()
    _assert_cache_fresh(network)


def test_equal_terms_share_one_route_object():
    network = _converged(node_count=40)
    shared = 0
    for router in network.speakers:
        by_terms = {}
        for peer, terms in network._live_sessions(router):
            by_terms.setdefault(terms, []).append(peer)
        for peers in by_terms.values():
            tables = [network._advertised.get((router, p), {}) for p in peers]
            for table in tables[1:]:
                assert table.keys() == tables[0].keys()
                for key, route in table.items():
                    assert route is tables[0][key]
                    shared += 1
            # ... and so does every receiver's Adj-RIB-In, unless its
            # loop check turned the route into a withdrawal.
            for peer, table in zip(peers, tables):
                held = network.speaker(peer).session_with(router)
                for key, route in table.items():
                    assert held.get(*key) is route or (
                        route.has_loop(peer.domain.domain_id)
                    )
    assert shared > 100
