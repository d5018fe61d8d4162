"""The synchronous round exports once per (speaker, session terms) and
diffs once per update group: the sessions of a router with equal terms
whose receivers hold the group's advertised table. The cached session
classes must match a fresh computation after every point that can
change them, and every live session must be in exactly one group or
hold a private table that its receiver holds — across the six
mutations that move sessions out of their groups and back."""

import random

import pytest

from repro.addressing.prefix import Prefix
from repro.bgp.network import BgpNetwork
from repro.topology.generators import as_graph
from tests.conftest import recompute_everything

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
    return {
        peer: network._session_terms(router, peer)
        for peer in network._peers(router)
        if network.session_up(router, peer)
    }


def _assert_cache_fresh(network):
    """Every router's cached sessions, members and private peers
    alike, are its live sessions with their terms, each once."""
    for router in network.speakers:
        cached = [
            (peer, terms)
            for terms, group, private in network._update_groups(router)
            for peer in (*group.members, *private)
        ]
        assert len(cached) == len(dict(cached))
        assert dict(cached) == _recomputed(network, router)


def _received(network, sender, receiver):
    """What ``receiver``'s Adj-RIB-In holds from ``sender``."""
    rib = network.speaker(receiver)._adj_in.get(sender)
    return rib.snapshot() if rib is not None else {}


def _assert_groups_hold(network, identical=False):
    """Every live session is a member of the one group of its terms or
    private, and its receiver holds that group's table (or its private
    table), minus the routes its loop check turned into withdrawals.
    ``identical``: the very same route objects, not only equal ones."""
    members = 0
    for router in network.speakers:
        if not network.router_up(router):
            continue
        groups = network._groups.get(router, {})
        live = _recomputed(network, router)
        for terms, group in groups.items():
            for peer in group.members:
                assert peer in live and live[peer] == terms
        for peer, terms in live.items():
            joined = [t for t, g in groups.items() if peer in g.members]
            assert joined in ([], [terms])
            if joined:
                table = groups[terms].table or {}
                members += 1
            else:
                table = network._advertised.get((router, peer), {})
            expected = {
                key: route
                for key, route in table.items()
                if route.from_internal
                or not route.has_loop(peer.domain.domain_id)
            }
            held = _received(network, router, peer)
            assert held == expected
            if identical:
                for key, route in held.items():
                    assert route is expected[key]
    assert members > 0


def _session_down(network):
    network.set_session_state(*network.topology.links[0], up=False)


def _session_up(network):
    _session_down(network)
    network.converge()
    _assert_cache_fresh(network)
    _assert_groups_hold(network)
    network.set_session_state(*network.topology.links[0], up=True)


def _fail(network):
    network.fail_router(network.topology.domains[0].router())


def _restore(network):
    _fail(network)
    network.converge()
    _assert_cache_fresh(network)
    _assert_groups_hold(network)
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


MUTATIONS = pytest.mark.parametrize(
    "mutate",
    [_session_down, _session_up, _fail, _restore, _late_speaker, _invalidate],
    ids=lambda mutate: mutate.__name__.lstrip("_"),
)


@MUTATIONS
def test_cached_sessions_follow_every_change(mutate):
    network = _converged()
    # Every router exported in the first round, so each has a list to
    # go stale.
    assert network._sessions.keys() == network.speakers.keys()
    mutate(network)
    _assert_cache_fresh(network)
    network.converge()
    _assert_cache_fresh(network)


@MUTATIONS
def test_update_groups_hold_what_receivers_hold(mutate):
    def run():
        network = _converged(node_count=40)
        _assert_groups_hold(network, identical=True)
        mutate(network)
        _assert_groups_hold(network)
        network.converge()
        _assert_groups_hold(network)
        return network.updates_sent, network.rib_digest()

    with recompute_everything(bgmp=False):
        expected = run()
    assert run() == expected


def test_private_session_joins_at_a_full_export_only():
    """A session whose terms changed leaves its group with a private
    copy of the table; a partial export cannot prove the copy equal to
    the group's again, the next full export does."""
    network = _converged()
    _invalidate(network)
    router, peer = network.topology.links[0]
    assert (router, peer) in network._advertised
    speaker = network.speaker(router)
    some_key = next(iter(speaker.loc_rib.keys()))
    network._send_round(speaker, {some_key})
    assert (router, peer) in network._advertised
    network.converge()
    assert (router, peer) not in network._advertised
    _assert_groups_hold(network)
