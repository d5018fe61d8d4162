"""What a delivered route costs in Python calls.

The initial converge of the 40-domain oracle world (``as_graph`` seed
7, no aggregation, one /20 per domain, as in
``test_gao_rexford_oracle.py``) runs under cProfile; the calls to
functions defined in the ``repro`` package are divided by the routes
its UPDATEs deliver (announcements plus withdrawals).

Measured on CPython 3.11: 34.0 calls per delivered route with
``(type, Prefix)`` keys — one ``Prefix.__hash__`` call per dict
operation, one ``key_order`` call per key sorted — and an export that
went key by key through ``_export``, ``_covered_by_own``,
``advertised_by`` and ``preference_for``; 11.0 with the plain
``(network, length, type)`` key and the one-pass export. The bound
leaves room for small changes, not for either cost to come back.
"""

import cProfile
import random
from pathlib import Path

import repro
from repro.addressing.prefix import Prefix
from repro.bgp.network import BgpNetwork
from repro.bgp.speaker import BgpSpeaker
from repro.topology.generators import as_graph

CALLS_PER_ROUTE_BOUND = 15


def _world():
    topology = as_graph(random.Random(7), node_count=40)
    network = BgpNetwork(topology, aggregate=False)
    for domain in topology.domains:
        network.originate_from_domain(
            domain, Prefix((224 << 24) | (domain.domain_id << 12), 20)
        )
    return network


def calls_per_delivered_route(monkeypatch):
    """Named ``repro`` calls per delivered route in the initial
    converge, plus the number of routes delivered."""
    network = _world()
    delivered = []
    deliver = BgpSpeaker.deliver

    def counting_deliver(self, peer, table, changes):
        delivered.append(len(changes))
        deliver(self, peer, table, changes)

    monkeypatch.setattr(BgpSpeaker, "deliver", counting_deliver)
    package = str(Path(repro.__file__).parent)
    profile = cProfile.Profile()
    profile.enable()
    try:
        network.converge()
    finally:
        profile.disable()
    named = sum(
        entry.callcount
        for entry in profile.getstats()
        if not isinstance(entry.code, str)
        and entry.code.co_filename.startswith(package)
    )
    return named / sum(delivered), sum(delivered)


def test_a_delivered_route_costs_few_calls(monkeypatch):
    per_route, routes = calls_per_delivered_route(monkeypatch)
    assert routes > 1000
    assert per_route < CALLS_PER_ROUTE_BOUND, per_route
