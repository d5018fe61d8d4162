"""The one-pass export against the per-route reference.

``BgpNetwork._exports`` applies the multicast-capability rule, the
export policy and the section 4.3.2 aggregation filter to a whole key
list at once, on the keys' integer fields, and builds each exported
route itself. Every route it exports, and every key it withholds,
must be what the per-route chain decides: the link rule on the route
type, ``policy.allows``, ``Prefix.contains`` against the domain's own
origins, then ``Route.advertised_by``.
"""

import random

import pytest

from repro.addressing.prefix import Prefix
from repro.bgmp.network import BgmpNetwork
from repro.bgp.policy import preference_for
from repro.bgp.routes import RouteType
from repro.topology.generators import as_graph


def reference_export(bgp, best, router, terms):
    """What a session of ``router`` with ``terms`` receives for its best
    route ``best``, decided one route at a time."""
    if terms is None:
        if best.from_internal:
            return None
        return best.advertised_by(router, internal=True)
    multicast_ok, exporting_to, learned_from = terms
    if not multicast_ok and best.route_type is not RouteType.UNICAST:
        return None
    domain = router.domain
    if not bgp.policy.allows(domain, best, best.learned_from, exporting_to):
        return None
    if bgp.aggregate and not best.is_local_origin and any(
        own != best.prefix and own.contains(best.prefix)
        for own in bgp.domain_origins(domain, best.route_type)
    ):
        return None
    return best.advertised_by(
        router, preference_for(learned_from), learned_from=learned_from
    )


@pytest.fixture(
    scope="module", params=[True, False], ids=["aggregate", "flat"]
)
def bgp(request):
    """A converged 40-domain world: a UNICAST and an MRIB /24 per
    domain, the covering 224/4 at domain 0, a /20 per group domain, a
    /24 inside one of them originated elsewhere and one inside another
    originated by its own domain; every seventh link carries unicast
    only."""
    topology = as_graph(random.Random(7), node_count=40)
    for a, b in topology.links[::7]:
        topology.set_multicast_capable(a, b, False)
    network = BgmpNetwork(topology)
    network.bgp.aggregate = request.param
    network.originate_group_range(topology.domains[0], Prefix(224 << 24, 4))
    for domain in topology.domains[1:13]:
        network.originate_group_range(
            domain, Prefix((224 << 24) | (domain.domain_id << 12), 20)
        )
    for origin, inside in ((20, 3), (4, 4)):
        network.originate_group_range(
            topology.domains[origin],
            Prefix((224 << 24) | (inside << 12) | (1 << 8), 24),
        )
    network.converge()
    return network.bgp


def test_one_pass_export_matches_the_per_route_reference(bgp):
    withheld = exported = 0
    for router, speaker in bgp.speakers.items():
        bests = bgp._best_routes(speaker, None, ())
        for terms, _group, _private in bgp._update_groups(router):
            for (key, got), (_key, best) in zip(
                bgp._exports(router, terms, bests), bests
            ):
                want = reference_export(bgp, best, router, terms)
                assert got == want, (router, terms, best)
                if got is None:
                    withheld += 1
                else:
                    assert got.key() == key
                    exported += 1
    assert withheld > 1000 and exported > 1000
