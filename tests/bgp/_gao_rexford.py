"""The Gao–Rexford stable state in closed form: an oracle for
``BgpNetwork`` that shares none of its code.

Under valley-free export (own and customer routes to everyone, peer
and provider routes to customers only) with customer > peer > provider
preference and shortest AS path within a class, every domain's best
route for a prefix follows from the domain graph alone:

1. customer routes: breadth-first up the provider edges from the
   origin — a domain has one exactly when the origin is in its
   customer cone;
2. peer routes: one hop across a peer link from a domain holding an
   origin or customer route (a link whose domains have no recorded
   relationship ranks and exports like a peer link);
3. provider routes: down the customer edges from every domain routed
   so far, shortest first.

Every border router of a domain ends on the domain's (class, length):
iBGP carries the domain's best external route, attributes unchanged,
to each of them. Links with a crashed end or a down session, and
unicast-only links for group routes, carry nothing.
"""

import heapq
from collections import deque
from typing import Dict, Optional, Tuple

from repro.bgp.network import BgpNetwork
from repro.bgp.policy import preference_for
from repro.bgp.routes import RouteType
from repro.topology.domain import Domain

#: (class of the best route, AS-path length); the class is the
#: relationship it was learned over, or "origin".
Best = Tuple[str, int]


def _adjacency(network: BgpNetwork, route_type: RouteType):
    """Per domain, its live neighbours grouped by what they are to it."""
    related = {
        domain: {"customer": [], "provider": [], "peer": []}
        for domain in network.topology.domains
    }
    for a, b in network.topology.links:
        if not network.session_up(a, b):
            continue
        if route_type is not RouteType.UNICAST and not (
            network.topology.multicast_capable(a, b)
        ):
            continue
        for near, far in ((a.domain, b.domain), (b.domain, a.domain)):
            kind = near.relationship_to(far)
            related[near][kind if kind in related[near] else "peer"].append(
                far
            )
    return related


def stable_routes(
    network: BgpNetwork, key: Tuple[RouteType, object]
) -> Dict[Domain, Best]:
    """Every domain's best route for ``key``, a (type, prefix) pair
    (absent: no route)."""
    related = _adjacency(network, key[0])
    best: Dict[Domain, Best] = {}
    queue = deque()
    for router, speaker in network.speakers.items():
        if network.router_up(router) and any(
            (route.route_type, route.prefix) == key
            for route in speaker.origins()
        ):
            best[router.domain] = ("origin", 0)
            queue.append(router.domain)
    while queue:
        domain = queue.popleft()
        for provider in related[domain]["provider"]:
            if provider not in best:
                best[provider] = ("customer", best[domain][1] + 1)
                queue.append(provider)
    peer_routes: Dict[Domain, int] = {}
    for domain, (_kind, length) in best.items():
        for peer in related[domain]["peer"]:
            if peer not in best:
                peer_routes[peer] = min(
                    peer_routes.get(peer, length + 1), length + 1
                )
    best.update(
        (domain, ("peer", length)) for domain, length in peer_routes.items()
    )
    heap = [(length, d.domain_id, d) for d, (_, length) in best.items()]
    heapq.heapify(heap)
    while heap:
        length, _id, domain = heapq.heappop(heap)
        for customer in related[domain]["customer"]:
            if customer not in best:
                best[customer] = ("provider", length + 1)
                heapq.heappush(
                    heap, (length + 1, customer.domain_id, customer)
                )
    return best


def mismatches(network: BgpNetwork, key) -> list:
    """Routers whose best route for ``key`` disagrees with the closed
    form on (local_pref, AS-path length); a crashed router must hold
    nothing at all."""
    expected = stable_routes(network, key)
    wrong = []
    for router, speaker in network.speakers.items():
        route = speaker.loc_rib.get(*key)
        found: Optional[Tuple[int, int]] = (
            None
            if route is None
            else (preference_for(route.learned_from), len(route.as_path))
        )
        want = expected.get(router.domain)
        if not network.router_up(router):
            want = None
        elif want is not None:
            want = (preference_for(want[0]), want[1])
        if found != want:
            wrong.append((router, found, want))
    return wrong
