"""Property test: whatever transient the synchronous schedule takes, it
ends where the policy says, however it is stepped, and where the
event-driven schedule ends.

Random Gao–Rexford worlds of 3-12 domains — an acyclic provider
hierarchy under a peered top tier, multi-homed stubs, extra peer links,
some links unicast-only, some doubled between two more routers — go
through random originations, withdrawals, router crashes and restores
of group and unicast prefixes. After every converge:

- every router holds the closed-form stable route
  (``tests/bgp/_gao_rexford.py``) for every prefix;
- a copy stepped one round per ``try_converge(max_rounds=1)`` call
  takes as many calls as the one-shot converge takes rounds and ends
  with the same ``rib_digest`` and ``updates_sent``;
- ``EventDrivenBgp`` given the same steps reaches the same
  ``rib_digest`` at quiescence;
- every live session's receiver reads the very table its sender diffs
  (the event-driven one: the session's delivered table, equal to the
  sender's), and selects from it all but the routes whose AS path
  holds its domain.
"""

from hypothesis import given, settings, strategies as st

from repro.addressing.prefix import Prefix
from repro.bgp.events import EventDrivenBgp
from repro.bgp.network import BgpNetwork
from repro.bgp.routes import RouteType
from repro.sim.engine import Simulator
from repro.topology.domain import DomainKind
from repro.topology.network import Topology

from tests.bgp._gao_rexford import mismatches
from tests.bgp._views import assert_delivered_views_hold, assert_views_hold

TYPES = (RouteType.GROUP, RouteType.UNICAST)


@st.composite
def worlds(draw):
    """(domain count, links): each link is (a, b, kind, multicast,
    copies), ``kind`` being what ``b`` is to ``a`` (``"customer"`` or
    ``"peer"``) and ``copies`` how many router pairs it joins. Domains
    below ``top`` peer in a full mesh; every other domain buys transit
    from one or two lower-numbered domains."""
    count = draw(st.integers(3, 12))
    top = draw(st.integers(1, min(3, count - 1)))
    links = {}
    for a in range(top):
        for b in range(a + 1, top):
            links[a, b] = "peer"
    for customer in range(top, count):
        for provider in draw(
            st.sets(st.integers(0, customer - 1), min_size=1, max_size=2)
        ):
            links[provider, customer] = "customer"
    for a, b in draw(
        st.lists(st.tuples(st.integers(0, count - 1),
                           st.integers(0, count - 1)), max_size=3)
    ):
        if a < b and (a, b) not in links:
            links[a, b] = "peer"
    return count, [
        (
            a, b, kind,
            draw(st.booleans()) or draw(st.booleans()),
            draw(st.integers(1, 2)),
        )
        for (a, b), kind in sorted(links.items())
    ]


steps = st.tuples(
    st.sampled_from(("originate", "withdraw", "fail", "restore")),
    st.integers(0, 11),
    st.integers(0, 3),
    st.sampled_from(TYPES),
)


def _build(world):
    count, links = world
    topology = Topology()
    domains = [
        topology.add_domain(name=f"D{index}", kind=DomainKind.BACKBONE)
        for index in range(count)
    ]
    for a, b, kind, multicast, copies in links:
        near, far = domains[a], domains[b]
        if kind == "customer":
            near.add_customer(far)
        else:
            near.add_peer(far)
        for copy in range(copies):
            topology.connect(
                near.router(f"{near.name}-{far.name}.{copy}"),
                far.router(f"{far.name}-{near.name}.{copy}"),
                multicast_capable=multicast,
            )
    return topology


def _prefix(domain_index, route_type):
    """One non-nested /20 per (domain, type)."""
    offset = 0 if route_type is RouteType.GROUP else 1 << 8
    return Prefix((224 << 24) | ((offset + domain_index) << 12), 20)


def _apply(network, step, event=False):
    """Apply one step; returns the prefix's key when it is one the
    closed form must be checked for."""
    verb, domain_index, router_index, route_type = step
    domains = network.topology.domains
    domain = domains[domain_index % len(domains)]
    routers = [domain.routers[name] for name in sorted(domain.routers)]
    router = routers[router_index % len(routers)]
    prefix = _prefix(domain.domain_id, route_type)
    if verb == "originate":
        if event:
            network.inject(router, prefix, route_type)
        else:
            network.originate(router, prefix, route_type)
    elif verb == "withdraw":
        if event:
            network.retract(router, prefix, route_type)
        else:
            network.withdraw(router, prefix, route_type)
    elif verb == "fail":
        network.fail_router(router)
    else:
        network.restore_router(router)
    return (route_type, prefix)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(worlds(), st.lists(steps, min_size=1, max_size=12))
def test_every_converge_reaches_the_stable_state(world, plan):
    one_shot = BgpNetwork(_build(world))
    stepped = BgpNetwork(_build(world))
    event = EventDrivenBgp(_build(world), Simulator())
    keys = set()
    for step in plan:
        keys.add(_apply(one_shot, step))
        _apply(stepped, step)
        _apply(event, step, event=True)

        rounds = one_shot.converge()
        calls = 1
        while not stepped.try_converge(max_rounds=1):
            calls += 1
        event.run_to_quiescence()

        for key in sorted(keys, key=lambda key: key[1]):
            assert mismatches(one_shot, key) == [], (step, key)
        assert calls == rounds
        assert stepped.updates_sent == one_shot.updates_sent
        assert stepped.rib_digest() == one_shot.rib_digest()
        assert event.rib_digest() == one_shot.rib_digest()
        assert_views_hold(one_shot)
        assert_views_hold(stepped)
        assert_delivered_views_hold(event)
