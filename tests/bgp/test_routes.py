"""Tests for routes and path attributes."""

from hypothesis import given, strategies as st

from repro.addressing.ipv4 import mask_bits
from repro.addressing.prefix import Prefix
from repro.bgp.routes import Route, RouteType
from repro.topology.domain import Domain


P16 = Prefix.parse("224.0.0.0/16")
P24 = Prefix.parse("224.0.128.0/24")


def origin_route(prefix=P24):
    return Route(prefix, RouteType.GROUP, next_hop=None)


class TestRoute:
    def test_local_origin(self):
        route = origin_route()
        assert route.is_local_origin
        assert route.origin_domain_id is None
        assert route.as_path == ()

    def test_key(self):
        route = origin_route()
        assert route.key() == (P24.network, P24.length, RouteType.GROUP)

    def test_external_advertisement_prepends_as_path(self):
        b = Domain(1, name="B")
        b1 = b.router("B1")
        advertised = origin_route().advertised_by(b1)
        assert advertised.as_path == (1,)
        assert advertised.next_hop is b1
        assert not advertised.from_internal

    def test_chained_advertisement(self):
        b = Domain(1, name="B")
        a = Domain(0, name="A")
        hop1 = origin_route().advertised_by(b.router("B1"))
        hop2 = hop1.advertised_by(a.router("A4"))
        assert hop2.as_path == (0, 1)
        assert hop2.origin_domain_id == 1

    def test_internal_advertisement_keeps_as_path(self):
        a = Domain(0, name="A")
        external = origin_route().advertised_by(
            Domain(1, name="B").router("B1")
        )
        external.learned_from = "customer"
        internal = external.advertised_by(a.router("A3"), internal=True)
        assert internal.as_path == (1,)
        assert internal.from_internal
        assert internal.next_hop.name == "A3"
        assert internal.learned_from == "customer"
        assert internal.local_pref == external.local_pref

    def test_loop_detection(self):
        route = origin_route().advertised_by(Domain(1, name="B").router("B1"))
        assert route.has_loop(1)
        assert not route.has_loop(2)

    def test_equality_and_hash(self):
        a = origin_route()
        b = origin_route()
        assert a == b
        assert hash(a) == hash(b)
        assert a != origin_route(P16)

    def test_route_types_distinct(self):
        group = Route(P24, RouteType.GROUP, None)
        unicast = Route(P24, RouteType.UNICAST, None)
        assert group != unicast
        assert group.key() != unicast.key()


#: (address, mask length, type): any prefix, of any route type.
route_specs = st.tuples(
    st.integers(0, (1 << 32) - 1),
    st.integers(0, 32),
    st.sampled_from(list(RouteType)),
)


@given(st.lists(route_specs, max_size=40))
def test_keys_are_plain_data_in_canonical_order(specs):
    """A key is (network, length, type) — ints and the enum itself, so
    it hashes and compares in C — and sorting keys is the canonical
    (network, length, type-name) order of the routes they belong to."""
    routes = [
        Route(Prefix(address & mask_bits(length), length), kind, None)
        for address, length, kind in specs
    ]
    for route in routes:
        network, length, kind = key = route.key()
        assert type(key) is tuple
        assert type(network) is int and type(length) is int
        assert kind is route.route_type
        assert Prefix(network, length) is route.prefix
    canonical = sorted(
        routes,
        key=lambda route: (
            route.prefix.network,
            route.prefix.length,
            route.route_type.value,
        ),
    )
    assert sorted(route.key() for route in routes) == [
        route.key() for route in canonical
    ]
