"""Tests for domains, border routers, and hosts."""

import pytest

from repro.topology.domain import BorderRouter, Domain, DomainKind, Host


class TestDomain:
    def test_default_name(self):
        assert Domain(7).name == "AS7"

    def test_router_created_once(self):
        domain = Domain(0, name="A")
        assert domain.router("A1") is domain.router("A1")
        assert len(domain.routers) == 1

    def test_router_default_name(self):
        domain = Domain(0, name="A")
        router = domain.router()
        assert router.name == "A1"
        # Subsequent default calls return the first router.
        assert domain.router() is router

    def test_host_created_once(self):
        domain = Domain(0, name="A")
        assert domain.host("h") is domain.host("h")

    def test_host_default_names_unique(self):
        domain = Domain(0, name="A")
        first = domain.host()
        second = domain.host()
        assert first is not second
        assert first.name != second.name

    def test_add_customer_symmetric(self):
        provider = Domain(0, name="P")
        customer = Domain(1, name="C")
        provider.add_customer(customer)
        assert customer in provider.customers
        assert provider in customer.providers
        assert provider.relationship_to(customer) == "customer"
        assert customer.relationship_to(provider) == "provider"

    def test_self_customer_rejected(self):
        domain = Domain(0)
        with pytest.raises(ValueError):
            domain.add_customer(domain)

    def test_add_peer_symmetric(self):
        a, b = Domain(0, name="a"), Domain(1, name="b")
        a.add_peer(b)
        assert b in a.peers and a in b.peers
        assert a.relationship_to(b) == "peer"

    def test_self_peer_rejected(self):
        domain = Domain(0)
        with pytest.raises(ValueError):
            domain.add_peer(domain)

    def test_relationship_none(self):
        assert Domain(0).relationship_to(Domain(1)) == "none"

    def test_is_top_level(self):
        provider = Domain(0)
        customer = Domain(1)
        provider.add_customer(customer)
        assert provider.is_top_level
        assert not customer.is_top_level

    def test_equality_by_id(self):
        """A domain equals only itself, whatever its id."""
        a = Domain(3)
        assert a == a
        assert Domain(3, name="x") != Domain(3, name="y")
        assert Domain(3) != Domain(4)
        assert Domain(3) != "AS3"

    def test_kind_default(self):
        assert Domain(0).kind is DomainKind.STUB


class TestBorderRouter:
    def test_external_neighbor_recorded_once(self):
        a, b = Domain(0, name="A"), Domain(1, name="B")
        ra, rb = a.router("A1"), b.router("B1")
        ra.add_external_neighbor(rb)
        ra.add_external_neighbor(rb)
        assert ra.external_neighbors == [rb]

    def test_same_domain_link_rejected(self):
        domain = Domain(0, name="A")
        r1, r2 = domain.router("A1"), domain.router("A2")
        with pytest.raises(ValueError):
            r1.add_external_neighbor(r2)

    def test_internal_peers(self):
        domain = Domain(0, name="A")
        r1 = domain.router("A1")
        r2 = domain.router("A2")
        r3 = domain.router("A3")
        assert set(r1.internal_peers()) == {r2, r3}

    def test_neighbor_domains_deduplicated(self):
        a, b = Domain(0, name="A"), Domain(1, name="B")
        ra = a.router("A1")
        ra.add_external_neighbor(b.router("B1"))
        ra.add_external_neighbor(b.router("B2"))
        assert ra.neighbor_domains() == [b]

    def test_equality(self):
        a = Domain(0, name="A")
        assert a.router("A1") is a.router("A1")
        assert a.router("A1") != BorderRouter("A1", a)
        assert a.router("A1") != a.router("A2")


class TestHost:
    def test_identity(self):
        a = Domain(0, name="A")
        assert a.host("h") is a.host("h")
        assert Host("h", a) != Host("h", a)
        assert a.host("h") != a.host("g")
