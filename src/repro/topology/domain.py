"""Domains, border routers, and hosts.

A :class:`Domain` is an Autonomous System: a set of networks under one
administration (section 1 of the paper). It owns border routers (which
run BGP/BGMP) and hosts (which join and send to multicast groups), and
records its provider / customer / peer relationships with neighbouring
domains.

All three compare and hash by identity: an object equals only itself.
The get-or-create constructors (:meth:`Domain.router`,
:meth:`Domain.host`, the topology generators) are the one way to obtain
one, so a name never stands for two objects. Sets of them iterate in
address order, which differs between processes: iterate a sorted list
or a dict instead (lint rule DET003).
"""

from __future__ import annotations

from enum import Enum
from typing import Dict, List, Optional, Set


class DomainKind(Enum):
    """Coarse role of a domain in the provider hierarchy."""

    BACKBONE = "backbone"
    REGIONAL = "regional"
    STUB = "stub"
    EXCHANGE = "exchange"


class Domain:
    """An Autonomous System.

    Identified by a small integer ``domain_id`` (also used to break
    claim-collision ties in MASC) and an optional human-readable name
    such as ``"A"`` for the paper's figures.
    """

    def __init__(
        self,
        domain_id: int,
        name: str = "",
        kind: DomainKind = DomainKind.STUB,
    ):
        self.domain_id = domain_id
        self.name = name or f"AS{domain_id}"
        self.kind = kind
        self.routers: Dict[str, BorderRouter] = {}
        self.hosts: Dict[str, Host] = {}
        self.providers: Set["Domain"] = set()
        self.customers: Set["Domain"] = set()
        self.peers: Set["Domain"] = set()

    def router(self, name: Optional[str] = None) -> "BorderRouter":
        """Get or create the border router called ``name``.

        With no name, returns the domain's first router (creating
        ``"<name>1"`` if the domain has none) — convenient for
        single-router domains.
        """
        if name is None:
            if self.routers:
                return next(iter(self.routers.values()))
            name = f"{self.name}1"
        existing = self.routers.get(name)
        if existing is not None:
            return existing
        router = BorderRouter(name, self)
        self.routers[name] = router
        return router

    def host(self, name: Optional[str] = None) -> "Host":
        """Get or create the host called ``name`` inside this domain."""
        if name is None:
            name = f"{self.name}-h{len(self.hosts) + 1}"
        existing = self.hosts.get(name)
        if existing is not None:
            return existing
        host = Host(name, self)
        self.hosts[name] = host
        return host

    def add_customer(self, customer: "Domain") -> None:
        """Record a provider-customer relationship (self provides)."""
        if customer is self:
            raise ValueError(f"{self.name} cannot be its own customer")
        self.customers.add(customer)
        customer.providers.add(self)

    def add_peer(self, other: "Domain") -> None:
        """Record a settlement-free peering relationship."""
        if other is self:
            raise ValueError(f"{self.name} cannot peer with itself")
        self.peers.add(other)
        other.peers.add(self)

    @property
    def is_top_level(self) -> bool:
        """True for domains with no provider (candidates for top-level
        MASC domains, section 4)."""
        return not self.providers

    def relationship_to(self, other: "Domain") -> str:
        """One of ``"customer"``, ``"provider"``, ``"peer"`` or
        ``"none"`` describing what ``other`` is to this domain."""
        if other in self.customers:
            return "customer"
        if other in self.providers:
            return "provider"
        if other in self.peers:
            return "peer"
        return "none"

    def __repr__(self) -> str:
        return f"Domain({self.name}, id={self.domain_id}, {self.kind.value})"


class BorderRouter:
    """A border router of a domain.

    Border routers terminate inter-domain links, run BGP peerings with
    external neighbours and (implicitly) with every other border router
    of their domain, and host the BGMP and MIGP components.
    """

    def __init__(self, name: str, domain: Domain):
        self.name = name
        self.domain = domain
        self.external_neighbors: List["BorderRouter"] = []

    def add_external_neighbor(self, other: "BorderRouter") -> None:
        """Record a direct inter-domain adjacency (both directions are
        recorded by :meth:`Topology.connect`)."""
        if other.domain == self.domain:
            raise ValueError(
                f"{self.name} and {other.name} are in the same domain"
            )
        if other not in self.external_neighbors:
            self.external_neighbors.append(other)

    def internal_peers(self) -> List["BorderRouter"]:
        """The other border routers of this router's domain."""
        return [r for r in self.domain.routers.values() if r is not self]

    def neighbor_domains(self) -> List[Domain]:
        """Domains directly reachable over this router's external links."""
        seen: List[Domain] = []
        for neighbor in self.external_neighbors:
            if neighbor.domain not in seen:
                seen.append(neighbor.domain)
        return seen

    def __repr__(self) -> str:
        return f"BorderRouter({self.name}@{self.domain.name})"


class Host:
    """An end host inside a domain: a group member and/or sender."""

    def __init__(self, name: str, domain: Domain):
        self.name = name
        self.domain = domain

    def __repr__(self) -> str:
        return f"Host({self.name}@{self.domain.name})"
