"""The topology container.

:class:`Topology` owns the domains and the inter-domain links between
their border routers, and provides domain-level graph queries (BFS
shortest paths, distances, shortest-path trees). Path lengths are
counted in *inter-domain hops*, matching the paper's Figure 4 metric.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.topology.domain import BorderRouter, Domain, DomainKind


class Topology:
    """A collection of domains plus the inter-domain links between them."""

    def __init__(self) -> None:
        self._domains: Dict[int, Domain] = {}
        self._domain_order: Tuple[Domain, ...] = ()
        self._by_name: Dict[str, Domain] = {}
        self._links: List[Tuple[BorderRouter, BorderRouter]] = []
        self._adjacency: Dict[Domain, Set[Domain]] = {}
        self._bfs_cache: Dict[Domain, Dict[Domain, Domain]] = {}
        self._dist_cache: Dict[Domain, Dict[Domain, int]] = {}
        #: Links where multicast is NOT enabled (unicast-only): the
        #: source of unicast/multicast topology incongruence that the
        #: M-RIB exists to handle (sections 2 and 3 of the paper).
        self._unicast_only: Set[frozenset] = set()

    # ------------------------------------------------------------------
    # Construction

    def add_domain(
        self,
        name: str = "",
        kind: DomainKind = DomainKind.STUB,
        domain_id: Optional[int] = None,
    ) -> Domain:
        """Create and register a new domain."""
        if domain_id is None:
            domain_id = len(self._domains)
        if domain_id in self._domains:
            raise ValueError(f"duplicate domain id {domain_id}")
        domain = Domain(domain_id, name=name, kind=kind)
        if domain.name in self._by_name:
            raise ValueError(f"duplicate domain name {domain.name!r}")
        self._domains[domain_id] = domain
        self._by_name[domain.name] = domain
        self._adjacency[domain] = set()
        order = self._domain_order + (domain,)
        if len(order) > 1 and domain_id < order[-2].domain_id:
            order = tuple(sorted(order, key=lambda d: d.domain_id))
        self._domain_order = order
        return domain

    def connect(
        self,
        a: BorderRouter,
        b: BorderRouter,
        multicast_capable: bool = True,
    ) -> None:
        """Add a bidirectional inter-domain link between two routers.

        ``multicast_capable=False`` marks a unicast-only link: unicast
        routes flow over it but group/M-RIB routes (and hence BGMP
        trees) must route around it.
        """
        a.add_external_neighbor(b)
        b.add_external_neighbor(a)
        self._links.append((a, b))
        self._adjacency[a.domain].add(b.domain)
        self._adjacency[b.domain].add(a.domain)
        if not multicast_capable:
            self._unicast_only.add(frozenset((a, b)))
        self._invalidate_caches()

    def set_multicast_capable(
        self, a: BorderRouter, b: BorderRouter, capable: bool
    ) -> None:
        """Toggle multicast capability of an existing link.

        A :class:`~repro.bgp.network.BgpNetwork` caches each router's
        session terms, which include this flag, so a toggle under a
        live network must be followed by ``bgp.invalidate()``.
        """
        key = frozenset((a, b))
        if capable:
            self._unicast_only.discard(key)
        else:
            self._unicast_only.add(key)

    def multicast_capable(
        self, a: BorderRouter, b: BorderRouter
    ) -> bool:
        """True when multicast may cross the a-b link."""
        return frozenset((a, b)) not in self._unicast_only

    def connect_domains(
        self,
        a: Domain,
        b: Domain,
        router_a: Optional[str] = None,
        router_b: Optional[str] = None,
    ) -> Tuple[BorderRouter, BorderRouter]:
        """Connect two domains, creating border routers as needed.

        With no router names given, each side gets a dedicated router
        named after the far domain (``"A-to-B"``), so multi-homed domains
        naturally grow one border router per adjacency.
        """
        ra = a.router(router_a) if router_a else a.router(f"{a.name}-to-{b.name}")
        rb = b.router(router_b) if router_b else b.router(f"{b.name}-to-{a.name}")
        self.connect(ra, rb)
        return ra, rb

    def provider_link(
        self,
        provider: Domain,
        customer: Domain,
        router_provider: Optional[str] = None,
        router_customer: Optional[str] = None,
    ) -> Tuple[BorderRouter, BorderRouter]:
        """Connect two domains and record the provider-customer
        relationship in one step."""
        provider.add_customer(customer)
        return self.connect_domains(
            provider, customer, router_provider, router_customer
        )

    # ------------------------------------------------------------------
    # Lookup

    @property
    def domains(self) -> Tuple[Domain, ...]:
        """All domains, in id order.

        A cached tuple: every read returns the same object until
        :meth:`add_domain` builds the next one, so indexing it per
        event costs nothing.
        """
        return self._domain_order

    @property
    def links(self) -> List[Tuple[BorderRouter, BorderRouter]]:
        """All inter-domain links as router pairs."""
        return list(self._links)

    def domain(self, key) -> Domain:
        """Look up a domain by id or name."""
        if isinstance(key, int):
            return self._domains[key]
        return self._by_name[key]

    def __len__(self) -> int:
        return len(self._domains)

    def __contains__(self, domain: Domain) -> bool:
        return self._domains.get(domain.domain_id) is domain

    def neighbors(self, domain: Domain) -> List[Domain]:
        """Domains adjacent to ``domain``, sorted by id."""
        return sorted(
            self._adjacency[domain], key=lambda d: d.domain_id
        )

    def degree(self, domain: Domain) -> int:
        """Number of neighbouring domains."""
        return len(self._adjacency[domain])

    def routers(self) -> List[BorderRouter]:
        """Every border router in the topology."""
        found: List[BorderRouter] = []
        for domain in self.domains:
            found.extend(domain.routers.values())
        return found

    # ------------------------------------------------------------------
    # Graph queries (domain granularity)

    def _invalidate_caches(self) -> None:
        self._bfs_cache.clear()
        self._dist_cache.clear()

    def _bfs(self, source: Domain) -> Tuple[Dict[Domain, Domain], Dict[Domain, int]]:
        parents = self._bfs_cache.get(source)
        if parents is not None:
            return parents, self._dist_cache[source]
        parents = {source: source}
        distances = {source: 0}
        queue = deque([source])
        while queue:
            current = queue.popleft()
            for neighbor in sorted(
                self._adjacency[current], key=lambda d: d.domain_id
            ):
                if neighbor not in parents:
                    parents[neighbor] = current
                    distances[neighbor] = distances[current] + 1
                    queue.append(neighbor)
        self._bfs_cache[source] = parents
        self._dist_cache[source] = distances
        return parents, distances

    def distance(self, a: Domain, b: Domain) -> int:
        """Inter-domain hop count of the shortest path between a and b.

        Raises ValueError when the domains are disconnected.
        """
        _, distances = self._bfs(a)
        if b not in distances:
            raise ValueError(f"{a.name} and {b.name} are disconnected")
        return distances[b]

    def shortest_path(self, a: Domain, b: Domain) -> List[Domain]:
        """The shortest domain-level path from a to b, inclusive.

        Ties are broken deterministically (lowest domain id first in the
        BFS), so repeated calls agree — this mirrors a stable routing
        decision process.
        """
        parents, distances = self._bfs(a)
        if b not in distances:
            raise ValueError(f"{a.name} and {b.name} are disconnected")
        path = [b]
        while path[-1] is not a:
            path.append(parents[path[-1]])
        path.reverse()
        return path

    def shortest_path_tree(self, root: Domain) -> Dict[Domain, Domain]:
        """Parent pointers of the BFS shortest-path tree rooted at
        ``root`` (the root maps to itself)."""
        parents, _ = self._bfs(root)
        return dict(parents)

    def is_connected(self) -> bool:
        """True when every domain can reach every other."""
        if not self._domains:
            return True
        first = next(iter(self._domains.values()))
        _, distances = self._bfs(first)
        return len(distances) == len(self._domains)

    def eccentricity(self, domain: Domain) -> int:
        """Greatest distance from ``domain`` to any reachable domain."""
        _, distances = self._bfs(domain)
        return max(distances.values())

    def average_degree(self) -> float:
        """Mean domain degree."""
        if not self._domains:
            return 0.0
        total = sum(len(adj) for adj in self._adjacency.values())
        return total / len(self._domains)

    def top_level_domains(self) -> List[Domain]:
        """Domains with no provider, in id order."""
        return [d for d in self.domains if d.is_top_level]

    def validate(self) -> None:
        """Sanity-check structural invariants; raises ValueError on
        violation. Used by generators and tests."""
        for domain in self.domains:
            for provider in domain.providers:
                if domain not in provider.customers:
                    raise ValueError(
                        f"asymmetric provider link {provider.name}->"
                        f"{domain.name}"
                    )
            for router in domain.routers.values():
                for neighbor in router.external_neighbors:
                    if neighbor.domain == domain:
                        raise ValueError(
                            f"intra-domain external link at {router.name}"
                        )
