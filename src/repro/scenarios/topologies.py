"""Topology construction for scenarios: named builders + custom specs.

The builder registry maps the DSL's ``[topology] builder = "..."``
names onto the repo's generators; ``builder = "custom"`` assembles a
topology from explicit ``[[topology.domain]]`` / ``[[topology.link]]``
tables. Every build is deterministic: randomized builders take their
seed from the spec, never from global state.
"""

from __future__ import annotations

import random
from typing import Dict

from repro.scenarios.spec import ScenarioError, TopologySpec
from repro.topology.domain import BorderRouter, Domain, DomainKind
from repro.topology.generators import (
    kary_hierarchy,
    linear_chain,
    paper_figure1_topology,
    paper_figure3_topology,
    transit_stub,
)
from repro.topology.network import Topology

_KINDS = {
    "backbone": DomainKind.BACKBONE,
    "regional": DomainKind.REGIONAL,
    "stub": DomainKind.STUB,
}


def _build_custom(spec: TopologySpec) -> Topology:
    topology = Topology()
    for domain_spec in spec.domains:
        topology.add_domain(
            name=domain_spec.name, kind=_KINDS[domain_spec.kind]
        )
    for link in spec.links:
        name_a, _, router_a = link.a.partition(":")
        name_b, _, router_b = link.b.partition(":")
        a = topology.domain(name_a)
        b = topology.domain(name_b)
        ra = a.router(router_a) if router_a else a.router(
            f"{a.name}-to-{b.name}"
        )
        rb = b.router(router_b) if router_b else b.router(
            f"{b.name}-to-{a.name}"
        )
        topology.connect(ra, rb, multicast_capable=link.multicast)
        if link.relation == "provider":
            a.add_customer(b)
        elif link.relation == "peer":
            a.add_peer(b)
    return topology


def build_topology(spec: TopologySpec) -> Topology:
    """Materialize a :class:`TopologySpec` into a fresh topology."""
    params = spec.params
    if spec.builder == "figure1":
        topology = paper_figure1_topology()
    elif spec.builder == "figure3":
        topology = paper_figure3_topology()
    elif spec.builder == "linear":
        topology = linear_chain(int(params.get("length", 3)))
    elif spec.builder == "kary":
        topology = kary_hierarchy(
            top_count=int(params.get("tops", 3)),
            child_count=int(params.get("children", 3)),
            mesh_top_level=bool(params.get("mesh", True)),
        )
    elif spec.builder == "transit-stub":
        topology = transit_stub(
            random.Random(int(params.get("seed", 0))),
            transit_count=int(params.get("transits", 3)),
            stubs_per_transit=int(params.get("stubs", 4)),
            extra_stub_links=int(params.get("extra_links", 2)),
        )
    elif spec.builder == "custom":
        topology = _build_custom(spec)
    else:  # pragma: no cover - the loader rejects unknown builders
        raise ScenarioError(f"unknown topology builder {spec.builder!r}")
    _apply_unicast_only(topology, spec)
    return topology


def _apply_unicast_only(
    topology: Topology, spec: TopologySpec
) -> None:
    if not spec.unicast_only:
        return
    routers = router_index(topology)
    links = {frozenset(pair) for pair in topology.links}
    for name_a, name_b in spec.unicast_only:
        pair = frozenset((routers[name_a], routers[name_b]))
        if pair not in links:
            raise ScenarioError(
                f"no link between routers {name_a!r} and {name_b!r} "
                "to mark unicast-only"
            )
        topology.set_multicast_capable(*sorted(
            pair, key=lambda r: r.name
        ), capable=False)


def router_index(topology: Topology) -> Dict[str, BorderRouter]:
    """Router name -> router; raises on ambiguous names (the same
    contract the fault injector enforces)."""
    index: Dict[str, BorderRouter] = {}
    for router in topology.routers():
        if router.name in index:
            raise ScenarioError(
                f"ambiguous router name {router.name!r}"
            )
        index[router.name] = router
    return index


def domain_index(topology: Topology) -> Dict[str, Domain]:
    """Domain name -> domain."""
    return {domain.name: domain for domain in topology.domains}
