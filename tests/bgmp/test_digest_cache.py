"""The cached forwarding digest must always match the reference.

``forwarding_digest`` caches per-router digest lines against each
table's mutation version; ``forwarding_digest_uncached`` recomputes
from scratch. Any mutation path that forgets to bump the version —
entry creation/removal, in-place parent or upstream rewrites, child
set edits — would make the two diverge, so this suite drives every
mutation source (joins, leaves, repairs, root flaps, router faults)
— with dirty-set repairs and with the walk-everything oracle of
``tests/conftest.py`` — and checks the differential after each step.
Both paths stream one router's encoded block at a time into the hash;
the bytes hashed are those of one newline join over every router's
lines, which the last tests pin.
"""

import hashlib
import random
import tracemalloc

import pytest

from repro.experiments.churn import (
    ChurnConfig,
    build_network,
    build_schedule,
    build_topology,
    group_prefix,
)
from tests.conftest import recompute_everything, w300_world

CONFIG = ChurnConfig(
    domains=40,
    group_domains=5,
    groups_per_domain=4,
    churn_per_phase=25,
    phases=2,
    maintain_every=5,
)


def _build_network() -> tuple:
    topology = build_topology(CONFIG, seed=0)
    network = build_network(CONFIG, topology)
    network.converge()
    return topology, network


@pytest.fixture(params=[True, False])
def walk_everything(request):
    """Repairs walk every tree (the oracle) or only dirty groups."""
    with recompute_everything(bgp=False, bgmp=request.param):
        yield request.param


def test_digest_matches_reference_through_churn(walk_everything):
    topology, network = _build_network()
    schedule = build_schedule(CONFIG, seed=0)

    def check():
        assert network.forwarding_digest() == (
            network.forwarding_digest_uncached()
        )

    check()
    for event in schedule:
        kind = event[0]
        if kind == "join":
            _kind, domain_index, group, host = event
            network.join(
                topology.domains[domain_index].host(host), group
            )
        elif kind == "leave":
            _kind, domain_index, group, host = event
            network.leave(
                topology.domains[domain_index].host(host), group
            )
        elif kind == "send":
            _kind, domain_index, group = event
            network.send(
                topology.domains[domain_index].host("src"), group
            )
        elif kind == "repair":
            network.repair_trees()
        else:  # flap: withdraw + restore exercises tree migration
            _kind, domain_index = event
            domain = topology.domains[domain_index]
            prefix = group_prefix(domain.domain_id)
            network.bgp.withdraw(domain.router(), prefix)
            network.converge()
            network.repair_trees()
            check()
            network.originate_group_range(domain, prefix)
            network.converge()
            network.repair_trees()
        check()


def test_digest_tracks_router_faults():
    topology, network = _build_network()
    rng = random.Random(4)
    members = []
    groups = [
        (224 << 24) | (index << 12) | offset
        for index in range(1, 1 + CONFIG.group_domains)
        for offset in range(CONFIG.groups_per_domain)
    ]
    for serial, group in enumerate(groups):
        domain = topology.domains[rng.randrange(CONFIG.domains)]
        host = domain.host(f"h{serial}")
        network.join(host, group)
        members.append((host, group))
    network.repair_trees()
    assert network.forwarding_digest() == (
        network.forwarding_digest_uncached()
    )
    router = topology.domains[10].router()
    network.bgp.fail_router(router)
    network.converge()
    network.repair_trees()
    assert network.forwarding_digest() == (
        network.forwarding_digest_uncached()
    )
    network.bgp.restore_router(router)
    network.converge()
    network.repair_trees()
    assert network.forwarding_digest() == (
        network.forwarding_digest_uncached()
    )


def test_in_place_entry_mutation_invalidates_cache():
    """Rewriting an entry's parent in place (no create/remove) must
    change the cached digest — the bug class the table version's
    _touch() hook exists for."""
    topology, network = _build_network()
    group = (224 << 24) | (1 << 12)
    host = topology.domains[20].host("m")
    network.join(host, group)
    network.repair_trees()
    before = network.forwarding_digest()
    bgmp = next(
        b for b in network.bgmp_routers() if len(b.table) > 0
    )
    (entry,) = [
        e for e in bgmp.table.entries() if e.group == group
    ][:1] or [None]
    assert entry is not None
    original = entry.parent
    entry.parent = None if original is not None else bgmp.router
    after = network.forwarding_digest()
    assert after != before
    assert after == network.forwarding_digest_uncached()
    entry.parent = original
    assert network.forwarding_digest() == before


def _joined_lines_digest(network) -> str:
    """SHA-256 of every router's digest lines in one newline join: the
    serialization the digest streams without building."""
    lines = [
        line
        for router in network._router_order
        for line in network._digest_lines(router)
    ]
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


def test_streamed_digest_hashes_the_joined_lines():
    """Routers without entries add no bytes, at either end of the order
    too; after a join that grows one branch, the two rebuilt blocks and
    every other router's cached one still hash the joined bytes."""
    topology, network = _build_network()
    group = (224 << 24) | (1 << 12)
    network.join(topology.domains[20].host("m"), group)
    network.repair_trees()
    tables = [
        network.router_of(router).table for router in network._router_order
    ]
    assert len(tables[0]) == len(tables[-1]) == 0
    assert sum(1 for table in tables if len(table)) > 1

    def check():
        expected = _joined_lines_digest(network)
        assert network.forwarding_digest() == expected
        assert network.forwarding_digest_uncached() == expected

    check()
    versions = [table.version for table in tables]
    network.join(topology.domains[22].host("m"), group)
    changed = [
        table for table, version in zip(tables, versions)
        if table.version != version
    ]
    assert 0 < len(changed) <= 2
    assert len(tables[0]) == len(tables[-1]) == 0
    check()


def test_reference_digest_streams_router_by_router():
    """On W300 the uncached digest holds one router's block at a time,
    not the serialized data plane (about 2 MiB there)."""
    _topology, network = w300_world()
    tracemalloc.start()
    try:
        network.forwarding_digest_uncached()
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 256 * 1024, peak
