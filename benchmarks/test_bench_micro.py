"""Micro-benchmarks of the hot data structures.

Unlike the figure benches (single-shot experiment reproductions),
these are conventional timed benchmarks of the operations everything
else is built on: prefix-trie allocation, longest-match G-RIB lookup,
BFS shortest paths, and the BGP decision process.
"""

import random

from repro.addressing.allocator import PrefixAllocator
from repro.addressing.prefix import MULTICAST_SPACE, Prefix
from repro.bgp.rib import LocRib
from repro.bgp.routes import Route, RouteType
from repro.topology.domain import Domain
from repro.topology.generators import as_graph


def test_bench_micro_trie_claim_release(benchmark):
    def claim_release_cycle():
        allocator = PrefixAllocator(
            MULTICAST_SPACE, rng=random.Random(1)
        )
        claimed = [allocator.claim(20) for _ in range(64)]
        for prefix in claimed:
            allocator.release(prefix)
        return allocator

    result = benchmark(claim_release_cycle)
    assert result.utilized() == 0


def test_bench_micro_grib_longest_match(benchmark):
    rib = LocRib()
    rng = random.Random(2)
    domain = Domain(1, name="X")
    hop = domain.router("X1")
    prefixes = set()
    while len(prefixes) < 256:
        length = rng.randint(8, 24)
        network = rng.randrange(1 << length) << (32 - length)
        network |= 0xE0000000
        network &= 0xFFFFFFFF
        try:
            prefixes.add(Prefix(network & ~((1 << (32 - length)) - 1),
                                length))
        except ValueError:
            continue
    for prefix in sorted(prefixes):
        rib.install(Route(prefix, RouteType.GROUP, hop, (1,)))
    probes = [rng.randrange(0xE0000000, 0xF0000000) for _ in range(100)]

    def lookup_all():
        return sum(
            1 for address in probes if rib.lookup(RouteType.GROUP, address)
        )

    hits = benchmark(lookup_all)
    assert 0 <= hits <= len(probes)


def test_bench_micro_bfs_shortest_paths(benchmark):
    topology = as_graph(random.Random(3), node_count=1000)
    domains = topology.domains
    rng = random.Random(4)
    pairs = [tuple(rng.sample(domains, 2)) for _ in range(50)]

    def distances():
        topology._invalidate_caches()
        return sum(topology.distance(a, b) for a, b in pairs)

    total = benchmark(distances)
    assert total > 0


def test_bench_micro_bgp_decision(benchmark):
    from repro.bgp.speaker import BgpSpeaker

    home = Domain(0, name="H")
    speaker = BgpSpeaker(home.router("R1"))
    rng = random.Random(5)
    peers = [
        Domain(i + 1, name=f"P{i}").router(f"P{i}")
        for i in range(8)
    ]
    for index in range(200):
        prefix = Prefix((0xE1000000 + index * 256) & 0xFFFFFF00, 24)
        for peer in peers:
            speaker.receive(
                peer,
                Route(
                    prefix,
                    RouteType.GROUP,
                    peer,
                    tuple(
                        rng.sample(range(1, 50), rng.randint(1, 4))
                    ),
                    local_pref=rng.choice((100, 200, 300)),
                ),
            )

    def decide():
        speaker.loc_rib.clear()
        return speaker.recompute()

    benchmark(decide)
    assert speaker.grib_size() == 200
