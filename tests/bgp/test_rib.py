"""Tests for Adj-RIB-In (a speaker's view of its peer's advertised
table) and Loc-RIB."""

import random

from repro.addressing.ipv4 import mask_bits, parse_address
from repro.addressing.prefix import Prefix
from repro.bgmp.network import BgmpNetwork
from repro.bgp.rib import LocRib
from repro.bgp.routes import Route, RouteType, key_for
from repro.bgp.speaker import BgpSpeaker
from repro.experiments.churn import group_prefix
from repro.topology.domain import Domain
from repro.topology.generators import as_graph
from tests.bgp._views import receive, received, send
from tests.conftest import recompute_everything


P16 = Prefix.parse("224.0.0.0/16")
P24 = Prefix.parse("224.0.128.0/24")


def route(prefix, route_type=RouteType.GROUP, hop=None):
    return Route(prefix, route_type, hop)


def _session():
    """A standalone speaker and the peer whose table it views."""
    speaker = BgpSpeaker(Domain(0, name="A").router("A1"))
    return speaker, Domain(1, name="B").router("B1")


class TestAdjRibIn:
    def test_update_replaces(self):
        speaker, peer = _session()
        receive(speaker, peer, Route(P24, RouteType.GROUP, peer, (1,)))
        receive(speaker, peer, Route(P24, RouteType.GROUP, peer, (1, 2)))
        assert len(received(speaker, peer)) == 1
        assert received(speaker, peer)[
            key_for(RouteType.GROUP, P24)
        ].as_path == (1, 2)

    def test_withdraw(self):
        speaker, peer = _session()
        key = key_for(RouteType.GROUP, P24)
        receive(speaker, peer, Route(P24, RouteType.GROUP, peer, (1,)))
        speaker.recompute()
        send(speaker, peer, withdrawals=[key])
        assert speaker._pending == {key: None}
        speaker.recompute()
        send(speaker, peer, withdrawals=[key])
        assert speaker._pending == {}
        assert len(received(speaker, peer)) == 0

    def test_get(self):
        speaker, peer = _session()
        receive(speaker, peer, Route(P24, RouteType.GROUP, peer, (1,)))
        view = received(speaker, peer)
        assert view.get(key_for(RouteType.GROUP, P24)) is not None
        assert view.get(key_for(RouteType.UNICAST, P24)) is None


class TestLocRib:
    def test_install_and_get(self):
        rib = LocRib()
        rib.install(route(P24))
        assert rib.get(RouteType.GROUP, P24) is not None
        assert len(rib) == 1

    def test_remove(self):
        rib = LocRib()
        rib.install(route(P24))
        assert rib.remove(RouteType.GROUP, P24)
        assert not rib.remove(RouteType.GROUP, P24)

    def test_group_routes_filtered_and_sorted(self):
        rib = LocRib()
        rib.install(route(P24))
        rib.install(route(P16))
        rib.install(route(P24, RouteType.UNICAST))
        groups = rib.group_routes()
        assert [r.prefix for r in groups] == [P16, P24]

    def test_longest_match(self):
        rib = LocRib()
        rib.install(route(P16))
        rib.install(route(P24))
        hit = rib.lookup(RouteType.GROUP, parse_address("224.0.128.1"))
        assert hit.prefix == P24
        hit = rib.lookup(RouteType.GROUP, parse_address("224.0.1.1"))
        assert hit.prefix == P16

    def test_lookup_miss(self):
        rib = LocRib()
        rib.install(route(P16))
        assert rib.lookup(RouteType.GROUP, parse_address("230.0.0.1")) is None

    def test_lookup_respects_type(self):
        rib = LocRib()
        rib.install(route(P16, RouteType.UNICAST))
        assert rib.lookup(RouteType.GROUP, parse_address("224.0.0.1")) is None
        assert rib.lookup(
            RouteType.UNICAST, parse_address("224.0.0.1")
        ) is not None

    def test_clear(self):
        rib = LocRib()
        rib.install(route(P16))
        rib.clear()
        assert len(rib) == 0


def _longest_covering(snapshot, route_type, address):
    """The reference lookup: scan every route of a Loc-RIB snapshot."""
    best = None
    for candidate in snapshot.values():
        prefix = candidate.prefix
        if candidate.route_type is route_type and prefix.contains_address(
            address
        ):
            if best is None or prefix.length > best.prefix.length:
                best = candidate
    return best


class TestLookupAgainstSnapshotScan:
    def test_flap_and_crash_schedule_on_as_graph(self):
        """After every step of a flap + crash/restore schedule, with
        every speaker recomputing every round, each speaker's indexed
        lookup equals a scan of its own table, for all three types."""
        topology = as_graph(random.Random(7), node_count=40)
        network = BgmpNetwork(topology)  # one UNICAST + MRIB /24 each
        network.originate_group_range(
            topology.domains[0], Prefix(224 << 24, 4)
        )
        for domain in topology.domains[1:13]:
            network.originate_group_range(
                domain, group_prefix(domain.domain_id)
            )
        rng = random.Random(11)
        probes = {
            RouteType.GROUP: [
                group_prefix(index).network + rng.randrange(1 << 12)
                for index in range(0, 16)
            ] + [225 << 24, 10 << 24],
        }
        probes[RouteType.UNICAST] = probes[RouteType.MRIB] = [
            BgmpNetwork.domain_unicast_prefix(domain).network + 1
            for domain in rng.sample(topology.domains, 12)
        ] + [(10 << 24) | (999 << 8), 224 << 24]
        transit = [d for d in topology.domains[13:] if d.customers]
        steps = []
        for domain in rng.sample(topology.domains[1:13], 3):
            prefix = group_prefix(domain.domain_id)
            steps.append((network.bgp.withdraw, domain.router(), prefix))
            steps.append((network.originate_group_range, domain, prefix))
        for domain in rng.sample(transit, 3):
            steps.append((network.bgp.fail_router, domain.router()))
            steps.append((network.bgp.restore_router, domain.router()))
        rng.shuffle(steps)

        checked = 0
        with recompute_everything():
            for mutate, *args in [(network.converge,)] + steps:
                mutate(*args)
                network.converge()
                for speaker in network.bgp.speakers.values():
                    snapshot = speaker.loc_rib.snapshot()
                    for route_type, addresses in probes.items():
                        for address in addresses:
                            assert speaker.loc_rib.lookup(
                                route_type, address
                            ) is _longest_covering(
                                snapshot, route_type, address
                            ), (speaker, route_type, hex(address))
                            checked += 1
        assert checked > 10_000


#: Addresses the random tables are built around: each length's prefix
#: of one of them, so many lengths cover the same probes.
BASES = (0xE0123456, 0x0A00FF01, 0xFFFFFFFF)


class TestLookupAgainstBruteForce:
    def test_random_install_remove_clear(self):
        """Random install / remove / clear over all three types and
        every mask length 0-32: after each step the table's own
        longest-match probe equals a scan of ``best``, and ``count``
        equals the keys of each type — including lengths whose last
        key went and came back."""
        pool = [
            (route_type, Prefix(base & mask_bits(length), length))
            for route_type in RouteType
            for base in BASES
            for length in range(33)
        ]
        probes = [
            base ^ flip
            for base in BASES
            for flip in (0, 1, 1 << 8, 1 << 20, 1 << 31)
        ]
        refilled = 0
        for seed in range(3):
            rng = random.Random(seed)
            rib = LocRib()
            seen, previous = set(), set()
            for _step in range(300):
                roll = rng.random()
                route_type, prefix = rng.choice(pool)
                if roll < 0.01:
                    rib.clear()
                elif roll < 0.45:
                    rib.remove(route_type, prefix)
                else:
                    rib.install(route(prefix, route_type))
                # (type, length) pairs present again after a gap.
                present = {(key[2], key[1]) for key in rib.best}
                refilled += len((present - previous) & seen)
                seen |= present
                previous = present
                for kind in RouteType:
                    assert rib.count(kind) == sum(
                        1 for key in rib.best if key[2] is kind
                    )
                    for address in probes:
                        assert rib.lookup(kind, address) is (
                            _longest_covering(rib.best, kind, address)
                        ), (seed, kind, hex(address))
        assert refilled > 100

    def test_last_key_of_a_length_goes_and_comes_back(self):
        rib = LocRib()
        rib.install(route(P16))
        specific = route(P24)
        rib.install(specific)
        address = parse_address("224.0.128.1")
        assert rib.remove(RouteType.GROUP, P24)
        assert rib.lookup(RouteType.GROUP, address).prefix == P16
        assert rib.count(RouteType.GROUP) == 1
        rib.install(specific)
        assert rib.lookup(RouteType.GROUP, address) is specific
        assert rib.count(RouteType.GROUP) == 2
