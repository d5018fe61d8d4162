"""What the bulk of a world's objects are made of, independent of the
interpreter's byte counts.

A W300 world holds thousands of forwarding entries and routes, so what
one of them costs is what the world costs: an entry carries no
per-instance ``__dict__``, and every route for one (prefix, type) holds
the same key tuple, whether originated, exported or looked up — also in
a world restored from a checkpoint.
"""

from repro.addressing.prefix import Prefix
from repro.bgp.routes import RouteType, key_for
from repro.checkpoint import core as ckpt
from tests.conftest import w300_world

GROUP_PREFIX = Prefix((224 << 24) | (1 << 12), 20)


def test_forwarding_entries_have_no_instance_dict():
    _topology, network = w300_world()
    entries = [
        entry
        for bgmp in network.bgmp_routers()
        for entry in bgmp.table.entries()
    ]
    assert entries
    assert not any(hasattr(entry, "__dict__") for entry in entries)


def test_routes_for_one_prefix_and_type_share_one_key():
    topology, network = w300_world()
    bgp = network.bgp
    origin = bgp.speaker(topology.domains[1].router())
    originated = origin.originate(GROUP_PREFIX, RouteType.GROUP)
    key = originated.key()
    learned = [
        (router, route)
        for router, speaker in bgp.speakers.items()
        for route in [speaker.loc_rib.best.get(key)]
        if route is not None and not route.from_internal
        and route.next_hop is not None
    ]
    assert learned
    router, remote = learned[0]
    ((exported_key, exported),) = bgp._exports(router, None, [(key, remote)])
    assert exported is not None and exported is not remote
    assert key_for(RouteType.GROUP, GROUP_PREFIX) is key
    assert exported_key is key and exported.key() is key
    assert all(route.key() is key for _router, route in learned)


def test_checkpoint_roundtrip_keeps_keys_and_rib_digest():
    _topology, network = w300_world()
    restored = ckpt.roundtrip(network)
    assert restored.bgp.rib_digest() == network.bgp.rib_digest()
    before = sorted(
        (router.name, sorted(speaker.loc_rib.best))
        for router, speaker in network.bgp.speakers.items()
    )
    after = sorted(
        (router.name, sorted(speaker.loc_rib.best))
        for router, speaker in restored.bgp.speakers.items()
    )
    assert after == before
    for speaker in restored.bgp.speakers.values():
        for key, route in speaker.loc_rib.best.items():
            assert route.key() == key
