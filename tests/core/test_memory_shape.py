"""What the bulk of a world's objects are made of, independent of the
interpreter's byte counts.

A W300 world holds thousands of forwarding entries and routes, so what
one of them costs is what the world costs: an entry carries no
per-instance ``__dict__``, and every route for one (prefix, type) holds
the same key tuple, whether originated, exported or looked up — also in
a world restored from a checkpoint. What a session carries is held
once: a receiver's Adj-RIB-In is its sender's advertised table, equal
AS paths are one tuple, and child lists are tuples. These are counts,
so they do not move with the interpreter the way RSS or
``gc.get_objects()`` do.
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


def _copies(bgmp):
    """(views, advertised tables, AS-path objects, distinct AS paths,
    list-typed child lists, list-typed update-group caches) of a
    world."""
    bgp = bgmp.bgp
    speakers = bgp.speakers.values()
    groups = [g for terms in bgp._groups.values() for g in terms.values()]
    tables = [g.table for g in groups] + list(bgp._advertised.values())
    views = [view for s in speakers for view in s._adj_in.values()]
    routes = [
        route
        for table in (
            *tables, *views,
            *(s.loc_rib.best for s in speakers),
            *(s._origins for s in speakers),
        )
        for route in table.values()
    ]
    paths = {id(route.as_path): route.as_path for route in routes}
    entries = [e for r in bgmp.bgmp_routers() for e in r.table.entries()]
    cached = [
        part
        for classes in bgp._sessions.values()
        for part in (classes, *(private for _t, _g, private in classes))
    ] + [g.members for g in groups]
    return (
        {id(view) for view in views},
        {id(table) for table in tables},
        len(paths),
        len(set(paths.values())),
        sum(not isinstance(entry.children, tuple) for entry in entries),
        sum(not isinstance(part, tuple) for part in cached),
    )


def test_what_a_session_carries_is_held_once():
    _topology, network = w300_world()
    for world in (network, ckpt.roundtrip(network)):
        views, tables, path_objects, paths, child_lists, caches = _copies(
            world
        )
        assert views == tables and len(tables) == 1458
        assert path_objects == paths == 2535
        assert child_lists == 0
        assert caches == 0


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
