"""The decision process per change: a delivered route is weighed
against the installed best at once, and a key's Adj-RIB-Ins are
rescanned only when that best leaves.

A speaker driven through random deliveries, looped announcements,
withdrawals, session drops, origin flaps and crashes, settling only
the decisions it recorded as due, must hold the Loc-RIB a decision
from scratch over its tables selects — after every batch of changes,
not only at the end."""

import random

import pytest

from repro.addressing.prefix import Prefix
from repro.bgp.messages import UpdateMessage
from repro.bgp.routes import Route, RouteType
from repro.bgp.speaker import BgpSpeaker
from repro.topology.domain import Domain

PREFIXES = [Prefix.parse(f"226.{index}.0.0/16") for index in range(4)]
KEYS = [
    (prefix.network, prefix.length, RouteType.GROUP) for prefix in PREFIXES
]


class Listener:
    """Counts the speaker's notices that decisions are due."""

    def __init__(self):
        self.notices = 0

    def decisions_due(self, _speaker):
        self.notices += 1

    def speaker_dirty(self, speaker):
        self.notices += 1

    def origins_changed(self, _speaker, _key):
        pass

    def key_lost(self, _speaker, _key):
        pass

    def grib_moved(self, _speaker, _prefix, _kind):
        pass


def _speaker():
    home = Domain(0, name="HOME")
    speaker = BgpSpeaker(home.router("R1"))
    listener = speaker._listener = Listener()
    peer_domain = Domain(1, name="P")
    peers = [
        peer_domain.router("P1"),
        peer_domain.router("P2"),
        Domain(2, name="Q").router("Q1"),
        home.router("R2"),
    ]
    return speaker, listener, peers


def _route(key, peer, as_path, local_pref=100):
    return Route(
        Prefix(key[0], key[1]),
        key[2],
        peer,
        as_path,
        local_pref=local_pref,
        from_internal=peer.domain.domain_id == 0,
    )


def _random_route(rng, key, peer):
    """A route ``peer`` might announce under ``key``; about one in five
    external ones carries the receiver's own domain (looped)."""
    as_path = (peer.domain.domain_id,) + tuple(
        rng.sample((5, 6, 7, 8), rng.randrange(3))
    )
    if peer.domain.domain_id and rng.random() < 0.2:
        as_path += (0,)
    return _route(key, peer, as_path, rng.choice((80, 100, 300)))


def _rescanned(speaker):
    """The Loc-RIB a decision from scratch over every table selects."""
    origins = {route.key(): route for route in speaker.origins()}
    selected = {}
    for key in KEYS:
        learned = [
            route
            for peer in speaker.peers()
            if (route := speaker.session_with(peer).routes.get(key))
            is not None
        ]
        if key in origins:
            selected[key] = origins[key]
        elif learned:
            selected[key] = min(learned, key=speaker._rank)
    return selected


def _mutate(rng, speaker, peers):
    kind = rng.random()
    peer = rng.choice(peers)
    if kind < 0.75:
        update = UpdateMessage()
        for key in rng.sample(KEYS, rng.randrange(1, len(KEYS) + 1)):
            if rng.random() < 0.7:
                update.announcements.append(_random_route(rng, key, peer))
            else:
                update.withdrawals.append(key)
        speaker.deliver(peer, update)
    elif kind < 0.85:
        speaker.drop_session(peer)
    elif kind < 0.92:
        speaker.originate(rng.choice(PREFIXES))
    elif kind < 0.99:
        speaker.withdraw_origin(rng.choice(PREFIXES))
    else:
        speaker.reset()


@pytest.mark.parametrize("seed", range(40))
def test_due_decisions_settle_what_a_full_rescan_selects(seed):
    rng = random.Random(seed)
    speaker, _listener, peers = _speaker()
    for _ in range(60):
        for _ in range(rng.randrange(1, 4)):
            _mutate(rng, speaker, peers)
        before = speaker.loc_rib.snapshot()
        moved = speaker.recompute()
        after = speaker.loc_rib.snapshot()
        assert after == _rescanned(speaker)
        assert moved == [
            key for key in KEYS if before.get(key) != after.get(key)
        ]


def _settled(speaker, peer, route):
    speaker.receive(peer, route)
    speaker.recompute()
    return speaker.loc_rib.best.get(route.key())


def test_a_worse_route_leaves_nothing_due():
    speaker, listener, (a, _a2, b, _internal) = _speaker()
    key = KEYS[0]
    best = _route(key, a, (1,), local_pref=300)
    assert _settled(speaker, a, best) is best
    notices = listener.notices
    speaker.receive(b, _route(key, b, (2, 5)))
    assert speaker._pending == {}
    assert listener.notices == notices
    assert speaker.session_with(b).routes[key].next_hop is b


def test_a_better_route_is_settled_without_a_rescan():
    speaker, _listener, (a, _a2, b, _internal) = _speaker()
    key = KEYS[0]
    _settled(speaker, a, _route(key, a, (1, 5)))
    better = _route(key, b, (2,))
    speaker.receive(b, better)
    assert speaker._pending == {key: better}
    speaker._adj_in.clear()  # a rescan would now find nothing
    assert speaker.recompute() == [key]
    assert speaker.loc_rib.best[key] is better


def test_the_best_leaving_is_rescanned():
    speaker, _listener, (a, _a2, b, _internal) = _speaker()
    key = KEYS[0]
    _settled(speaker, b, _route(key, b, (2, 5, 6)))
    best = _route(key, a, (1,))
    assert _settled(speaker, a, best) is best
    speaker.deliver(a, UpdateMessage(withdrawals=[key]))
    assert speaker._pending == {key: None}
    speaker.recompute()
    assert speaker.loc_rib.best[key].next_hop is b


def test_a_session_drop_rescans_only_the_keys_it_held_the_best_for():
    speaker, _listener, (a, _a2, b, _internal) = _speaker()
    won, lost = KEYS[:2]
    speaker.receive(a, _route(won, a, (1,)))
    speaker.receive(a, _route(lost, a, (1, 5, 6, 7)))
    for key in (won, lost):
        speaker.receive(b, _route(key, b, (2, 5)))
    speaker.recompute()
    assert speaker.loc_rib.best[won].next_hop is a
    assert speaker.loc_rib.best[lost].next_hop is b
    assert speaker.drop_session(a)
    assert speaker._pending == {won: None}
    assert speaker.recompute() == [won]
    assert speaker.loc_rib.best[won].next_hop is b
