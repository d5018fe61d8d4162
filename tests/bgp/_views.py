"""A speaker's Adj-RIB-Ins from the test side.

A :class:`~repro.bgp.speaker.BgpSpeaker` holds no copy of what a peer
advertised: its view of a session is the peer's advertised table, read
in place, and the loop check runs where the view is read.
:func:`send` plays the peer of a standalone speaker (patch the table,
then deliver the changes); :func:`received` is what a view offers the
decision process.
"""

from repro.bgp.speaker import BgpSpeaker


def send(speaker: BgpSpeaker, peer, announcements=(), withdrawals=()):
    """Play ``peer``: patch the table it advertises to ``speaker``
    (a fresh one when the speaker holds no view of the session) and
    deliver the changes as one UPDATE, announcements first."""
    table = speaker._adj_in.get(peer, {})
    changes = []
    for route in announcements:
        key = route.key()
        changes.append((key, table.get(key), route))
        table[key] = route
    for key in withdrawals:
        changes.append((key, table.pop(key, None), None))
    speaker.deliver(peer, table, changes)


def receive(speaker: BgpSpeaker, peer, route):
    """Deliver one route announced by ``peer``."""
    send(speaker, peer, [route])


def received(speaker: BgpSpeaker, peer):
    """The routes ``speaker`` may select from its view of ``peer``'s
    session: the view minus the external routes whose AS path holds
    the speaker's domain."""
    domain_id = speaker.router.domain.domain_id
    return {
        key: route
        for key, route in speaker._adj_in.get(peer, {}).items()
        if route.from_internal or not route.has_loop(domain_id)
    }


def _selectable(table, receiver):
    domain_id = receiver.domain.domain_id
    return {
        key: route
        for key, route in table.items()
        if route.from_internal or not route.has_loop(domain_id)
    }


def _live_sessions(network):
    for sender in network.speakers:
        for receiver in network._peers(sender):
            if network.session_up(sender, receiver):
                yield sender, receiver, network.speakers[receiver]


def sender_table(network, sender, receiver):
    """The table ``sender`` diffs for its session to ``receiver``: its
    update group's, else its private one (``None``: none yet)."""
    for group in network._groups.get(sender, {}).values():
        if receiver in group.members:
            return group.table
    return network._advertised.get((sender, receiver))


def assert_views_hold(network):
    """Every live session's receiver reads the very table its sender
    diffs (or none while the sender has advertised nothing there), and
    may select exactly that table's routes but those whose AS path
    holds its domain."""
    for sender, receiver, speaker in _live_sessions(network):
        table = sender_table(network, sender, receiver)
        view = speaker._adj_in.get(sender)
        assert view is table or view is None and not table, (
            sender, receiver
        )
        assert received(speaker, sender) == _selectable(
            table or {}, receiver
        ), (sender, receiver)


def assert_delivered_views_hold(network):
    """For :class:`~repro.bgp.events.EventDrivenBgp` at quiescence:
    every live session's receiver reads the session's delivered table,
    which holds what the sender's advertised table holds."""
    for sender, receiver, speaker in _live_sessions(network):
        delivered = network._delivered.get((sender, receiver))
        view = speaker._adj_in.get(sender)
        assert view is delivered or view is None and not delivered, (
            sender, receiver
        )
        advertised = network._advertised.get((sender, receiver), {})
        assert (delivered or {}) == advertised, (sender, receiver)
        assert received(speaker, sender) == _selectable(
            advertised, receiver
        ), (sender, receiver)
