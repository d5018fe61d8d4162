"""Unit tests for the BGP speaker's decision process."""

import pytest

from repro.addressing.prefix import Prefix
from repro.bgp.messages import UpdateMessage
from repro.bgp.routes import Route, RouteType
from repro.bgp.speaker import BgpSpeaker
from repro.topology.domain import Domain


PREFIX = Prefix.parse("226.0.0.0/16")


def _key(prefix):
    """The speaker's key for a group route of ``prefix``."""
    return (prefix.network, prefix.length, RouteType.GROUP)


def make_speaker():
    home = Domain(0, name="HOME")
    router = home.router("R1")
    return home, router, BgpSpeaker(router)


def external_route(peer_router, as_path, local_pref=100,
                   learned_from="peer"):
    return Route(
        PREFIX,
        RouteType.GROUP,
        peer_router,
        tuple(as_path),
        local_pref=local_pref,
        from_internal=False,
        learned_from=learned_from,
    )


def internal_route(exit_router, as_path, local_pref=100):
    return Route(
        PREFIX,
        RouteType.GROUP,
        exit_router,
        tuple(as_path),
        local_pref=local_pref,
        from_internal=True,
    )


class TestDecisionProcess:
    def test_local_origin_beats_everything(self):
        home, router, speaker = make_speaker()
        speaker.originate(PREFIX)
        peer = Domain(1, name="P").router("P1")
        speaker.receive(peer, external_route(peer, (1,), local_pref=999))
        speaker.recompute()
        best = speaker.loc_rib.get(RouteType.GROUP, PREFIX)
        assert best.is_local_origin

    def test_local_pref_beats_path_length(self):
        home, router, speaker = make_speaker()
        short = Domain(1, name="S").router("S1")
        long = Domain(2, name="L").router("L1")
        speaker.receive(short, external_route(short, (1,), local_pref=100))
        speaker.receive(long, external_route(
            long, (2, 3, 4), local_pref=300, learned_from="customer"
        ))
        speaker.recompute()
        best = speaker.loc_rib.get(RouteType.GROUP, PREFIX)
        assert best.next_hop is long  # customer route wins despite length

    def test_shorter_as_path_wins_at_equal_pref(self):
        home, router, speaker = make_speaker()
        a = Domain(1, name="A").router("A1")
        b = Domain(2, name="B").router("B1")
        speaker.receive(a, external_route(a, (1, 5, 6)))
        speaker.receive(b, external_route(b, (2, 5)))
        speaker.recompute()
        assert speaker.loc_rib.get(RouteType.GROUP, PREFIX).next_hop is b

    def test_ebgp_beats_ibgp(self):
        home, router, speaker = make_speaker()
        exit_router = home.router("R2")
        peer = Domain(1, name="P").router("P1")
        speaker.receive(exit_router, internal_route(exit_router, (9,)))
        speaker.receive(peer, external_route(peer, (9,)))
        speaker.recompute()
        best = speaker.loc_rib.get(RouteType.GROUP, PREFIX)
        assert not best.from_internal
        assert best.next_hop is peer

    def test_deterministic_tiebreak_lowest_domain(self):
        home, router, speaker = make_speaker()
        a = Domain(1, name="A").router("A1")
        b = Domain(2, name="B").router("B1")
        speaker.receive(b, external_route(b, (2,)))
        speaker.receive(a, external_route(a, (1,)))
        speaker.recompute()
        assert speaker.loc_rib.get(RouteType.GROUP, PREFIX).next_hop is a

    def test_loop_detection_drops_route(self):
        home, router, speaker = make_speaker()
        peer = Domain(1, name="P").router("P1")
        looped = external_route(peer, (1, 0, 5))  # 0 = HOME's id
        speaker.receive(peer, looped)
        speaker.recompute()
        assert speaker.loc_rib.get(RouteType.GROUP, PREFIX) is None

    def test_internal_routes_skip_loop_check(self):
        home, router, speaker = make_speaker()
        exit_router = home.router("R2")
        # iBGP routes legitimately carry paths that include... nothing
        # of ours, but the check must only apply to eBGP.
        speaker.receive(exit_router, internal_route(exit_router, (5,)))
        speaker.recompute()
        assert speaker.loc_rib.get(RouteType.GROUP, PREFIX) is not None

    def test_recompute_reports_change(self):
        home, router, speaker = make_speaker()
        peer = Domain(1, name="P").router("P1")
        assert not speaker.recompute()  # empty -> empty: no change
        speaker.receive(peer, external_route(peer, (1,)))
        assert speaker.recompute()
        assert not speaker.recompute()  # stable now

    def test_update_is_delivered_as_one_batch(self):
        """One UPDATE is one notice that decisions are due, and the
        speaker records exactly the keys whose best may move: a looped
        announcement withdraws what was held, and withdrawing a key
        never held changes nothing."""
        home, router, speaker = make_speaker()
        peer = Domain(1, name="P").router("P1")
        held = Prefix.parse("227.0.0.0/16")
        never = Prefix.parse("228.0.0.0/16")
        fresh = Prefix.parse("229.0.0.0/16")
        speaker.receive(peer, Route(held, RouteType.GROUP, peer, (1,)))
        speaker.receive(peer, external_route(peer, (1,)))
        speaker.recompute()
        notices = []

        class Listener:
            def decisions_due(self, due_speaker):
                notices.append(due_speaker)

        speaker._listener = Listener()
        announced = Route(fresh, RouteType.GROUP, peer, (1,))
        speaker.deliver(peer, UpdateMessage(
            announcements=[
                external_route(peer, (1, 0)),  # looped: withdraws PREFIX
                announced,
            ],
            withdrawals=[_key(held), _key(never)],
        ))
        assert notices == [speaker]
        # The withdrawn bests are rescanned, the new key is settled.
        assert speaker._pending == {
            _key(PREFIX): None,
            _key(held): None,
            _key(fresh): announced,
        }
        assert set(speaker.session_with(peer).keys()) == {_key(fresh)}

    def test_withdraw_origin(self):
        home, router, speaker = make_speaker()
        speaker.originate(PREFIX)
        speaker.recompute()
        assert speaker.withdraw_origin(PREFIX)
        assert not speaker.withdraw_origin(PREFIX)
        speaker.recompute()
        assert speaker.loc_rib.get(RouteType.GROUP, PREFIX) is None

    def test_grib_size_counts_group_routes_only(self):
        home, router, speaker = make_speaker()
        speaker.originate(PREFIX)
        speaker.originate(Prefix.parse("10.0.0.0/8"), RouteType.UNICAST)
        speaker.recompute()
        assert speaker.grib_size() == 1
