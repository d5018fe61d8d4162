"""Shared pytest options, the recompute-everything oracle and the
benchmark's W300 world."""

import contextlib
import logging
import random

import pytest

from repro.addressing.prefix import Prefix
from repro.bgmp.network import BgmpNetwork
from repro.bgp.network import BgpNetwork
from repro.bgp.speaker import BgpSpeaker
from repro.topology.generators import as_graph


def pytest_addoption(parser):
    parser.addoption(
        "--regen-golden",
        action="store_true",
        default=False,
        help="rewrite tests/scenarios/golden/*.json from this run "
             "instead of comparing against them",
    )


@pytest.fixture
def regen_golden(request):
    """True when the run should rewrite golden snapshots."""
    return request.config.getoption("--regen-golden")


@pytest.fixture(autouse=True)
def restore_repro_logger():
    """Put the ``repro`` logger back after each test. ``repro.cli.main``
    gives it a handler on the current (captured, later closed) stderr
    and stops propagation, which would hide every later test's records
    from ``caplog``."""
    logger = logging.getLogger("repro")
    saved = (logger.handlers[:], logger.level, logger.propagate)
    yield
    logger.handlers[:], logger.level, logger.propagate = saved


@contextlib.contextmanager
def recompute_everything(bgp=True, bgmp=True):
    """The differential oracle: inside the block the chosen layers
    recompute from scratch instead of trusting their dirty tracking.

    Driven purely through hooks the product has for its own callers:
    every speaker is marked through ``BgpNetwork.speaker_dirty`` (the
    hook a crashed speaker calls) — every key re-decided and
    re-exported — before each ``try_converge``; every speaker that
    receives an UPDATE, whatever it weighed, rescans every key
    (``BgpSpeaker.redecide_all``, announced through the
    ``decisions_due`` hook); and ``BgmpNetwork.grib_reset`` (what
    ``BgpNetwork.invalidate`` sends on a continuity loss) precedes each
    repair/refresh so it walks every tree. A key whose export equals
    the advertised table is still suppressed, so rounds,
    ``updates_sent``, digests, repair counters and delivery reports
    must equal the dirty-key engines' byte for byte.
    """
    converge = BgpNetwork.try_converge
    deliver = BgpSpeaker.deliver

    def try_converge(self, max_rounds=200):
        for speaker in self.speakers.values():
            self.speaker_dirty(speaker)
        return converge(self, max_rounds)

    def deliver_and_rescan(self, peer, update):
        deliver(self, peer, update)
        self.redecide_all()
        if self._listener is not None:
            self._listener.decisions_due(self)

    def walk_everything(method):
        def wrapper(self, *args, **kwargs):
            self.grib_reset()
            return method(self, *args, **kwargs)
        return wrapper

    with pytest.MonkeyPatch.context() as patch:
        if bgp:
            patch.setattr(BgpNetwork, "try_converge", try_converge)
            patch.setattr(BgpSpeaker, "deliver", deliver_and_rescan)
        if bgmp:
            for name in ("repair_trees", "refresh_trees"):
                method = getattr(BgmpNetwork, name)
                patch.setattr(BgmpNetwork, name, walk_everything(method))
        yield


def w300_world():
    """The benchmark's W300 world, converged with its members joined
    and one repair: the ``as_graph`` of 300 domains (topology seed
    1998), the covering 224/4 at domain 0, a /20 at each of domains
    1-24 with 24 groups under each, and two members per group in
    domains drawn from ``random.Random(0)``."""
    topology = as_graph(random.Random(1998), node_count=300)
    network = BgmpNetwork(
        topology,
        bgp=BgpNetwork(topology),
        migp_selector=lambda domain: "static",
        auto_unicast=False,
    )
    network.originate_group_range(topology.domains[0], Prefix(224 << 24, 4))
    for index in range(1, 25):
        network.originate_group_range(
            topology.domains[index], Prefix((224 << 24) | (index << 12), 20)
        )
    network.converge()
    rng, hosts = random.Random(0), 0
    for index in range(1, 25):
        for offset in range(24):
            for _ in range(2):
                hosts += 1
                domain = topology.domains[rng.randrange(300)]
                network.join(
                    domain.host(f"h{hosts}"),
                    (224 << 24) | (index << 12) | offset,
                )
    network.repair_trees()
    return topology, network
