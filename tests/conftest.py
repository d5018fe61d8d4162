"""Shared pytest options and the recompute-everything oracle."""

import contextlib
import logging

import pytest

from repro.bgmp.network import BgmpNetwork
from repro.bgp.network import BgpNetwork
from repro.bgp.speaker import BgpSpeaker


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
