"""``repro serve --attach``: join a running soak at a segment boundary.

A soak chain (:mod:`repro.faults.soak`) writes a full-world checkpoint
at every segment boundary. Attaching does **not** touch the soaking
process: it restores the latest boundary checkpoint into a *private*
copy of the world, wires a fresh tracer and telemetry sink into the
copy, and runs the next segment(s) locally while the hub streams what
happens. The soak directory is strictly read-only here — the shadow
harness runs with ``out_dir=None``, so no checkpoint, dump, or any
other file is written — which is why attach/detach cannot perturb the
real chain's resume identity: the chain never learns it happened.

Because checkpoint restore has continuation identity, the attached
copy re-runs exactly the segments the real chain runs (same fault
stream state, same schedule, same fingerprint), so what the hub shows
is what the soak is doing — a few segments ahead of live, not an
approximation of it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.faults.soak import SoakHarness, SoakWorld
from repro.trace.profiler import EventLoopProfiler
from repro.trace.tracer import Tracer

from .runner import OnSources, RunOutcome
from .snapshots import ServeSources


@dataclass
class AttachOptions:
    """Everything ``serve attach`` needs."""

    soak_dir: str
    checkpoint: Optional[str] = None   # explicit .ckpt path
    segments: Optional[int] = None     # None = run the chain out


def load_attached_world(options: AttachOptions) -> SoakWorld:
    """Restore a private world copy from the latest (or named)
    boundary checkpoint, disarmed and in non-raising mode."""
    world, _ = SoakHarness(out_dir=options.soak_dir).restore_world(
        options.checkpoint
    )
    # The soaking process owns raising and dumping; the attached copy
    # only reports.
    world.sanitizer.raise_on_violation = False
    world.sanitizer.configure_dump(None)
    return world


def attach_serve(
    options: AttachOptions, on_sources: OnSources = None
) -> RunOutcome:
    """Restore, instrument, run segment(s), fingerprint.

    With an ``on_sources`` hook (``serve attach`` passes a
    :class:`~repro.serve.runner.ServeHook`) the copy gets a tracer and
    a profiler and the hook sees its sources before the first segment
    runs. Without one this is the control arm: the identical restore
    and segment run, uninstrumented — its fingerprint must byte-match
    the served one.
    """
    world = load_attached_world(options)
    tracer: Optional[Tracer] = None
    profiler: Optional[EventLoopProfiler] = None
    if on_sources is not None:
        tracer = world.trace()
        profiler = EventLoopProfiler().attach(world.sim)
        on_sources(ServeSources.from_world(
            world, "soak-attach", world.config.seed,
            tracer=tracer, profiler=profiler,
        ))
    # Shadow harness: same config as the chain, but out_dir=None — it
    # can never write into the real soak directory.
    shadow = SoakHarness(config=world.config, out_dir=None)
    remaining = world.config.segments - world.segment
    to_run = (
        remaining
        if options.segments is None
        else min(options.segments, remaining)
    )
    for _ in range(max(to_run, 0)):
        shadow.run_segment(world)
    if profiler is not None:
        profiler.detach()
    return RunOutcome(
        fingerprint=dict(world.fingerprint()),
        violations=list(world.sanitizer.violations),
        tracer=tracer,
        profiler=profiler,
    )
