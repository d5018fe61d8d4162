"""Crash-resumable soak harness: week-long chaos as checkpointed segments.

The paper's architecture is explicitly long-running — MASC claims age
over days, BGMP trees live through continuous churn — but a one-shot
process run dies with its first crash or CI timeout. The soak harness
splits one long simulated chaos schedule into *segments*: each segment
draws a fault plan from a persistent random stream, runs it under a
**raising** :class:`~repro.sanitizer.core.InvariantSanitizer`, and writes a
:class:`~repro.checkpoint.core.Checkpoint` of the entire world at the
segment boundary.

Crash-resume semantics: kill the process anywhere mid-segment, then
:meth:`SoakHarness.resume` restores the last boundary checkpoint and
re-runs the interrupted segment from its start. Because the fault
stream's Mersenne state is part of the checkpoint, the re-drawn
segment schedule is identical, and because restore has continuation
identity (see :mod:`repro.checkpoint`), the completed chain's
fingerprints are byte-identical to a single uninterrupted run.

Time-travel debugging: each segment arms the sanitizer's violation
dump with the boundary checkpoint it started from, so an
``InvariantViolation`` writes a replayable dump —
:func:`replay_dump` (or ``python -m repro soak replay <dump>``)
restores the checkpoint and deterministically re-triggers the exact
violation.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.checkpoint import core as ckpt
from repro.faults.chaos import ChaosScenario
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.sanitizer.core import InvariantSanitizer, InvariantViolation
from repro.sim.randomness import RandomStreams

#: Stream name all segment fault schedules draw from. One persistent
#: stream (checkpointed with the world) rather than a fresh
#: per-segment derivation, so a resumed segment re-draws exactly what
#: the crashed attempt drew.
FAULT_STREAM = "soak-faults"

#: Event name used by the CLI's --kill-at crash injection; resume
#: cancels any pending event with this name so a restored world does
#: not die again (the kill is a property of the crashed process, not
#: of the simulated world).
KILL_EVENT_NAME = "soak-kill"

_CKPT_RE = re.compile(r"^soak-seed(\d+)-seg(\d+)\.ckpt$")


@dataclass(frozen=True)
class SoakConfig:
    """Shape of one soak run. Checkpointed with the world, so a
    resume continues the run it joined, not the CLI's defaults."""

    seed: int = 0
    segments: int = 3
    segment_length: float = 30.0
    faults_per_segment: int = 2
    fault_start: float = 1.0
    fault_window: float = 5.0
    repair_after: float = 5.0
    recovery_delay: float = 1.0
    check_every: int = 1


@dataclass
class SoakResult:
    """Outcome of a completed soak chain."""

    seed: int
    segments: int
    fingerprint: Dict[str, object]
    recoveries: int
    faults: int
    log: List[Tuple[float, str]] = field(default_factory=list)
    checkpoints: List[str] = field(default_factory=list)

    @property
    def forwarding_digest(self) -> str:
        return str(self.fingerprint.get("forwarding_digest", ""))

    def __repr__(self) -> str:
        return (
            f"SoakResult(seed={self.seed}, segments={self.segments}, "
            f"faults={self.faults}, "
            f"digest={self.forwarding_digest[:12]}…)"
        )


class SoakWorld:
    """The picklable unit of a soak run: scenario, injector, sanitizer,
    random streams, config, and progress. Everything a segment needs
    lives here, so ``checkpoint.capture(world)`` is the whole story."""

    def __init__(
        self,
        scenario: ChaosScenario,
        injector: FaultInjector,
        sanitizer: InvariantSanitizer,
        streams: RandomStreams,
        config: SoakConfig,
    ):
        self.scenario = scenario
        self.injector = injector
        self.sanitizer = sanitizer
        self.streams = streams
        self.config = config
        #: Completed segments (the next segment to run is this index).
        self.segment = 0
        self.log: List[Tuple[float, str]] = []

    @property
    def sim(self):
        return self.scenario.sim

    def fingerprint(self) -> Dict[str, object]:
        """The determinism fingerprint the acceptance contract
        compares: byte-identical across checkpointed, resumed, and
        uninterrupted executions of the same seed."""
        scenario = self.scenario
        bgmp = scenario.bgmp
        return {
            "time": self.sim.now,
            "events": self.sim.processed,
            "forwarding_digest": (
                bgmp.forwarding_digest() if bgmp is not None else ""
            ),
            "rib_digest": (
                bgmp.bgp.rib_digest() if bgmp is not None else ""
            ),
            "claim_tables": {
                node.name: [str(p) for p in node.claimed.prefixes()]
                for node in scenario.masc_nodes
            },
            "event_trace": [
                entry.render() for entry in self.sanitizer.trace()
            ],
            "faults": self.injector.faults_applied,
            "recoveries": len(self.injector.recoveries),
        }


class SoakHarness:
    """Runs (and resumes) segmented chaos soaks with checkpoints.

    ``scenario_factory`` builds the pristine world (defaulting to the
    figure-3 reference scenario); ``out_dir`` receives the boundary
    checkpoints (``soak-seed<seed>-seg<n>.ckpt``) and any violation
    dumps. With ``out_dir=None`` the harness runs checkpoint-free —
    useful as the uninterrupted control arm in identity tests.
    """

    def __init__(
        self,
        scenario_factory: Optional[Callable[[], ChaosScenario]] = None,
        config: Optional[SoakConfig] = None,
        out_dir: Optional[str] = None,
        on_world: Optional[Callable[[SoakWorld], None]] = None,
        on_boundary: Optional[
            Callable[[SoakWorld, Optional[str]], None]
        ] = None,
    ):
        if scenario_factory is None:
            from repro.faults.scenarios import figure3_chaos_scenario

            scenario_factory = figure3_chaos_scenario
        self._factory = scenario_factory
        self.config = config if config is not None else SoakConfig()
        self.out_dir = os.fspath(out_dir) if out_dir else None
        #: Serve-mode attach points. ``on_world(world)`` fires once
        #: per process with the live world (freshly built or restored)
        #: before any segment runs; ``on_boundary(world, path)`` fires
        #: at every segment boundary, after the checkpoint (if any)
        #: was written. Both must be read-only with respect to the
        #: world; observers they attach are checkpoint-transient (see
        #: Simulator.__getstate__), so boundary checkpoints are
        #: byte-equivalent to an unobserved run's.
        self.on_world = on_world
        self.on_boundary = on_boundary

    # ------------------------------------------------------------------
    # World lifecycle

    def build_world(self) -> SoakWorld:
        """A pristine world for this harness's config."""
        scenario = self._factory()
        config = self.config
        injector = FaultInjector(
            scenario.sim,
            bgmp=scenario.bgmp,
            masc_overlay=scenario.masc_overlay,
            masc_nodes=scenario.masc_nodes,
            recovery_delay=config.recovery_delay,
        )
        sanitizer = InvariantSanitizer(
            bgmp=scenario.bgmp,
            groups=(scenario.group,) if scenario.bgmp else (),
            masc_siblings=scenario.masc_siblings,
            check_every=config.check_every,
            raise_on_violation=True,
        ).attach(scenario.sim)
        streams = RandomStreams(config.seed)
        return SoakWorld(scenario, injector, sanitizer, streams, config)

    def run(self, kill_at: Optional[float] = None) -> SoakResult:
        """The full chain from a fresh world (writing a boundary
        checkpoint before each segment when ``out_dir`` is set).

        ``kill_at`` schedules a hard process death (``os._exit``) at
        that simulation time — the CI soak job's crash injection. The
        kill event is scheduled *before* the first boundary save so it
        rides along in checkpoints, and :meth:`resume` cancels it. A
        kill time before the world's start raises
        :class:`~repro.checkpoint.core.CheckpointError`: no boundary
        checkpoint could precede it.
        """
        world = self.build_world()
        if kill_at is not None:
            if kill_at < world.sim.now:
                raise ckpt.CheckpointError(
                    f"--kill-at {kill_at:g} is before the world's start "
                    f"time {world.sim.now:g}"
                )
            world.sim.schedule_at(
                kill_at, _hard_exit, name=KILL_EVENT_NAME
            )
        if self.on_world is not None:
            self.on_world(world)
        self._save_boundary(world)
        return self.run_world(world)

    def resume(self, checkpoint_path: Optional[str] = None) -> SoakResult:
        """Continue from a boundary checkpoint (the latest one in
        ``out_dir`` when no path is given). The interrupted segment
        re-runs from its start; the redraw is identical because the
        fault stream's state was checkpointed with the world."""
        if checkpoint_path is None:
            checkpoint_path = self.latest_checkpoint()
            if checkpoint_path is None:
                raise ckpt.CheckpointError(
                    f"no soak checkpoint found in {self.out_dir!r}"
                )
        world = ckpt.restore(ckpt.load(checkpoint_path))
        if not isinstance(world, SoakWorld):
            raise ckpt.CheckpointError(
                f"{checkpoint_path}: checkpointed world is "
                f"{type(world).__name__}, not a SoakWorld"
            )
        self._disarm_kill(world)
        world.log.append(
            (world.sim.now, f"resumed segment {world.segment} from "
             f"{os.path.basename(checkpoint_path)}")
        )
        if self.on_world is not None:
            self.on_world(world)
        return self.run_world(world)

    def run_world(self, world: SoakWorld) -> SoakResult:
        """Run the remaining segments of ``world`` to completion."""
        while world.segment < world.config.segments:
            self.run_segment(world)
            path = self._save_boundary(world)
            if self.on_boundary is not None:
                self.on_boundary(world, path)
        return self._finish(world)

    # ------------------------------------------------------------------
    # Segments

    def run_segment(self, world: SoakWorld) -> None:
        """One segment: draw the fault plan from the persistent
        stream, arm the violation dump with the boundary checkpoint
        this segment started from, and run to the segment's end."""
        config = world.config
        start = world.sim.now
        end = start + config.segment_length
        if config.faults_per_segment > 0:
            rng = world.streams.stream(FAULT_STREAM)
            plan = FaultPlan.random_schedule(
                rng,
                world.scenario.candidates,
                n_faults=config.faults_per_segment,
                start=start + config.fault_start,
                window=config.fault_window,
                repair_after=config.repair_after,
            )
            scheduled = world.injector.schedule(plan)
            world.log.append(
                (start, f"segment {world.segment}: scheduled {scheduled} "
                 f"fault/recovery events")
            )
        if self.out_dir is not None:
            world.sanitizer.configure_dump(
                self.out_dir,
                checkpoint_path=self._boundary_path(world),
                context={
                    "seed": config.seed,
                    "segment": world.segment,
                    "phase": "segment",
                },
                replay_horizon=end,
            )
        world.sim.run(until=end)
        world.segment += 1
        world.log.append((world.sim.now, f"segment {world.segment} done"))

    def _finish(self, world: SoakWorld) -> SoakResult:
        """Settle, run the quiescence checks, and fingerprint."""
        if self.out_dir is not None:
            world.sanitizer.configure_dump(
                self.out_dir,
                checkpoint_path=self._boundary_path(world),
                context={
                    "seed": world.config.seed,
                    "segment": world.segment,
                    "phase": "settle",
                },
                replay_horizon=world.sim.now,
            )
        if world.scenario.bgmp is not None:
            world.injector.recover()
            world.sanitizer.check_converged()
        fingerprint = world.fingerprint()
        world.log.append((world.sim.now, "soak complete"))
        return SoakResult(
            seed=world.config.seed,
            segments=world.segment,
            fingerprint=fingerprint,
            recoveries=len(world.injector.recoveries),
            faults=world.injector.faults_applied,
            log=list(world.log),
            checkpoints=self.checkpoint_paths(),
        )

    # ------------------------------------------------------------------
    # Checkpoint files

    def _boundary_path(self, world: SoakWorld) -> Optional[str]:
        if self.out_dir is None:
            return None
        return os.path.join(
            self.out_dir,
            f"soak-seed{world.config.seed}-seg{world.segment}.ckpt",
        )

    def _save_boundary(self, world: SoakWorld) -> Optional[str]:
        if self.out_dir is None:
            return None
        os.makedirs(self.out_dir, exist_ok=True)
        path = self._boundary_path(world)
        ckpt.save(
            ckpt.capture(world, label=f"soak segment {world.segment}"),
            path,
        )
        return path

    def checkpoint_paths(self) -> List[str]:
        """All boundary checkpoints in ``out_dir``, by segment order."""
        if self.out_dir is None or not os.path.isdir(self.out_dir):
            return []
        found = []
        for name in os.listdir(self.out_dir):
            match = _CKPT_RE.match(name)
            if match:
                found.append(
                    (int(match.group(1)), int(match.group(2)), name)
                )
        return [
            os.path.join(self.out_dir, name)
            for _, _, name in sorted(found)
        ]

    def latest_checkpoint(self) -> Optional[str]:
        """The highest-segment boundary checkpoint in ``out_dir``."""
        paths = self.checkpoint_paths()
        return paths[-1] if paths else None

    @staticmethod
    def _disarm_kill(world: SoakWorld) -> None:
        """Cancel any pending --kill-at events restored from the
        checkpoint (cancelled-timer compaction drops them from the
        next boundary snapshot)."""
        for _, _, event in world.sim._heap:
            if event.name == KILL_EVENT_NAME and not event.cancelled:
                event.cancel()


def _hard_exit() -> None:
    """Die like a crash: no cleanup, no atexit, exit code 137 (the
    SIGKILL convention). Used by the CLI's ``--kill-at`` to exercise
    real crash-resume, not a graceful shutdown."""
    os._exit(137)


# ----------------------------------------------------------------------
# Replay


def replay_dump(path: str) -> Optional[InvariantViolation]:
    """Deterministically re-trigger the violation a dump recorded.

    Restores the dump's checkpoint, puts the restored sanitizer in
    raising mode with dumping disarmed, and re-runs to the dump's
    replay horizon (plus the settle pass when the violation came from
    the quiescence checks). Returns the reproduced
    :class:`InvariantViolation`, or None when it did not reproduce —
    which a caller should treat as a determinism bug.
    """
    dump = ckpt.load_dump(path)
    if not dump.replayable:
        raise ckpt.CheckpointError(
            f"{path}: dump carries no checkpoint to replay from"
        )
    world = ckpt.restore(dump.checkpoint)
    if not isinstance(world, SoakWorld):
        raise ckpt.CheckpointError(
            f"{path}: dumped world is {type(world).__name__}, "
            "not a SoakWorld"
        )
    sanitizer = world.sanitizer
    sanitizer.raise_on_violation = True
    sanitizer.violations.clear()
    sanitizer.configure_dump(None)
    SoakHarness._disarm_kill(world)
    try:
        world.sim.run(until=dump.replay_until)
        if dump.context.get("phase") == "settle":
            if world.scenario.bgmp is not None:
                world.injector.recover()
            sanitizer.check_converged()
    except InvariantViolation as violation:
        return violation
    return None
