"""The fault-run harness: seeded chaos as checkpointed segments.

Every fault run builds the Figure 3 + MASC world
(:meth:`SoakHarness.build_world`, a :class:`~repro.faults.world.World`
with members in F and H and the MASC tree MP → M1/M2 on the same
clock), draws a random :class:`~repro.faults.plan.FaultPlan` of
:data:`FIGURE3_CANDIDATES` per *segment* from one persistent random
stream, lets the world's injector apply and repair the faults on the
simulator clock under its sanitizer, and ends with the world's settle
step (:meth:`~repro.faults.world.World.settle`): a last recovery pass,
then the end checks the paper's protocols promise — trees rooted and
converged, loop-free, every member reachable, sibling claims disjoint.

A *chaos* run (``repro trace chaos``, ``repro serve run chaos``) is a
one-segment world with a recording sanitizer; a *soak* is a chain of
segments under a **raising** sanitizer with a
:class:`~repro.checkpoint.core.Checkpoint` of the entire world at
every segment boundary.

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
from typing import Dict, List, Optional, Tuple

from repro.checkpoint import core as ckpt
from repro.faults.plan import FaultCandidate, FaultPlan
from repro.faults.world import Probe, World
from repro.sanitizer.core import InvariantViolation
from repro.scenarios.fixtures import (
    FIGURE3_GROUP,
    figure3_bgmp_network,
    small_masc_tree,
)
from repro.sim.engine import Simulator
from repro.sim.randomness import RandomStreams

#: Survivable faults of the Figure 3 world: each link and router has
#: a redundant path, and the MASC nodes recover through failover and
#: restart.
FIGURE3_CANDIDATES = (
    FaultCandidate("link", "F1", group="F", peer="B2"),
    FaultCandidate("router", "F2", group="F"),
    FaultCandidate("link", "H2", group="H", peer="C2"),
    FaultCandidate("router", "H1", group="H"),
    FaultCandidate("masc", "M1", group="masc-M1"),
    FaultCandidate("masc", "M2", group="masc-M2"),
)

#: The most faults one segment can draw: one per candidate group.
MAX_FAULTS = len({candidate.group for candidate in FIGURE3_CANDIDATES})

#: Stream name all segment fault schedules draw from. One persistent
#: stream (checkpointed with the world) rather than a fresh
#: per-segment derivation, so a resumed segment re-draws exactly what
#: the crashed attempt drew.
FAULT_STREAM = "faults"

#: A segment's fault window opens this long after the segment starts
#: and spans this long; each fault is repaired this long after it
#: fires. (The injector's recovery pass follows a fault after its
#: default ``recovery_delay``, 1.0; the sanitizer checks after every
#: event.)
FAULT_START = 1.0
FAULT_WINDOW = 5.0
REPAIR_AFTER = 5.0
#: The shortest segment whose faults all fire and are repaired.
FAULT_REACH = FAULT_START + FAULT_WINDOW + REPAIR_AFTER

#: A chaos run's one segment. The world's MASC setup runs its clock
#: to 5.0, so a chaos run ends at 30.0.
CHAOS_SEGMENT_LENGTH = 25.0

#: Event name used by the CLI's --kill-at crash injection; resume
#: cancels any pending event with this name so a restored world does
#: not die again (the kill is a property of the crashed process, not
#: of the simulated world).
KILL_EVENT_NAME = "soak-kill"

_CKPT_RE = re.compile(r"^soak-seed(\d+)-seg(\d+)\.ckpt$")


@dataclass(frozen=True)
class SoakConfig:
    """Shape of one fault run. Checkpointed with the world, so a
    resume continues the run it joined, not the CLI's defaults."""

    seed: int = 0
    segments: int = 3
    segment_length: float = 30.0
    faults_per_segment: int = 2


@dataclass
class SoakResult:
    """Outcome of a completed soak chain."""

    segments: int
    fingerprint: Dict[str, object]
    recoveries: int
    faults: int
    log: List[Tuple[float, str]] = field(default_factory=list)


class SoakWorld(World):
    """The picklable unit of a fault run: the world plus its random
    streams, config and progress. Everything a segment needs lives
    here, so ``checkpoint.capture(world)`` is the whole story."""

    def __init__(
        self, streams: RandomStreams, config: SoakConfig, **world
    ):
        super().__init__(**world)
        self.streams = streams
        self.config = config
        #: Completed segments (the next segment to run is this index).
        self.segment = 0
        self.log: List[Tuple[float, str]] = []

    def fingerprint(self) -> Dict[str, object]:
        """The determinism fingerprint the acceptance contract
        compares: byte-identical across checkpointed, resumed, and
        uninterrupted executions of the same seed."""
        return {
            "time": self.sim.now,
            "events": self.sim.processed,
            "forwarding_digest": self.bgmp.forwarding_digest(),
            "rib_digest": self.bgmp.bgp.rib_digest(),
            "claim_tables": self.claim_tables(),
            "event_trace": [
                entry.render() for entry in self.sanitizer.trace()
            ],
            "faults": self.injector.faults_applied,
            "recoveries": len(self.injector.recoveries),
        }


class SoakHarness:
    """Builds, runs (and resumes) fault-run worlds segment by segment.

    ``out_dir`` receives the boundary checkpoints
    (``soak-seed<seed>-seg<n>.ckpt``) and any violation dumps. With
    ``out_dir=None`` the harness runs checkpoint-free — the chaos run,
    and the uninterrupted control arm in identity tests.
    """

    def __init__(
        self,
        config: Optional[SoakConfig] = None,
        out_dir: Optional[str] = None,
    ):
        self.config = config if config is not None else SoakConfig()
        self.out_dir = os.fspath(out_dir) if out_dir else None

    # ------------------------------------------------------------------
    # World lifecycle

    def build_world(self) -> SoakWorld:
        """A pristine world for this harness's config, under a
        raising sanitizer: the Figure 3 internetwork with members in
        F and H, probed from E, and a MASC tree (parent MP, siblings
        M1/M2) on the same clock. Every candidate fault is survivable
        by design."""
        sim = Simulator()
        network = figure3_bgmp_network(members=("F", "H"))
        overlay, parent, siblings = small_masc_tree(sim)
        domain = network.topology.domain
        return SoakWorld(
            RandomStreams(self.config.seed), self.config,
            sim=sim, bgmp=network, overlay=overlay,
            masc_nodes=[parent] + siblings, masc_siblings=[siblings],
            groups=(FIGURE3_GROUP,),
            probe=Probe(FIGURE3_GROUP, domain("E").host("s"),
                        (domain("F"), domain("H"))),
        )

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
        self._save_boundary(world)
        return self.run_world(world)

    def restore_world(
        self, checkpoint_path: Optional[str] = None
    ) -> Tuple[SoakWorld, str]:
        """Restore a boundary checkpoint (the latest one in
        ``out_dir`` when no path is given) with any ``--kill-at``
        disarmed; returns the world and the path it came from."""
        path = checkpoint_path or self.latest_checkpoint()
        if path is None:
            raise ckpt.CheckpointError(
                f"no soak checkpoint found in {self.out_dir!r}"
            )
        return _restored(ckpt.load(path), path), path

    def resume(self, checkpoint_path: Optional[str] = None) -> SoakResult:
        """Continue from a boundary checkpoint (see
        :meth:`restore_world`). The interrupted segment re-runs from
        its start; the redraw is identical because the fault stream's
        state was checkpointed with the world."""
        return self.resume_world(*self.restore_world(checkpoint_path))

    def resume_world(self, world: SoakWorld, path: str) -> SoakResult:
        """Continue ``world``, restored from the checkpoint at ``path``,
        as checkpointed (its own config, not this harness's)."""
        world.log.append(
            (world.sim.now, f"resumed segment {world.segment} from "
             f"{os.path.basename(path)}")
        )
        return self.run_world(world)

    def run_world(self, world: SoakWorld) -> SoakResult:
        """Run the remaining segments of ``world`` to completion."""
        while world.segment < world.config.segments:
            self.run_segment(world)
            self._save_boundary(world)
        return self._finish(world)

    # ------------------------------------------------------------------
    # Segments

    def run_segment(self, world: SoakWorld) -> FaultPlan:
        """One segment: draw the fault plan from the persistent
        stream, arm the violation dump with the boundary checkpoint
        this segment started from, and run to the segment's end.
        Returns the plan drawn (empty when the config draws none)."""
        config = world.config
        start = world.sim.now
        end = start + config.segment_length
        plan = FaultPlan()
        if config.faults_per_segment > 0:
            rng = world.streams.stream(FAULT_STREAM)
            plan = FaultPlan.random_schedule(
                rng,
                FIGURE3_CANDIDATES,
                n_faults=config.faults_per_segment,
                start=start + FAULT_START,
                window=FAULT_WINDOW,
                repair_after=REPAIR_AFTER,
            )
            scheduled = world.injector.schedule(plan)
            world.log.append(
                (start, f"segment {world.segment}: scheduled {scheduled} "
                 f"fault/recovery events")
            )
        self._arm_dump(world, "segment", end)
        world.sim.run(until=end)
        world.segment += 1
        world.log.append((world.sim.now, f"segment {world.segment} done"))
        return plan

    def _finish(self, world: SoakWorld) -> SoakResult:
        """Settle, run the end checks, and fingerprint."""
        self._arm_dump(world, "settle", world.sim.now)
        world.settle()
        fingerprint = world.fingerprint()
        world.log.append((world.sim.now, "soak complete"))
        return SoakResult(
            segments=world.segment,
            fingerprint=fingerprint,
            recoveries=len(world.injector.recoveries),
            faults=world.injector.faults_applied,
            log=list(world.log),
        )

    def _arm_dump(
        self, world: SoakWorld, phase: str, horizon: float
    ) -> None:
        """Point the violation dump at the boundary checkpoint the
        ``phase`` started from (when the harness writes files)."""
        if self.out_dir is not None:
            world.sanitizer.configure_dump(
                self.out_dir,
                checkpoint_path=self._boundary_path(world),
                context={"seed": world.config.seed,
                         "segment": world.segment, "phase": phase},
                replay_horizon=horizon,
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


def _restored(checkpoint: ckpt.Checkpoint, source: str) -> SoakWorld:
    """The :class:`SoakWorld` in ``checkpoint`` (read from
    ``source``), its ``--kill-at`` disarmed: the kill belongs to the
    crashed process, not to the simulated world."""
    world = ckpt.restore(checkpoint)
    if not isinstance(world, SoakWorld):
        raise ckpt.CheckpointError(
            f"{source}: checkpointed world is "
            f"{type(world).__name__}, not a SoakWorld"
        )
    SoakHarness._disarm_kill(world)
    return world


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
    raising mode with dumping disarmed, and re-runs what followed the
    checkpoint: the whole segment (redrawing its fault plan from the
    restored stream, as a resume does) when the violation came from
    one, else the clock to the dump's replay horizon plus the settle
    step when the violation came from the end checks. Returns the
    reproduced
    :class:`InvariantViolation`, or None when it did not reproduce —
    which a caller should treat as a determinism bug.
    """
    dump = ckpt.load_dump(path)
    if not dump.replayable:
        raise ckpt.CheckpointError(
            f"{path}: dump carries no checkpoint to replay from"
        )
    world = _restored(dump.checkpoint, path)
    sanitizer = world.sanitizer
    sanitizer.raise_on_violation = True
    sanitizer.violations.clear()
    sanitizer.configure_dump(None)
    phase = dump.context.get("phase")
    try:
        if phase == "segment":
            SoakHarness(world.config).run_segment(world)
        else:
            world.sim.run(until=dump.replay_until)
            if phase == "settle":
                world.settle()
    except InvariantViolation as violation:
        return violation
    return None
