"""A chaos run as the tests drive it: one segment of a soak world
(what ``repro trace chaos`` runs, untraced), its sanitizer recording
rather than raising, settled."""

from typing import Dict, Tuple

from repro.faults.plan import FaultPlan
from repro.faults.soak import (
    CHAOS_SEGMENT_LENGTH,
    SoakConfig,
    SoakHarness,
    SoakWorld,
)


def chaos_world(
    seed: int, faults: int = 2, check_every: int = 1
) -> Tuple[FaultPlan, SoakWorld]:
    """The plan drawn and the settled world of one chaos run."""
    harness = SoakHarness(SoakConfig(
        seed=seed, segments=1, segment_length=CHAOS_SEGMENT_LENGTH,
        faults_per_segment=faults,
    ))
    world = harness.build_world()
    world.sanitizer.raise_on_violation = False
    world.sanitizer.check_every = check_every
    plan = harness.run_segment(world)
    world.settle()
    return plan, world


def chaos_summary(seed: int, faults: int = 2) -> Dict[str, object]:
    """What two runs of one seed must agree on, picklable for
    ``parallel_map``."""
    plan, world = chaos_world(seed, faults)
    return {
        "schedule": plan.describe(),
        "violations": list(world.sanitizer.violations),
        "fingerprint": world.fingerprint(),
        "recoveries": list(world.injector.recoveries),
        "log": list(world.injector.log),
    }
