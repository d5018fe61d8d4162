"""Chaos harness: randomized fault schedules + recovery invariants.

A chaos run builds a fresh scenario, draws a seeded random fault
schedule over its declared candidates, lets the injector apply and
repair the faults on the simulator clock, and then checks the
post-recovery invariants the paper's protocols promise:

* **No overlapping confirmed claims** — MASC siblings never end up
  holding intersecting address ranges (section 4.1's correctness
  property, which claim-collide plus the waiting period maintains
  even across loss and crashes).
* **Loop-free trees** — following BGMP upstream pointers from any
  on-tree router terminates at a root, never cycles (bidirectional
  trees stay trees through teardown and re-join).
* **All members reachable** — once recovery has run, a probe packet
  reaches every member domain that survived the fault.

Runs are reproducible: the schedule derives from the seed via the
repo's named random streams, so the same seed always produces the
same faults, the same log, and the same verdict.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.faults.injector import FaultInjector, RecoveryRecord
from repro.faults.plan import FaultCandidate, FaultPlan
from repro.sanitizer.core import (
    InvariantSanitizer,
    check_loop_free_trees,
    check_no_overlapping_claims,
)
from repro.sim.engine import Simulator
from repro.sim.randomness import RandomStreams
from repro.trace.metrics import collect_metrics
from repro.trace.tracer import Tracer


# ----------------------------------------------------------------------
# Invariant checks (each returns a list of violation strings; the
# claim and loop checks are the sanitizer's own)


def check_members_reachable(
    bgmp, group: int, source, member_domains
) -> List[str]:
    """A probe from ``source`` must reach every member domain."""
    report = bgmp.send(source, group)
    violations = []
    for domain in member_domains:
        if not report.reached(domain):
            violations.append(f"member domain {domain.name} unreached")
    if report.duplicates:
        violations.append(f"{report.duplicates} duplicate deliveries")
    return violations


# ----------------------------------------------------------------------
# Scenario and result containers


@dataclass
class ChaosScenario:
    """Everything one chaos run needs: the live components, the fault
    candidates to draw from, and the membership to verify after."""

    sim: Simulator
    candidates: Sequence[FaultCandidate]
    bgmp: Optional[object] = None
    group: int = 0
    source: Optional[object] = None
    member_domains: Sequence = ()
    masc_overlay: Optional[object] = None
    masc_nodes: Sequence = ()
    masc_siblings: Sequence[Sequence] = ()
    horizon: float = 30.0


@dataclass
class ChaosResult:
    """Outcome of one seeded chaos run."""

    seed: int
    schedule: List[str]
    violations: List[str]
    recoveries: List[RecoveryRecord] = field(default_factory=list)
    log: List[Tuple[float, str]] = field(default_factory=list)
    #: Determinism fingerprints (populated by sanitized runs): events
    #: executed, final per-node MASC claim tables, and the SHA-256 of
    #: the full BGMP forwarding state. Two runs of the same seed must
    #: agree on all three.
    events: int = 0
    claim_tables: Dict[str, List[str]] = field(default_factory=dict)
    forwarding_digest: str = ""
    #: Populated by traced runs (``ChaosHarness(trace=True)``): the
    #: run's tracer (full span record) and its metrics store — both
    #: deterministic per seed.
    tracer: Optional[Tracer] = None
    metrics: Optional[object] = None

    @property
    def ok(self) -> bool:
        """True when every post-recovery invariant held."""
        return not self.violations

    def __repr__(self) -> str:
        status = "ok" if self.ok else f"{len(self.violations)} violations"
        return (
            f"ChaosResult(seed={self.seed}, "
            f"faults={len(self.schedule)}, {status})"
        )


class ChaosHarness:
    """Runs seeded randomized fault schedules against fresh scenarios.

    ``scenario_factory`` builds a pristine scenario per run (chaos
    runs must not share mutated state); faults per run, placement
    window, and repair delay parameterize the schedule.

    With ``sanitize=True`` every run executes under an
    :class:`~repro.sanitizer.core.InvariantSanitizer` attached to the
    scenario's simulator: safety invariants are checked after every
    ``check_every``-th event (not just post-recovery), any breakage is
    recorded into the result's violations with its event trace, and
    the quiescence checks run after the settling pass. Sanitized
    results also carry determinism fingerprints (event count, claim
    tables, forwarding digest).
    """

    def __init__(
        self,
        scenario_factory,
        n_faults: int = 1,
        start: float = 1.0,
        window: float = 5.0,
        repair_after: float = 5.0,
        recovery_delay: float = 1.0,
        sanitize: bool = False,
        check_every: int = 1,
        trace: bool = False,
    ):
        self._factory = scenario_factory
        self.n_faults = n_faults
        self.start = start
        self.window = window
        self.repair_after = repair_after
        self.recovery_delay = recovery_delay
        self.sanitize = sanitize
        self.check_every = check_every
        #: With ``trace=True`` each run gets a fresh Tracer wired into
        #: every layer the scenario exercises, and the result carries
        #: the tracer plus a unified metrics snapshot. Traces derive
        #: only from the schedule and simulation clock, so they are
        #: byte-identical across same-seed runs.
        self.trace = trace

    def run(self, seed: int, on_world=None) -> ChaosResult:
        """One seeded run: schedule, inject, recover, check.

        ``on_world(scenario, tracer, injector, sanitizer)``, when
        given, is invoked once everything is wired but before the
        simulator runs — the attachment point for live observers
        (the serve-mode telemetry sink). The callback must be
        read-only with respect to the world; attaching one must not
        change the run's fingerprint.
        """
        scenario = self._factory()
        tracer: Optional[Tracer] = None
        if self.trace:
            tracer = Tracer().bind_clock(scenario.sim)
            if scenario.bgmp is not None:
                scenario.bgmp.tracer = tracer
                scenario.bgmp.bgp.tracer = tracer
            for node in scenario.masc_nodes:
                node.tracer = tracer
        rng = RandomStreams(seed).stream("faults")
        # The fault window opens ``start`` after whatever setup time
        # the scenario factory already consumed on its clock.
        plan = FaultPlan.random_schedule(
            rng,
            scenario.candidates,
            n_faults=self.n_faults,
            start=scenario.sim.now + self.start,
            window=self.window,
            repair_after=self.repair_after,
        )
        injector = FaultInjector(
            scenario.sim,
            bgmp=scenario.bgmp,
            masc_overlay=scenario.masc_overlay,
            masc_nodes=scenario.masc_nodes,
            recovery_delay=self.recovery_delay,
            tracer=tracer,
        )
        injector.schedule(plan)
        sanitizer: Optional[InvariantSanitizer] = None
        if self.sanitize:
            sanitizer = InvariantSanitizer(
                bgmp=scenario.bgmp,
                groups=(scenario.group,) if scenario.bgmp else (),
                masc_siblings=scenario.masc_siblings,
                check_every=self.check_every,
                raise_on_violation=False,
                tracer=tracer,
            ).attach(scenario.sim)
        if on_world is not None:
            on_world(scenario, tracer, injector, sanitizer)
        try:
            scenario.sim.run(until=scenario.horizon)
        finally:
            if sanitizer is not None:
                sanitizer.detach()
        violations: List[str] = []
        if sanitizer is not None:
            violations.extend(sanitizer.violations)
        if scenario.bgmp is not None:
            # One settling pass after the horizon: late repairs (e.g.
            # a restart near the end) still deserve their recovery.
            injector.recover()
            if sanitizer is not None:
                sanitizer.violations.clear()
                violations.extend(sanitizer.check_converged())
            violations.extend(
                check_loop_free_trees(scenario.bgmp, scenario.group)
            )
            if scenario.source is not None:
                violations.extend(
                    check_members_reachable(
                        scenario.bgmp,
                        scenario.group,
                        scenario.source,
                        scenario.member_domains,
                    )
                )
        if scenario.masc_siblings:
            violations.extend(
                check_no_overlapping_claims(scenario.masc_siblings)
            )
        claim_tables = {
            node.name: [str(p) for p in node.claimed.prefixes()]
            for node in scenario.masc_nodes
        }
        digest = (
            scenario.bgmp.forwarding_digest()
            if scenario.bgmp is not None
            and hasattr(scenario.bgmp, "forwarding_digest")
            else ""
        )
        metrics = None
        if tracer is not None:
            metrics = collect_metrics(
                masc_nodes=scenario.masc_nodes,
                bgp=(
                    scenario.bgmp.bgp
                    if scenario.bgmp is not None
                    else None
                ),
                bgmp=scenario.bgmp,
                overlay=scenario.masc_overlay,
                injector=injector,
            )
        return ChaosResult(
            seed=seed,
            schedule=plan.describe(),
            violations=violations,
            recoveries=list(injector.recoveries),
            log=list(injector.log),
            events=scenario.sim.processed,
            claim_tables=claim_tables,
            forwarding_digest=digest,
            tracer=tracer,
            metrics=metrics,
        )
