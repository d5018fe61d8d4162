"""Runtime protocol-invariant sanitizer.

:class:`InvariantSanitizer` is the dynamic counterpart of the static
determinism linter (``repro.lint``): an opt-in runtime checker, in the
spirit of ThreadSanitizer, that attaches to the simulator's event loop
and validates cross-layer protocol invariants after every executed
event. It has global visibility the protocol entities themselves lack
— it can compare sibling MASC claim tables, walk every BGMP upstream
pointer, and read the BGP G-RIB — so it catches the moment an
invariant breaks rather than the eventual downstream symptom.

Two classes of checks:

* **Safety checks** run after every event (subject to ``check_every``)
  because they must hold at all times, even mid-fault:

  - *Sibling claim disjointness* — confirmed claims of sibling MASC
    nodes carving up a parent range never intersect (section 4.1's
    claim-collide correctness property).
  - *G-RIB coverage* — every confirmed claim of a bound MASC entity is
    covered by a group route originated by its domain (the MASC →
    BGP hand-off of section 2 never lags a confirmation).
  - *Loop-free trees* — following BGMP upstream pointers from any
    on-tree router terminates without revisiting a router
    (bidirectional trees stay trees through teardown and re-join).

* **Quiescence checks** (:meth:`InvariantSanitizer.check_converged`)
  only hold after recovery has run, so callers invoke them explicitly
  at settle points: every tree is *rooted in the covering domain* (the
  upstream walk ends in the domain originating the group's covering
  route), no entry holds a dangling upstream pointer, and crashed
  routers hold no forwarding state. Mid-fault these are legitimately
  violated — a LinkDown orphans entries (``upstream = None``) until
  the repair pass re-anchors them — which is why they are not safety
  checks.

A failed check raises :class:`InvariantViolation` carrying the recent
event trace (a bounded ring buffer of executed events), so the report
names both the broken invariant and the events that led up to it.
"""

from __future__ import annotations

import os
from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, List, Optional, Sequence, Set, Tuple

from repro.sim.engine import Event, Simulator


@dataclass(frozen=True)
class TraceEntry:
    """One executed event, as remembered by the sanitizer."""

    index: int
    time: float
    label: str

    def render(self) -> str:
        """``#42 t=3.50 handler`` — one line of an event trace."""
        return f"#{self.index} t={self.time:g} {self.label}"


class InvariantViolation(Exception):
    """A protocol invariant failed while the sanitizer was attached.

    Carries the invariant name, the specific violations, the
    simulation time, and the trailing event trace (oldest first).
    """

    def __init__(
        self,
        invariant: str,
        details: Sequence[str],
        time: float,
        trace: Sequence[TraceEntry] = (),
        spans: Sequence = (),
    ):
        self.invariant = invariant
        self.details = list(details)
        self.time = time
        self.trace = tuple(trace)
        #: Open tracer spans at violation time (the in-flight protocol
        #: transactions) — attached when the sanitizer has a tracer.
        self.spans = tuple(spans)
        super().__init__(self.render())

    def render(self) -> str:
        """Multi-line sanitizer report."""
        lines = [
            f"invariant '{self.invariant}' violated at t={self.time:g}:"
        ]
        lines.extend(f"  - {detail}" for detail in self.details)
        if self.trace:
            lines.append("  event trace (oldest first):")
            lines.extend(f"    {entry.render()}" for entry in self.trace)
        if self.spans:
            lines.append("  open spans (in-flight transactions):")
            lines.extend(f"    {span.render()}" for span in self.spans)
        return "\n".join(lines)


def _event_label(event: Event) -> str:
    label = event.name or getattr(
        event.callback, "__qualname__", ""
    ) or getattr(event.callback, "__name__", "callback")
    if event.args:
        rendered = ", ".join(repr(a) for a in event.args)
        return f"{label}({rendered})"
    return label


def check_no_overlapping_claims(
    sibling_groups: Sequence[Sequence],
) -> List[str]:
    """Sibling claims within a parent range never intersect."""
    details: List[str] = []
    for siblings in sibling_groups:
        for i, node_a in enumerate(siblings):
            for node_b in siblings[i + 1:]:
                for prefix_a in node_a.claimed.prefixes():
                    for prefix_b in node_b.claimed.prefixes():
                        if prefix_a.overlaps(prefix_b):
                            details.append(
                                f"sibling claims overlap: "
                                f"{node_a.name}:{prefix_a} vs "
                                f"{node_b.name}:{prefix_b}"
                            )
    return details


def check_loop_free_trees(bgmp, group: int) -> List[str]:
    """Upstream walks from every on-tree router of ``group`` terminate.

    A walk that reaches a router whose own walk ended without a loop
    ends there too: the rest of its chain is that walk's. So each
    chain is walked once; a walk that finds a loop is reported as
    such, whatever walks came before it."""
    details: List[str] = []
    loop_free: Set = set()
    for start in bgmp.tree_routers(group):
        visited = {start}
        current, looped = start, None
        while current not in loop_free:
            entry = bgmp.router_of(current).table.get(group)
            if entry is None or entry.upstream is None:
                break
            current = entry.upstream
            if current in visited:
                looped = current
                break
            visited.add(current)
        if looped is None:
            loop_free |= visited
        else:
            details.append(
                f"upstream loop through {looped.name} "
                f"from {start.name} for group {group:#x}"
            )
    return details


def check_members_reachable(
    bgmp, group: int, source, member_domains
) -> List[str]:
    """A probe from ``source`` must reach every member domain exactly
    once (a traced ``bgmp.send``, so it shows in a run's spans)."""
    report = bgmp.send(source, group)
    details = [
        f"member domain {domain.name} unreached"
        for domain in member_domains
        if not report.reached(domain)
    ]
    if report.duplicates:
        details.append(f"{report.duplicates} duplicate deliveries")
    return details


class InvariantSanitizer:
    """Event-loop-attached checker of cross-layer protocol invariants.

    Opt-in: nothing in the protocol stack pays for it unless a caller
    attaches an instance to a :class:`Simulator`. Configure it with
    whichever layers the scenario exercises; unset layers are skipped.

    :param bgmp: a :class:`~repro.bgmp.network.BgmpNetwork` (or
        compatible) for tree checks, or None.
    :param groups: group addresses whose trees are checked.
    :param masc_siblings: groups of sibling MASC nodes (each an
        iterable of nodes with ``name`` and ``claimed.prefixes()``)
        whose confirmed claims must stay pairwise disjoint.
    :param claim_bindings: ``(masc_entity, domain)`` pairs tying a
        claim table to the domain expected to originate its claims
        into the G-RIB (requires ``bgmp``).
    :param check_every: run the safety checks every N-th event (1 =
        every event; larger values trade detection latency for speed).
    :param trace_depth: events kept in the trace ring buffer.
    :param raise_on_violation: raise :class:`InvariantViolation`
        immediately (the TSan-style default), or record violations in
        :attr:`violations` and keep running (what a chaos run and a
        soak attach use, so a run's full verdict survives).
    """

    def __init__(
        self,
        bgmp=None,
        groups: Sequence[int] = (),
        masc_siblings: Sequence[Sequence] = (),
        claim_bindings: Sequence[Tuple[object, object]] = (),
        check_every: int = 1,
        trace_depth: int = 16,
        raise_on_violation: bool = True,
        tracer=None,
    ):
        if check_every < 1:
            raise ValueError("check_every must be >= 1")
        #: Optional tracer whose open spans get attached to violations
        #: (what protocol transactions were in flight when it broke).
        self.tracer = tracer
        self.bgmp = bgmp
        self.groups = tuple(groups)
        self.masc_siblings = tuple(tuple(g) for g in masc_siblings)
        self.claim_bindings = tuple(claim_bindings)
        self.check_every = check_every
        self.raise_on_violation = raise_on_violation
        self._trace: Deque[TraceEntry] = deque(maxlen=trace_depth)
        self._sim: Optional[Simulator] = None
        self._events_seen = 0
        self.checks_run = 0
        #: Violations recorded in non-raising mode, as rendered strings.
        self.violations: List[str] = []
        #: Violation-dump wiring (see :meth:`configure_dump`): with a
        #: dump directory set, every violation — raised or recorded —
        #: first writes a replayable ViolationDump next to the nearest
        #: prior checkpoint.
        self.dump_dir: Optional[str] = None
        self.dump_checkpoint_path: Optional[str] = None
        self.dump_context: Dict[str, object] = {}
        self.replay_horizon: Optional[float] = None
        #: Paths of dumps written so far, in order.
        self.dumps: List[str] = []
        #: Violation listeners (see :meth:`add_listener`). Process-
        #: local observers — dropped from checkpoints, because a
        #: listener is a property of the observing process (a serve
        #: sink, a test probe), not of the simulated world.
        self._listeners: List[Callable[["InvariantViolation"], None]] = []

    # ------------------------------------------------------------------
    # Lifecycle

    def attach(self, sim: Simulator) -> "InvariantSanitizer":
        """Hook the simulator's event loop; returns self for chaining."""
        if self._sim is not None:
            raise RuntimeError("sanitizer is already attached")
        self._sim = sim
        sim.add_observer(self._on_event)
        return self

    def detach(self) -> None:
        """Unhook from the simulator (no-op when not attached)."""
        if self._sim is not None:
            self._sim.remove_observer(self._on_event)
            self._sim = None

    @property
    def attached(self) -> bool:
        """True while hooked into a simulator."""
        return self._sim is not None

    def trace(self) -> List[TraceEntry]:
        """The remembered event trail, oldest first."""
        return list(self._trace)

    # ------------------------------------------------------------------
    # Violation listeners (live streaming; see repro.serve)

    def add_listener(
        self, listener: Callable[["InvariantViolation"], None]
    ) -> "InvariantSanitizer":
        """Register a callback invoked with every violation this
        sanitizer reports — *before* it is raised or recorded, so
        raising mode still streams. Listeners must be read-only with
        respect to the simulated world; they exist so a telemetry
        sink can observe violations without changing how the run
        reacts to them. Registering twice is a no-op; returns self.
        """
        if listener not in self._listeners:
            self._listeners.append(listener)
        return self

    def remove_listener(
        self, listener: Callable[["InvariantViolation"], None]
    ) -> None:
        """Unregister a violation listener (no-op when absent)."""
        if listener in self._listeners:
            self._listeners.remove(listener)

    # ------------------------------------------------------------------
    # Checkpoint support: listeners are process-local (often bound to
    # thread primitives in the serve layer) and must not ride into a
    # pickled world. Everything else round-trips as-is; see the
    # SNAPSHOT_REGISTRY entry in repro.checkpoint.registry.

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state["_listeners"] = []
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        # Worlds checkpointed before listeners existed restore cleanly.
        self.__dict__.setdefault("_listeners", [])

    # ------------------------------------------------------------------
    # Violation dumps (time-travel debugging; see repro.checkpoint)

    def configure_dump(
        self,
        directory: Optional[str],
        checkpoint_path: Optional[str] = None,
        context: Optional[Dict[str, object]] = None,
        replay_horizon: Optional[float] = None,
    ) -> "InvariantSanitizer":
        """Arm (or with ``directory=None``, disarm) violation dumping.

        With a directory set, any violation this sanitizer reports —
        whether raised or recorded — first writes a
        :class:`~repro.checkpoint.core.ViolationDump` there, pairing the
        violation and its event window with the checkpoint at
        ``checkpoint_path`` (the nearest checkpoint *before* the
        violation; loaded lazily at dump time, so arming costs
        nothing). ``replay_horizon`` is the clock time a replay must
        run to in order to re-trigger the violation (the soak harness
        keeps it at the current segment's end); it defaults to the
        violation time itself. The wiring is plain data (paths, not
        callables), so an armed sanitizer still checkpoints cleanly.
        """
        self.dump_dir = os.fspath(directory) if directory else None
        self.dump_checkpoint_path = (
            os.fspath(checkpoint_path) if checkpoint_path else None
        )
        self.dump_context = dict(context) if context else {}
        self.replay_horizon = replay_horizon
        return self

    def _write_dump(self, violation: "InvariantViolation") -> None:
        from repro.checkpoint import core as ckpt

        nearest = None
        if self.dump_checkpoint_path and os.path.exists(
            self.dump_checkpoint_path
        ):
            nearest = ckpt.load(self.dump_checkpoint_path)
        dump = ckpt.ViolationDump(
            invariant=violation.invariant,
            details=tuple(violation.details),
            time=violation.time,
            trace=tuple(entry.render() for entry in violation.trace),
            replay_until=(
                self.replay_horizon
                if self.replay_horizon is not None
                else violation.time
            ),
            checkpoint=nearest,
            context=dict(self.dump_context),
        )
        os.makedirs(self.dump_dir, exist_ok=True)
        name = (
            f"violation-t{violation.time:g}-{violation.invariant}"
            f"-{len(self.dumps)}.dump"
        )
        path = os.path.join(self.dump_dir, name)
        ckpt.save_dump(dump, path)
        self.dumps.append(path)

    # ------------------------------------------------------------------
    # Event hook

    def _on_event(self, event: Event) -> None:
        self._events_seen += 1
        self._trace.append(
            TraceEntry(
                index=self._events_seen,
                time=event.time,
                label=_event_label(event),
            )
        )
        if self._events_seen % self.check_every:
            return
        self.checks_run += 1
        self.report(
            "claim-disjointness",
            check_no_overlapping_claims(self.masc_siblings),
        )
        self.report("grib-coverage", self._check_grib_coverage())
        self.check_loop_free()

    def check_loop_free(self) -> None:
        """Report every upstream loop in the checked groups' trees."""
        if self.bgmp is not None:
            self.report("loop-free-trees", [
                detail
                for group in self.groups
                for detail in check_loop_free_trees(self.bgmp, group)
            ])

    def report(self, invariant: str, details: List[str]) -> None:
        """Report ``details`` (if any) as a violation of ``invariant``:
        listeners first, then the dump when armed, then raise or
        record. The event hook and the quiescence checks report
        through here, and so do the end checks of a fault run."""
        if not details:
            return
        now = self._sim.now if self._sim is not None else float("nan")
        spans = (
            self.tracer.active_spans() if self.tracer is not None else ()
        )
        violation = InvariantViolation(
            invariant, details, now, self.trace(), spans=spans
        )
        for listener in tuple(self._listeners):
            listener(violation)
        if self.dump_dir is not None:
            self._write_dump(violation)
        if self.raise_on_violation:
            raise violation
        self.violations.append(violation.render())

    # ------------------------------------------------------------------
    # Safety checks (must hold after every event, even mid-fault)

    def _check_grib_coverage(self) -> List[str]:
        """Every active claim of a bound entity has a covering group
        route originated by its domain."""
        if self.bgmp is None or not self.claim_bindings:
            return []
        details: List[str] = []
        for entity, domain in self.claim_bindings:
            origins = self.bgmp.bgp.domain_origins(domain)
            for claim in entity.claimed.prefixes():
                if not any(o.contains(claim) for o in origins):
                    details.append(
                        f"claim {claim} of {entity.name} has no "
                        f"covering group route from {domain.name} "
                        f"(origins: {origins})"
                    )
        return details

    # ------------------------------------------------------------------
    # Quiescence checks (valid only once recovery has settled)

    def check_converged(self) -> List[str]:
        """Invariants of the settled system; call after the final
        recovery pass, never mid-fault.

        Checks that every tree is rooted in the domain originating the
        group's covering route, that no upstream pointer dangles at a
        router without matching state, and that crashed routers hold no
        forwarding entries. Returns (and, in raising mode, raises on)
        the violations found.
        """
        details: List[str] = []
        if self.bgmp is not None:
            for group in self.groups:
                details.extend(self._check_rooted(group))
            details.extend(self._check_crashed_state_wiped())
        self.report("converged-trees", details)
        return details

    def _check_rooted(self, group: int) -> List[str]:
        root_domain = self.bgmp.root_domain_of(group)
        if root_domain is None:
            return []
        details: List[str] = []
        for start in self.bgmp.tree_routers(group):
            visited = {start}
            current = start
            while True:
                entry = self.bgmp.router_of(current).table.get(group)
                if entry is None:
                    details.append(
                        f"dangling upstream: walk from {start.name} "
                        f"reached {current.name}, which holds no "
                        f"(*,G) state for group {group:#x}"
                    )
                    break
                if entry.upstream is None:
                    if current.domain is not root_domain:
                        details.append(
                            f"tree for group {group:#x} terminates at "
                            f"{current.name} in {current.domain.name}, "
                            f"not in covering domain {root_domain.name}"
                        )
                    break
                current = entry.upstream
                if current in visited:
                    # Already reported by the loop-free safety check;
                    # stop the walk rather than spin.
                    break
                visited.add(current)
        return details

    def _check_crashed_state_wiped(self) -> List[str]:
        details: List[str] = []
        for router in self.bgmp.bgp.down_routers():
            held = len(self.bgmp.router_of(router).table)
            if held:
                details.append(
                    f"crashed router {router.name} still holds "
                    f"{held} forwarding entries"
                )
        return details

    def __repr__(self) -> str:
        state = "attached" if self.attached else "detached"
        return (
            f"InvariantSanitizer({state}, events={self._events_seen}, "
            f"checks={self.checks_run}, "
            f"violations={len(self.violations)})"
        )
