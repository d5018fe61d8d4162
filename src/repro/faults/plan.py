"""Fault schedules: what breaks, when, and what heals it.

A :class:`FaultPlan` is an ordered list of typed fault events, each
stamped with a simulation time. Plans are plain data — they name
their targets by string (router name, MASC node name, link endpoint
pair) so they can be built, printed, and compared without touching
live network objects; the injector resolves names when it applies
them.

Randomized plans are generated from an explicit ``random.Random`` so
a chaos run is reproducible from its seed alone. Every candidate
fault carries a *group* key (by default the failing component's
domain): a random schedule never draws two faults from the same
group, so a "double fault" cannot trivially disconnect a multihomed
domain by killing both of its exits at once.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Sequence, Tuple


@dataclass(frozen=True)
class Fault:
    """Base fault event: something happens at ``time``."""

    time: float

    def describe(self) -> str:
        return f"{type(self).__name__}@{self.time:g}"


@dataclass(frozen=True)
class LinkDown(Fault):
    """An inter-domain BGP session goes down."""

    a: str = ""
    b: str = ""

    def describe(self) -> str:
        return f"link-down {self.a}-{self.b} @{self.time:g}"


@dataclass(frozen=True)
class LinkUp(Fault):
    """A previously failed session comes back."""

    a: str = ""
    b: str = ""

    def describe(self) -> str:
        return f"link-up {self.a}-{self.b} @{self.time:g}"


@dataclass(frozen=True)
class RouterCrash(Fault):
    """A border router crashes (BGP withdrawn, BGMP state wiped)."""

    router: str = ""

    def describe(self) -> str:
        return f"crash {self.router} @{self.time:g}"


@dataclass(frozen=True)
class RouterRestart(Fault):
    """A crashed border router comes back up."""

    router: str = ""

    def describe(self) -> str:
        return f"restart {self.router} @{self.time:g}"


@dataclass(frozen=True)
class MascCrash(Fault):
    """A MASC node crashes (timers lost, traffic blackholed)."""

    node: str = ""

    def describe(self) -> str:
        return f"masc-crash {self.node} @{self.time:g}"


@dataclass(frozen=True)
class MascRestart(Fault):
    """A crashed MASC node restarts (lapsed leases dropped)."""

    node: str = ""

    def describe(self) -> str:
        return f"masc-restart {self.node} @{self.time:g}"


@dataclass(frozen=True)
class Partition(Fault):
    """Cut the MASC overlay between two sets of nodes."""

    side_a: Tuple[str, ...] = ()
    side_b: Tuple[str, ...] = ()

    def describe(self) -> str:
        return (
            f"partition {'/'.join(self.side_a)}"
            f"|{'/'.join(self.side_b)} @{self.time:g}"
        )


@dataclass(frozen=True)
class Heal(Fault):
    """Repair a previous :class:`Partition` between the same sides."""

    side_a: Tuple[str, ...] = ()
    side_b: Tuple[str, ...] = ()

    def describe(self) -> str:
        return (
            f"heal {'/'.join(self.side_a)}"
            f"|{'/'.join(self.side_b)} @{self.time:g}"
        )


@dataclass(frozen=True)
class MessageLoss(Fault):
    """Probabilistic loss on the MASC overlay for a time window."""

    until: float = 0.0
    rate: float = 0.0

    def describe(self) -> str:
        return (
            f"loss {self.rate:g} @{self.time:g}"
            f"..{self.until:g}"
        )


@dataclass(frozen=True)
class DelayJitter(Fault):
    """Uniform delivery jitter on the MASC overlay for a window."""

    until: float = 0.0
    jitter: float = 0.0

    def describe(self) -> str:
        return (
            f"jitter {self.jitter:g} @{self.time:g}"
            f"..{self.until:g}"
        )


@dataclass(frozen=True)
class FaultCandidate:
    """One drawable fault for randomized schedules.

    ``kind`` is ``"link"`` (endpoints in ``target``/``peer``),
    ``"router"`` or ``"masc"`` (name in ``target``). ``group`` keys
    candidates that must not fail together — by default the failing
    component's domain, so a double-fault schedule never takes out
    both exits of a multihomed domain.
    """

    kind: str
    target: str
    group: str
    peer: str = ""

    def __post_init__(self) -> None:
        if self.kind not in ("link", "router", "masc"):
            raise ValueError(f"unknown candidate kind: {self.kind}")
        if self.kind == "link" and not self.peer:
            raise ValueError("link candidate needs both endpoints")


class FaultPlan:
    """An ordered fault schedule."""

    def __init__(self, faults: Optional[Iterable[Fault]] = None):
        self._faults: List[Fault] = []
        for fault in faults or ():
            self.add(fault)

    def add(self, fault: Fault) -> "FaultPlan":
        """Insert a fault, keeping the schedule time-ordered."""
        if fault.time < 0:
            raise ValueError(f"fault before time zero: {fault}")
        self._faults.append(fault)
        self._faults.sort(key=lambda f: f.time)
        return self

    def faults(self) -> List[Fault]:
        """The schedule, time-ordered."""
        return list(self._faults)

    def describe(self) -> List[str]:
        """Human-readable schedule (stable across same-seed runs)."""
        return [fault.describe() for fault in self._faults]

    def __len__(self) -> int:
        return len(self._faults)

    def __iter__(self):
        return iter(self._faults)

    def __repr__(self) -> str:
        return f"FaultPlan({self.describe()})"

    # ------------------------------------------------------------------
    # Convenience schedules

    def fail_link(
        self, a: str, b: str, at: float, repair_after: float
    ) -> "FaultPlan":
        """Schedule a link down/up pair."""
        self.add(LinkDown(at, a, b))
        self.add(LinkUp(at + repair_after, a, b))
        return self

    def crash_router(
        self, router: str, at: float,
        restart_after: Optional[float] = None,
    ) -> "FaultPlan":
        """Schedule a router crash, optionally with a restart."""
        self.add(RouterCrash(at, router))
        if restart_after is not None:
            self.add(RouterRestart(at + restart_after, router))
        return self

    def crash_masc_node(
        self, node: str, at: float,
        restart_after: Optional[float] = None,
    ) -> "FaultPlan":
        """Schedule a MASC node crash, optionally with a restart."""
        self.add(MascCrash(at, node))
        if restart_after is not None:
            self.add(MascRestart(at + restart_after, node))
        return self

    def partition(
        self,
        side_a: Sequence[str],
        side_b: Sequence[str],
        at: float,
        heal_after: float,
    ) -> "FaultPlan":
        """Schedule an overlay partition and its heal."""
        a, b = tuple(side_a), tuple(side_b)
        self.add(Partition(at, a, b))
        self.add(Heal(at + heal_after, a, b))
        return self

    def lossy_window(
        self, at: float, duration: float, rate: float
    ) -> "FaultPlan":
        """Schedule a probabilistic-loss window on the overlay."""
        self.add(MessageLoss(at, until=at + duration, rate=rate))
        return self

    # ------------------------------------------------------------------
    # Randomized schedules

    @classmethod
    def random_schedule(
        cls,
        rng: random.Random,
        candidates: Sequence[FaultCandidate],
        n_faults: int = 1,
        start: float = 1.0,
        window: float = 10.0,
        repair_after: float = 5.0,
    ) -> "FaultPlan":
        """A seeded schedule of ``n_faults`` fail/repair pairs.

        Faults are drawn without replacement from distinct candidate
        groups (a survivability guarantee, not just de-duplication)
        and placed uniformly in ``[start, start + window)``; every
        fault is repaired ``repair_after`` later.
        """
        if n_faults < 1:
            raise ValueError(f"need at least one fault: {n_faults}")
        groups = sorted({c.group for c in candidates})
        if n_faults > len(groups):
            raise ValueError(
                f"{n_faults} faults need {n_faults} distinct groups, "
                f"have {len(groups)}"
            )
        chosen_groups = rng.sample(groups, n_faults)
        plan = cls()
        for group in chosen_groups:
            pool = sorted(
                (c for c in candidates if c.group == group),
                key=lambda c: (c.kind, c.target, c.peer),
            )
            candidate = rng.choice(pool)
            at = start + rng.uniform(0.0, window)
            if candidate.kind == "link":
                plan.fail_link(
                    candidate.target, candidate.peer, at, repair_after
                )
            elif candidate.kind == "router":
                plan.crash_router(
                    candidate.target, at, restart_after=repair_after
                )
            else:
                plan.crash_masc_node(
                    candidate.target, at, restart_after=repair_after
                )
        return plan
