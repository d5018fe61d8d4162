"""Scenario execution: run a validated spec on the simulator.

The engine materializes the declared world (topology → BGMP network →
MASC overlay), schedules every step on the simulator clock in file
order, and runs to the horizon with the invariant sanitizer attached.
Mutation steps that perturb routing go through the
:class:`~repro.faults.injector.FaultInjector` — the same mutation
layer the chaos harness uses — so each fault gets the injector's
automatic recovery pass; assertions execute as simulator events at
their declared times and record failures (anchored at the scenario
file line) instead of raising, so one run reports every broken
expectation.

Each run ends with a canonical state snapshot — root domain, member
sets, per-router tree shape, MASC claim tables, delivery records —
and a SHA-256 fingerprint over it. Same scenario file, same
fingerprint: the determinism suite holds every shipped scenario to
that across serial and pooled runs.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.addressing.prefix import Prefix
from repro.bgmp.network import BgmpNetwork, _default_migp_selector
from repro.bgmp.targets import MigpTarget, PeerTarget
from repro.faults.chaos import check_no_overlapping_claims
from repro.faults.injector import FaultInjector
from repro.faults.plan import (
    FaultPlan,
    Heal,
    LinkDown,
    LinkUp,
    MascCrash,
    MascRestart,
    Partition,
    RouterCrash,
    RouterRestart,
)
from repro.masc.config import MascConfig
from repro.masc.node import MascNode, MascOverlay
from repro.sanitizer.core import InvariantSanitizer
from repro.sim.engine import Simulator
from repro.sim.randomness import RandomStreams
from repro.scenarios.loader import load_scenario
from repro.scenarios.spec import ScenarioSpec, Step
from repro.scenarios.topologies import build_topology


def render_target(target) -> str:
    """Canonical text form of a forwarding target: ``peer:R`` /
    ``migp:D`` / ``none``."""
    if target is None:
        return "none"
    if isinstance(target, PeerTarget):
        return f"peer:{target.router.name}"
    if isinstance(target, MigpTarget):
        return f"migp:{target.domain.name}"
    return repr(target)


def normalize_target(text: str) -> str:
    """Normalize a DSL target reference to :func:`render_target` form
    (a bare router name means ``peer:NAME``)."""
    if text == "none" or ":" in text:
        return text
    return f"peer:{text}"


@dataclass
class ScenarioOutcome:
    """Result of one scenario run — plain data, picklable, so runs
    fan out over ``parallel_map`` unchanged."""

    name: str
    path: str
    fingerprint: str
    snapshot: Dict[str, object]
    failures: List[str] = field(default_factory=list)
    violations: List[str] = field(default_factory=list)
    events: int = 0

    @property
    def ok(self) -> bool:
        return not self.failures and not self.violations

    def __repr__(self) -> str:
        status = "ok" if self.ok else (
            f"{len(self.failures)} failures, "
            f"{len(self.violations)} violations"
        )
        return f"ScenarioOutcome({self.name}, {status})"


class ScenarioRunner:
    """Executes one :class:`ScenarioSpec` on a fresh world."""

    def __init__(self, spec: ScenarioSpec):
        self.spec = spec
        self.sim = Simulator()
        self.topology = None
        self.bgmp: Optional[BgmpNetwork] = None
        self.overlay: Optional[MascOverlay] = None
        self.masc_nodes: Dict[str, MascNode] = {}
        self._routers: Dict[str, object] = {}
        self._failures: List[str] = []
        self._digests: Dict[str, str] = {}
        self._sends: List[Dict[str, object]] = []
        #: group address text -> sorted-set of joined member domains.
        self._members: Dict[str, List[str]] = {
            g.address_text: [] for g in spec.groups
        }
        self._injector: Optional[FaultInjector] = None
        self._sanitizer: Optional[InvariantSanitizer] = None

    # ------------------------------------------------------------------
    # World construction

    def _build_world(self) -> None:
        spec = self.spec
        if spec.topology is not None:
            self.topology = build_topology(spec.topology)
            for router in self.topology.routers():
                self._routers[router.name] = router
            overrides = {
                d.name: d.migp for d in spec.topology.domains if d.migp
            }
            default_kind = spec.topology.migp

            def migp_selector(domain) -> str:
                kind = overrides.get(domain.name, default_kind)
                return kind or _default_migp_selector(domain)

            self.bgmp = BgmpNetwork(
                self.topology, migp_selector=migp_selector
            )
            originated = set()
            for group in spec.groups:
                key = (group.root, group.range_text)
                if key in originated:
                    continue
                originated.add(key)
                self.bgmp.originate_group_range(
                    self.topology.domain(group.root),
                    Prefix.parse(group.range_text),
                )
            if spec.groups:
                self.bgmp.converge()
        if spec.masc is not None:
            self.overlay = MascOverlay(self.sim, delay=spec.masc.delay)
            config = MascConfig(
                claim_policy="first",
                waiting_period=spec.masc.waiting_period,
                reannounce_interval=None,
            )
            streams = RandomStreams(spec.seed)
            for index, node_spec in enumerate(spec.masc.nodes):
                node = MascNode(
                    index, node_spec.name, self.overlay, config=config,
                    rng=streams.stream(f"masc-{node_spec.name}"),
                )
                self.masc_nodes[node_spec.name] = node
            for node_spec in spec.masc.nodes:
                if node_spec.parent:
                    self.masc_nodes[node_spec.name].set_parent(
                        self.masc_nodes[node_spec.parent]
                    )
        self._injector = FaultInjector(
            self.sim,
            bgmp=self.bgmp,
            masc_overlay=self.overlay,
            masc_nodes=tuple(self.masc_nodes.values()),
            recovery_delay=spec.recovery_delay,
        )

    def _sibling_nodes(self) -> List[List[MascNode]]:
        if self.spec.masc is None:
            return []
        return [
            [self.masc_nodes[name] for name in group]
            for group in self.spec.masc.siblings()
        ]

    # ------------------------------------------------------------------
    # Step scheduling

    _FAULTS = {
        "link-down": lambda at, a: LinkDown(at, a["a"], a["b"]),
        "link-up": lambda at, a: LinkUp(at, a["a"], a["b"]),
        "crash-router": lambda at, a: RouterCrash(at, a["router"]),
        "restore-router": lambda at, a: RouterRestart(at, a["router"]),
        "masc-crash": lambda at, a: MascCrash(at, a["node"]),
        "masc-restart": lambda at, a: MascRestart(at, a["node"]),
        "partition": lambda at, a: Partition(
            at, tuple(a["side_a"]), tuple(a["side_b"])
        ),
        "heal": lambda at, a: Heal(
            at, tuple(a["side_a"]), tuple(a["side_b"])
        ),
    }

    def _schedule_steps(self) -> None:
        # Steps are scheduled in file order; the simulator heap is
        # FIFO at equal times, so same-time steps execute as written.
        for step in self.spec.steps:
            make_fault = self._FAULTS.get(step.verb)
            if make_fault is not None and not step.is_assert:
                self._injector.schedule(
                    FaultPlan([make_fault(step.at, step.args)])
                )
            else:
                self.sim.schedule_at(
                    step.at, self._exec_step, step,
                    name=f"scenario:{step.describe()}",
                )

    def _fail(self, step: Step, message: str) -> None:
        self._failures.append(
            f"{step.path}:{step.line}: [{step.describe()}] {message}"
        )

    def _exec_step(self, step: Step) -> None:
        handler = getattr(
            self, "_step_" + step.verb.replace("-", "_")
        )
        handler(step)

    # ---- mutations ---------------------------------------------------

    def _host(self, ref: str):
        domain_name, _, host_name = ref.partition(":")
        return self.topology.domain(domain_name).host(host_name)

    def _step_join(self, step: Step) -> None:
        group = self.spec.group(step.args["group"])
        host = self._host(step.args["host"])
        joined = self.bgmp.join(host, group.address)
        if joined:
            members = self._members[group.address_text]
            if host.domain.name not in members:
                members.append(host.domain.name)
                members.sort()
        elif not step.args.get("may_fail", False):
            self._fail(step, f"join {step.args['host']} failed")

    def _step_leave(self, step: Step) -> None:
        group = self.spec.group(step.args["group"])
        host = self._host(step.args["host"])
        self.bgmp.leave(host, group.address)
        members = self._members[group.address_text]
        if host.domain.name in members:
            members.remove(host.domain.name)

    def _step_send(self, step: Step) -> None:
        group = self.spec.group(step.args["group"])
        report = self.bgmp.send(
            self._host(step.args["from"]), group.address
        )
        reached = sorted(
            domain.name
            for domain in self.topology.domains
            if report.reached(domain)
        )
        self._sends.append(
            {
                "at": step.at,
                "from": step.args["from"],
                "group": group.address_text,
                "reached": reached,
                "duplicates": report.duplicates,
                "dropped": report.dropped,
            }
        )
        for name in step.args.get("expect_reach", ()):
            if name not in reached:
                self._fail(step, f"expected delivery to {name}")
        for name in step.args.get("expect_miss", ()):
            if name in reached:
                self._fail(step, f"unexpected delivery to {name}")

    def _step_claim(self, step: Step) -> None:
        node = self.masc_nodes[step.args["node"]]
        prefix = node.start_claim(int(step.args["bits"]))
        if prefix is None and step.args.get("must_select", True):
            self._fail(
                step,
                f"{node.name} found no /{step.args['bits']} to claim",
            )

    def _step_move_root(self, step: Step) -> None:
        prefix = Prefix.parse(step.args["range"])
        source = step.args.get("from", "")
        if source:
            for router in sorted(
                self.topology.domain(source).routers.values(),
                key=lambda r: r.name,
            ):
                self.bgmp.bgp.withdraw(router, prefix)
        self.bgmp.originate_group_range(
            self.topology.domain(step.args["to"]), prefix
        )
        self.bgmp.converge()
        self.bgmp.refresh_trees()

    def _step_recover(self, step: Step) -> None:
        if self.bgmp is not None:
            self._injector.recover()

    def _step_record_digest(self, step: Step) -> None:
        self._digests[step.args["label"]] = (
            self.bgmp.forwarding_digest()
        )

    # ---- assertions --------------------------------------------------

    def _entry(self, step: Step):
        group = self.spec.group(step.args["group"])
        router = self._routers[step.args["router"]]
        return self.bgmp.router_of(router).table.get(group.address)

    def _step_members_reachable(self, step: Step) -> None:
        group = self.spec.group(step.args["group"])
        report = self.bgmp.send(
            self._host(step.args["source"]), group.address
        )
        expected = step.args.get(
            "members", list(self._members[group.address_text])
        )
        for name in expected:
            if not report.reached(self.topology.domain(name)):
                self._fail(step, f"member domain {name} unreached")
        for name in step.args.get("absent", ()):
            if report.reached(self.topology.domain(name)):
                self._fail(
                    step, f"non-member domain {name} got the packet"
                )
        if report.duplicates:
            self._fail(
                step, f"{report.duplicates} duplicate deliveries"
            )

    def _step_root_domain(self, step: Step) -> None:
        group = self.spec.group(step.args["group"])
        root = self.bgmp.root_domain_of(group.address)
        actual = root.name if root is not None else "none"
        if actual != step.args["domain"]:
            self._fail(
                step,
                f"root domain is {actual}, expected "
                f"{step.args['domain']}",
            )

    def _step_tree_parent(self, step: Step) -> None:
        entry = self._entry(step)
        expected = normalize_target(step.args["parent"])
        actual = (
            render_target(entry.parent)
            if entry is not None
            else "no-entry"
        )
        if entry is None and expected == "none":
            return
        if actual != expected:
            self._fail(
                step,
                f"parent at {step.args['router']} is {actual}, "
                f"expected {expected}",
            )

    def _step_tree_children(self, step: Step) -> None:
        entry = self._entry(step)
        children = sorted(
            render_target(child) for child in entry.children
        ) if entry is not None else []
        for ref in step.args.get("contains", ()):
            if normalize_target(ref) not in children:
                self._fail(
                    step,
                    f"{step.args['router']} children {children} "
                    f"lack {ref}",
                )
        for ref in step.args.get("excludes", ()):
            if normalize_target(ref) in children:
                self._fail(
                    step,
                    f"{step.args['router']} children still "
                    f"include {ref}",
                )
        if "count" in step.args and len(children) != step.args["count"]:
            self._fail(
                step,
                f"{step.args['router']} has {len(children)} "
                f"children, expected {step.args['count']}",
            )

    def _step_on_tree(self, step: Step) -> None:
        present = self._entry(step) is not None
        expected = step.args.get("present", True)
        if present != expected:
            state = "on" if present else "off"
            want = "on" if expected else "off"
            self._fail(
                step,
                f"{step.args['router']} is {state}-tree, "
                f"expected {want}-tree",
            )

    def _step_digest(self, step: Step) -> None:
        recorded = self._digests[step.args["same_as"]]
        current = self.bgmp.forwarding_digest()
        if step.args.get("equal", True):
            if current != recorded:
                self._fail(
                    step,
                    "forwarding digest drifted from "
                    f"'{step.args['same_as']}'",
                )
        elif current == recorded:
            self._fail(
                step,
                "forwarding digest unchanged from "
                f"'{step.args['same_as']}'",
            )

    def _step_claims_disjoint(self, step: Step) -> None:
        for violation in check_no_overlapping_claims(
            self._sibling_nodes()
        ):
            self._fail(step, violation)

    def _step_claim_count(self, step: Step) -> None:
        node = self.masc_nodes[step.args["node"]]
        count = len(node.claimed.prefixes())
        if "equals" in step.args:
            if count != step.args["equals"]:
                self._fail(
                    step,
                    f"{node.name} holds {count} claims, expected "
                    f"{step.args['equals']}",
                )
            return
        minimum = step.args.get("min", 1)
        if count < minimum:
            self._fail(
                step,
                f"{node.name} holds {count} claims, expected "
                f">= {minimum}",
            )

    # ------------------------------------------------------------------
    # Run

    def run(self) -> ScenarioOutcome:
        spec = self.spec
        self._build_world()
        self._schedule_steps()
        self._sanitizer = InvariantSanitizer(
            bgmp=self.bgmp,
            groups=tuple(g.address for g in spec.groups),
            masc_siblings=self._sibling_nodes(),
            check_every=spec.check_every,
            raise_on_violation=False,
        ).attach(self.sim)
        try:
            self.sim.run(until=spec.horizon)
        finally:
            self._sanitizer.detach()
        violations = list(self._sanitizer.violations)
        if self.bgmp is not None:
            # Settling pass: late faults still get their recovery, and
            # quiescence invariants are checked on the settled world.
            self._injector.recover()
            self._sanitizer.violations.clear()
            violations.extend(self._sanitizer.check_converged())
        if spec.masc is not None:
            violations.extend(
                check_no_overlapping_claims(self._sibling_nodes())
            )
        snapshot = self._snapshot(violations)
        return ScenarioOutcome(
            name=spec.name,
            path=spec.path,
            fingerprint=fingerprint(snapshot),
            snapshot=snapshot,
            failures=list(self._failures),
            violations=violations,
            events=self.sim.processed,
        )

    # ------------------------------------------------------------------
    # Snapshot

    def _snapshot(self, violations: List[str]) -> Dict[str, object]:
        groups: Dict[str, object] = {}
        for group in self.spec.groups:
            root = self.bgmp.root_domain_of(group.address)
            tree: Dict[str, object] = {}
            for router in self.bgmp.tree_routers(group.address):
                entry = self.bgmp.router_of(router).table.get(
                    group.address
                )
                if entry is None:
                    continue
                tree[router.name] = {
                    "parent": render_target(entry.parent),
                    "children": sorted(
                        render_target(c) for c in entry.children
                    ),
                }
            groups[group.address_text] = {
                "root": root.name if root is not None else "",
                "members": list(self._members[group.address_text]),
                "tree": tree,
            }
        claims = {
            name: sorted(
                str(p) for p in node.claimed.prefixes()
            )
            for name, node in sorted(self.masc_nodes.items())
        }
        return {
            "scenario": self.spec.name,
            "seed": self.spec.seed,
            "events": self.sim.processed,
            "forwarding_digest": (
                self.bgmp.forwarding_digest()
                if self.bgmp is not None
                else ""
            ),
            "groups": groups,
            "claims": claims,
            "sends": list(self._sends),
            "digest_labels": dict(sorted(self._digests.items())),
            "failures": list(self._failures),
            "violations": list(violations),
        }


def fingerprint(snapshot: Dict[str, object]) -> str:
    """SHA-256 over the canonical JSON form of a snapshot."""
    return hashlib.sha256(
        json.dumps(snapshot, sort_keys=True).encode()
    ).hexdigest()


def run_scenario(spec: ScenarioSpec) -> ScenarioOutcome:
    """Run one validated scenario on a fresh world."""
    return ScenarioRunner(spec).run()


def run_scenario_path(path) -> ScenarioOutcome:
    """Load, validate, and run one scenario file.

    Module-level (and string-in, plain-data-out) so scenario suites
    fan out over ``parallel_map`` — the pooled and serial results must
    be identical, which the determinism tests pin.
    """
    return run_scenario(load_scenario(path))
