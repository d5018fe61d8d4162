"""Pass 2 — the interprocedural determinism rules (DET007–DET010).

These run over the linked :class:`~repro.lint.model.ProjectModel`
rather than one file at a time, so they can see dispatch sites in one
module against kinds defined in another, callables that travel
through wrappers into timers, worker functions that reach shared
state three calls deep, and wall-clock reads at the end of a call
chain that starts in protocol code.

Suppressions still work: findings are attributed to concrete source
lines, and the engine's per-file suppression indexes are consulted
the same way the local rules' are. A justified ``# lint:
disable=DET001/DET002`` on a sink additionally *scopes the sink out
of the taint analysis* — an audited boundary (the profiler's
wall-time histograms, bench timing) does not taint its callers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    Iterator,
    List,
    Optional,
    Set,
    Tuple,
)

from repro.lint.model import MUTATING_METHODS, ProjectModel
from repro.lint.rules import Finding

if TYPE_CHECKING:  # the engine imports this module to run the rules
    from repro.lint.engine import SuppressionIndex

#: Packages whose call chains must stay seeded/clock-free. ``repro.trace``
#: (the wall-clock quarantine: profiler wall-time is an audited,
#: suppressed boundary) and the linter itself are exempt.
PROTOCOL_PACKAGES = (
    "repro.addressing",
    "repro.analysis",
    "repro.bgmp",
    "repro.bgp",
    "repro.checkpoint",
    "repro.experiments",
    "repro.faults",
    "repro.masc",
    "repro.migp",
    "repro.sanitizer",
    "repro.sim",
    "repro.topology",
)


def _in_protocol_package(module: str) -> bool:
    return any(
        module == pkg or module.startswith(pkg + ".")
        for pkg in PROTOCOL_PACKAGES
    )


@dataclass(frozen=True)
class ClassDispatchDomain:
    """A family of message/fault classes one module defines, which
    dispatch sites elsewhere must handle exhaustively."""

    label: str
    module: str
    #: Restrict members to subclasses of this base (else every
    #: top-level class of the module is a member).
    base: Optional[str] = None


@dataclass(frozen=True)
class KindDispatchDomain:
    """A closed set of string kinds (``delta.kind``) with the same
    exhaustiveness obligation on comparison chains."""

    label: str
    module: str
    attr: str
    members: Tuple[str, ...]


#: The repo's dispatch domains. Adding a message class, fault type or
#: delta kind without teaching every dispatch site about it is a
#: DET007 finding.
CLASS_DOMAINS: Tuple[ClassDispatchDomain, ...] = (
    ClassDispatchDomain("MASC message", "repro.masc.messages"),
    ClassDispatchDomain("fault", "repro.faults.plan", base="Fault"),
)

KIND_DOMAINS: Tuple[KindDispatchDomain, ...] = (
    KindDispatchDomain(
        "GribDelta kind",
        "repro.bgp.network",
        "kind",
        ("added", "changed", "withdrawn"),
    ),
)


class WholeProgramRule:
    """Base: a code, a summary, and a project-wide check."""

    code: str = ""
    summary: str = ""

    def check_project(
        self,
        project: ProjectModel,
        suppressions: Dict[str, SuppressionIndex],
    ) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(
        self, path: str, line: int, column: int, message: str
    ) -> Finding:
        return Finding(
            code=self.code,
            message=message,
            path=path,
            line=line,
            column=column,
        )


def _path_of(project: ProjectModel, key: str) -> str:
    module = key.split(":")[0]
    return project.modules[module]["path"]


def _owner_class(record: Dict[str, Any]) -> Optional[str]:
    name = record["name"]
    return name.rsplit(".", 1)[0] if "." in name else None


# ----------------------------------------------------------------------
# DET007 — handler exhaustiveness


class HandlerExhaustivenessRule(WholeProgramRule):
    """DET007: every protocol kind reaches a handler.

    Each dispatch domain (MASC message classes, ``Fault`` subclasses,
    ``GribDelta.kind`` strings) is a closed set defined in one module.
    Every ``isinstance`` if/elif chain that discriminates two or more
    members must cover *all* members — a new message class added
    without a dispatch arm is caught at lint time, not as a runtime
    ``TypeError`` three layers deep. Comparison chains on kind
    strings carry the same obligation, and a literal that is not a
    known kind is a dead (typo) handler. A ``_handle_*`` method in a
    dispatching class that nothing calls or references any more is
    flagged as a dead handler too; a domain whose defining module is
    in the program but which no dispatch site consumes at all is
    flagged at the definition site.
    """

    code = "DET007"
    summary = "non-exhaustive or dead protocol-kind dispatch"

    def check_project(
        self,
        project: ProjectModel,
        suppressions: Dict[str, SuppressionIndex],
    ) -> Iterator[Finding]:
        for domain in CLASS_DOMAINS:
            yield from self._check_class_domain(project, domain)
        for domain in KIND_DOMAINS:
            yield from self._check_kind_domain(project, domain)
        yield from self._check_dead_handlers(project)

    # -- class domains ------------------------------------------------

    def _members(
        self, project: ProjectModel, domain: ClassDispatchDomain
    ) -> Set[str]:
        model = project.modules.get(domain.module)
        if model is None:
            return set()
        classes = model["classes"]
        if domain.base is None:
            return set(classes)
        members: Set[str] = set()
        for name in classes:
            seen: Set[str] = set()
            queue = list(classes[name]["bases"])
            while queue:
                base = queue.pop(0)
                if base in seen:
                    continue
                seen.add(base)
                if base == domain.base:
                    members.add(name)
                    break
                if base in classes:
                    queue.extend(classes[base]["bases"])
        return members

    def _check_class_domain(
        self, project: ProjectModel, domain: ClassDispatchDomain
    ) -> Iterator[Finding]:
        members = self._members(project, domain)
        if not members:
            return
        sites = 0
        for key, record in project.functions.items():
            module = key.split(":")[0]
            for chain in record["dispatch_chains"]:
                covered: Set[str] = set()
                for branch in chain["tests"]:
                    for raw in branch:
                        resolved = project.class_name_of(module, raw)
                        if (
                            resolved is not None
                            and resolved[0] == domain.module
                            and resolved[1] in members
                        ):
                            covered.add(resolved[1])
                if len(covered) < 2:
                    continue
                sites += 1
                missing = members - covered
                if missing:
                    yield self.finding(
                        _path_of(project, key),
                        chain["lineno"],
                        0,
                        f"dispatch over {domain.label} kinds in "
                        f"{record['name']} does not handle: "
                        f"{', '.join(sorted(missing))} — add arms or "
                        "the kinds dead-end here",
                    )
        if sites == 0:
            model = project.modules[domain.module]
            yield self.finding(
                model["path"],
                1,
                0,
                f"no dispatch site handles {domain.label} kinds "
                f"({', '.join(sorted(members))}) — the kinds defined "
                "here are never discriminated anywhere in the program",
            )

    # -- kind (string) domains ---------------------------------------

    def _check_kind_domain(
        self, project: ProjectModel, domain: KindDispatchDomain
    ) -> Iterator[Finding]:
        if domain.module not in project.modules:
            return
        members = set(domain.members)
        sites = 0
        for key, record in project.functions.items():
            tested: Set[str] = set()
            first_line = None
            for test in record["kind_tests"]:
                if test["attr"] != domain.attr:
                    continue
                values = set(test["values"])
                if not values & members:
                    continue
                tested |= values
                if first_line is None:
                    first_line = test["lineno"]
            if not tested:
                continue
            sites += 1
            unknown = tested - members
            for value in sorted(unknown):
                yield self.finding(
                    _path_of(project, key),
                    first_line or record["lineno"],
                    0,
                    f"'{value}' is not a {domain.label} "
                    f"(known: {', '.join(sorted(members))}) — dead or "
                    "misspelled handler arm",
                )
            missing = members - tested
            if missing and len(tested & members) >= 2:
                yield self.finding(
                    _path_of(project, key),
                    first_line or record["lineno"],
                    0,
                    f"dispatch over {domain.label}s in "
                    f"{record['name']} does not handle: "
                    f"{', '.join(sorted(missing))}",
                )
        if sites == 0:
            model = project.modules[domain.module]
            yield self.finding(
                model["path"],
                1,
                0,
                f"no dispatch or validation site consumes "
                f"{domain.label}s ({', '.join(sorted(members))}) — "
                "handle or explicitly reject each kind somewhere",
            )

    # -- dead handlers ------------------------------------------------

    def _check_dead_handlers(
        self, project: ProjectModel
    ) -> Iterator[Finding]:
        # Classes that contain a dispatch chain are "dispatching";
        # their _handle_* methods must be reachable.
        dispatching: Set[Tuple[str, str]] = set()
        for key, record in project.functions.items():
            if record["dispatch_chains"] or record["kind_tests"]:
                owner = _owner_class(record)
                if owner is not None:
                    dispatching.add((key.split(":")[0], owner))
        for key, record in project.functions.items():
            module = key.split(":")[0]
            owner = _owner_class(record)
            if owner is None or (module, owner) not in dispatching:
                continue
            method = record["name"].rsplit(".", 1)[1]
            if not method.startswith("_handle"):
                continue
            if not project.callers_of(key):
                yield self.finding(
                    _path_of(project, key),
                    record["lineno"],
                    0,
                    f"handler {record['name']} is never called or "
                    "referenced — dead handler (its kind was removed "
                    "or the dispatch arm was dropped)",
                )


# ----------------------------------------------------------------------
# DET008 — timer/callback escape analysis


class TimerCallbackRule(WholeProgramRule):
    """DET008: every callable that reaches ``Simulator.schedule`` /
    ``schedule_at`` must be a picklable module function or bound
    method.

    A lambda or closure in a timer breaks checkpoint/restore (PR 6's
    hand-audit, now a checked invariant): the snapshot either fails
    to pickle or silently drops the captured state. The analysis is
    interprocedural — a function that forwards one of its parameters
    into a schedule call becomes a timer-registering wrapper, and the
    callables at *its* call sites are checked the same way.
    """

    code = "DET008"
    summary = "lambda/closure scheduled as a timer callback"

    def check_project(
        self,
        project: ProjectModel,
        suppressions: Dict[str, SuppressionIndex],
    ) -> Iterator[Finding]:
        forwarders = self._forwarders(project)
        for key, record in project.functions.items():
            module = key.split(":")[0]
            owner = _owner_class(record)
            path = _path_of(project, key)
            for site in record["schedule_sites"]:
                yield from self._check_callback(
                    project, path, module, record, owner,
                    site["callback"], site["lineno"], site["col"],
                )
            # Calls into timer-registering wrappers.
            for call in record["calls"]:
                callee = project._resolve_call(call, module, record, owner)
                if callee is None or callee not in forwarders:
                    continue
                for param_index in forwarders[callee]:
                    arg_index = param_index
                    callee_record = project.functions[callee]
                    is_method = "." in callee_record["name"]
                    if is_method and call["kind"] == "attr":
                        arg_index = param_index - 1
                    args = call.get("args", [])
                    if 0 <= arg_index < len(args):
                        yield from self._check_callback(
                            project, path, module, record, owner,
                            args[arg_index], call["lineno"], call["col"],
                        )

    @staticmethod
    def _forwarders(project: ProjectModel) -> Dict[str, List[int]]:
        return {
            key: record["forward_params"]
            for key, record in project.functions.items()
            if record["forward_params"]
        }

    def _check_callback(
        self,
        project: ProjectModel,
        path: str,
        module: str,
        record: Dict[str, Any],
        owner: Optional[str],
        summary: Dict[str, Any],
        lineno: int,
        col: int,
    ) -> Iterator[Finding]:
        kind = summary["type"]
        if kind == "lambda":
            yield self.finding(
                path, lineno, col,
                "a lambda is scheduled as a timer callback — "
                "unpicklable, so checkpoint/restore breaks; use a "
                "module function or bound method",
            )
        elif kind == "partial":
            yield from self._check_callback(
                project, path, module, record, owner,
                summary["inner"], lineno, col,
            )
        elif kind == "name":
            name = summary["name"]
            if name in record["lambda_names"]:
                yield self.finding(
                    path, lineno, col,
                    f"'{name}' is bound to a lambda/closure and "
                    "scheduled as a timer callback — unpicklable; "
                    "use a module function or bound method",
                )
            elif name in record["nested"]:
                yield self.finding(
                    path, lineno, col,
                    f"nested function '{name}' is scheduled as a "
                    "timer callback — a closure cannot be pickled "
                    "into a checkpoint; hoist it to module level or "
                    "make it a bound method",
                )
        elif kind == "attr":
            parts = summary.get("parts") or []
            if (
                len(parts) == 2
                and parts[0] == "self"
                and owner is not None
            ):
                info = project.modules[module]["classes"].get(owner)
                if info and parts[1] in info["attr_lambdas"]:
                    yield self.finding(
                        path, lineno, col,
                        f"self.{parts[1]} is assigned a lambda and "
                        "scheduled as a timer callback — unpicklable; "
                        "make it a bound method",
                    )


# ----------------------------------------------------------------------
# DET009 — worker purity


class WorkerPurityRule(WholeProgramRule):
    """DET009: functions fanned out through ``parallel_map`` must be
    pure with respect to module state.

    ``parallel_map`` starts a pool per call, and ``Pool.map`` hands
    each worker process chunks of items that it runs one after
    another. A worker that mutates a module-level global (directly or
    via anything it calls, project-wide) carries that mutation into
    the later items of the same process, so results depend on how the
    items were chunked — a race the order-preserving merge cannot
    fix. Reading module-level *mutable* state in the worker is flagged
    too: each process reads its own copy, which earlier items in that
    process may have changed. Lambdas and closures as workers are
    rejected outright — they don't pickle, so ``parallel_map``
    silently degrades to serial.
    """

    code = "DET009"
    summary = "parallel_map worker touches shared module state"

    def check_project(
        self,
        project: ProjectModel,
        suppressions: Dict[str, SuppressionIndex],
    ) -> Iterator[Finding]:
        for key, record in project.functions.items():
            module = key.split(":")[0]
            owner = _owner_class(record)
            path = _path_of(project, key)
            for site in record["parallel_map_sites"]:
                yield from self._check_worker(
                    project, path, module, record, owner,
                    site["worker"], site["lineno"], site["col"],
                )

    def _check_worker(
        self,
        project: ProjectModel,
        path: str,
        module: str,
        record: Dict[str, Any],
        owner: Optional[str],
        summary: Dict[str, Any],
        lineno: int,
        col: int,
    ) -> Iterator[Finding]:
        if summary["type"] == "lambda":
            yield self.finding(
                path, lineno, col,
                "parallel_map worker is a lambda — unpicklable, the "
                "sweep silently runs serial; use a module function",
            )
            return
        if summary["type"] == "name" and (
            summary["name"] in record["nested"]
            or summary["name"] in record["lambda_names"]
        ):
            yield self.finding(
                path, lineno, col,
                f"parallel_map worker '{summary['name']}' is a "
                "closure — unpicklable, the sweep silently runs "
                "serial; hoist it to module level",
            )
            return
        worker = project.resolve_callable_summary(
            summary, module, record, owner
        )
        if worker is None:
            return
        seen: Set[str] = set()
        for target in [worker] + list(project.reachable_from(worker)):
            if target in seen:
                continue
            seen.add(target)
            target_record = project.functions.get(target)
            if target_record is None:
                continue
            for mutation in self._global_mutations(project, target):
                yield self.finding(
                    path, lineno, col,
                    f"parallel_map worker {worker.replace(':', '.')} "
                    f"mutates module-level state: {mutation} — pool "
                    "results depend on per-process history",
                )
            if target == worker:
                for read in self._mutable_reads(project, target):
                    yield self.finding(
                        path, lineno, col,
                        f"parallel_map worker "
                        f"{worker.replace(':', '.')} reads "
                        f"module-level mutable state: {read} — the "
                        "fork-time copy can diverge between pool and "
                        "parent",
                    )

    @staticmethod
    def _local_names(record: Dict[str, Any]) -> Set[str]:
        locals_: Set[str] = set(record["params"])
        locals_.update(
            s["name"]
            for s in record["stores"]
            if s["name"] not in record["global_decls"]
            and s["how"] == "assignment"
        )
        locals_.update(record["nested"])
        return locals_

    def _global_mutations(
        self, project: ProjectModel, key: str
    ) -> List[str]:
        record = project.functions[key]
        module = key.split(":")[0]
        module_globals = set(project.modules[module]["globals"])
        locals_ = self._local_names(record)
        found: List[str] = []
        declared = set(record["global_decls"])
        for store in record["stores"]:
            name = store["name"]
            hits = (
                name in declared
                or (
                    store["how"] in ("item assignment", "augmented assign")
                    and name in module_globals
                    and name not in locals_
                )
            )
            if hits and name in module_globals:
                found.append(
                    f"{store['how']} to global '{name}' "
                    f"({record['name']}:{store['lineno']})"
                )
            elif name in declared:
                found.append(
                    f"{store['how']} to global '{name}' "
                    f"({record['name']}:{store['lineno']})"
                )
        for call in record["calls"]:
            if call["kind"] != "attr":
                continue
            parts = call.get("parts")
            if not parts or len(parts) != 2:
                continue
            target, method = parts
            if (
                method in MUTATING_METHODS
                and target in module_globals
                and target not in locals_
            ):
                found.append(
                    f".{method}() on global '{target}' "
                    f"({record['name']}:{call['lineno']})"
                )
        return sorted(set(found))

    def _mutable_reads(
        self, project: ProjectModel, key: str
    ) -> List[str]:
        record = project.functions[key]
        module = key.split(":")[0]
        globals_ = project.modules[module]["globals"]
        locals_ = self._local_names(record)
        mutated = {s["name"] for s in record["stores"]}
        return sorted(
            f"global '{name}'"
            for name in record["loads"]
            if name in globals_
            and globals_[name]["mutable"]
            and name not in locals_
            and name not in mutated
        )


# ----------------------------------------------------------------------
# DET010 — transitive wall-clock / unseeded-randomness taint


class TransitiveTaintRule(WholeProgramRule):
    """DET010: protocol code may not *reach* the wall clock or the
    process-global RNG through any call chain.

    DET001/DET002 flag direct uses; this rule closes the transitive
    hole: a protocol-package function that calls — at any depth
    through the modelled call graph — a function that reads
    ``time.time()`` or draws from ``random.*`` is flagged at the
    call edge, with the witness chain in the message. A sink whose
    direct use carries a justified DET001/DET002 suppression is an
    audited boundary and does not taint callers. Findings are
    reported once per chain: at the edge into a directly-sinking
    function, or where the chain leaves the protocol packages.
    """

    code = "DET010"
    summary = "protocol code transitively reaches wall clock / global RNG"

    def check_project(
        self,
        project: ProjectModel,
        suppressions: Dict[str, SuppressionIndex],
    ) -> Iterator[Finding]:
        direct: Dict[str, str] = {}
        for key, record in project.functions.items():
            path = _path_of(project, key)
            index = suppressions.get(path)
            for sink in record["sinks"]:
                code = "DET001" if sink["kind"] == "random" else "DET002"
                if index is not None and index.covers(sink["lineno"], code):
                    continue
                direct.setdefault(
                    key, f"{sink['detail']} ({path}:{sink['lineno']})"
                )
        # Backward reachability with a next-hop map for witnesses.
        tainted: Dict[str, Optional[str]] = {k: None for k in direct}
        queue = sorted(direct)
        while queue:
            current = queue.pop(0)
            for caller, _ in project.callers_of(current):
                if caller in tainted:
                    continue
                tainted[caller] = current
                queue.append(caller)
        for key, record in project.functions.items():
            module = key.split(":")[0]
            if not _in_protocol_package(module):
                continue
            path = _path_of(project, key)
            reported: Set[str] = set()
            for callee, lineno in project.callees_of(key):
                if callee in reported or callee == key:
                    continue
                if callee not in tainted:
                    continue
                callee_module = callee.split(":")[0]
                if callee not in direct and _in_protocol_package(
                    callee_module
                ):
                    # The chain continues inside protocol code; the
                    # deeper edge carries the finding.
                    continue
                reported.add(callee)
                yield self.finding(
                    path, lineno, 0,
                    f"{record['name']} reaches "
                    f"{self._witness(callee, tainted, direct)} — "
                    "protocol outcomes must be a pure function of the "
                    "seed; inject the Simulator clock or a seeded rng",
                )

    @staticmethod
    def _witness(
        key: str, tainted: Dict[str, Optional[str]], direct: Dict[str, str]
    ) -> str:
        chain = []
        current: Optional[str] = key
        for _ in range(12):
            if current is None:
                break
            chain.append(current.replace(":", "."))
            if current in direct:
                chain.append(direct[current])
                break
            current = tainted.get(current)
        return " -> ".join(chain)


#: Registry, ordered by code.
WHOLE_PROGRAM_RULES: Tuple[WholeProgramRule, ...] = (
    HandlerExhaustivenessRule(),
    TimerCallbackRule(),
    WorkerPurityRule(),
    TransitiveTaintRule(),
)

WHOLE_RULES_BY_CODE: Dict[str, WholeProgramRule] = {
    rule.code: rule for rule in WHOLE_PROGRAM_RULES
}
