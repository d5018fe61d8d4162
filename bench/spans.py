"""Span recorder for the traced pass.

The program is measured from outside: every name in ``ENTRY_POINTS``
is a public function or method of one layer, and the recorder swaps
it for a timing wrapper for the duration of one traced round. Nothing
in ``src/`` knows the recorder exists.

Two wrapper kinds, one frame stack:

* **span** entry points (a converge, a repair pass, one join, one
  scenario) append ``(id, name, start, end, parent, op, phase)`` to an
  in-memory list that is written out once, when the round ends;
* **hot** entry points (G-RIB lookups, trie walks, per-manager MASC
  calls — up to millions of calls a round) only update their aggregate.

Both push a frame, so a caller's self time is its duration minus the
time its callees spent, hot or not. Aggregates are kept per phase
(``setup`` / ``run`` / ``verify`` / ``extra``) so "zero converge calls
in the run phase" is a number, not an inference.

An entry point that no longer exists is listed in ``missing`` and its
metrics read ``None``; it is never an error, so a refactor that
removes a layer's function does not break the benchmark.
"""

from __future__ import annotations

import importlib
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

PHASES = ("setup", "run", "verify", "extra")

#: name -> (module, qualified attribute, hot?). The name's prefix is
#: the layer (= the module under ``repro``) it belongs to.
ENTRY_POINTS: Dict[str, Tuple[str, str, bool]] = {
    "topology.build": ("repro.topology.generators", "as_graph", False),
    "bgp.converge": ("repro.bgp.network", "BgpNetwork.converge", False),
    "bgp.originate": (
        "repro.bgp.network", "BgpNetwork.originate_from_domain", False,
    ),
    "bgp.withdraw": ("repro.bgp.network", "BgpNetwork.withdraw", False),
    "bgp.fail_router": (
        "repro.bgp.network", "BgpNetwork.fail_router", False,
    ),
    "bgp.restore_router": (
        "repro.bgp.network", "BgpNetwork.restore_router", False,
    ),
    "bgp.rib_digest": ("repro.bgp.network", "BgpNetwork.rib_digest", False),
    "bgp.lookup": (
        "repro.bgp.speaker", "BgpSpeaker.next_hop_for_group", True,
    ),
    "bgmp.join": ("repro.bgmp.network", "BgmpNetwork.join", False),
    "bgmp.leave": ("repro.bgmp.network", "BgmpNetwork.leave", False),
    "bgmp.send": ("repro.bgmp.network", "BgmpNetwork.send", False),
    "bgmp.repair": ("repro.bgmp.network", "BgmpNetwork.repair_trees", False),
    "bgmp.digest": (
        "repro.bgmp.network", "BgmpNetwork.forwarding_digest", False,
    ),
    "bgmp.digest_uncached": (
        "repro.bgmp.network", "BgmpNetwork.forwarding_digest_uncached",
        False,
    ),
    "addressing.lpm_lookup": ("repro.addressing.trie", "LpmTrie.lookup", True),
    "addressing.lpm_insert": ("repro.addressing.trie", "LpmTrie.insert", True),
    "addressing.lpm_remove": ("repro.addressing.trie", "LpmTrie.remove", True),
    "addressing.free_search": (
        "repro.addressing.trie", "PrefixTrie.shortest_free_prefixes", True,
    ),
    "masc.run": ("repro.masc.simulation", "ClaimSimulation.run", False),
    "masc.request": ("repro.masc.maas", "MaasServer.request_block", True),
    "masc.expire": ("repro.masc.maas", "MaasServer.expire_blocks", True),
    "masc.maintain": (
        "repro.masc.manager", "DomainSpaceManager.maintain", True,
    ),
    "sim.run": ("repro.sim.engine", "Simulator.run", False),
    "scenarios.load": ("repro.scenarios", "load_scenario", False),
    "scenarios.run": ("repro.scenarios", "run_scenario", False),
    "sanitizer.check_converged": (
        "repro.sanitizer.core", "InvariantSanitizer.check_converged", False,
    ),
    "faults.apply": ("repro.faults.injector", "FaultInjector.apply", False),
    "faults.recover": (
        "repro.faults.injector", "FaultInjector.recover", False,
    ),
    "analysis.compare_trees": (
        "repro.analysis.trees", "compare_trees", False,
    ),
    "runner.parallel_map": (
        "repro.experiments.runner", "parallel_map", False,
    ),
    "checkpoint.capture": ("repro.checkpoint", "capture", False),
    "checkpoint.restore": ("repro.checkpoint", "restore", False),
}


class Recorder:
    """Frames, spans and per-phase aggregates of one traced round."""

    def __init__(self, entry_points=None) -> None:
        self.entry_points = (
            ENTRY_POINTS if entry_points is None else entry_points
        )
        self.phase = "setup"
        #: The operation in progress (-1 outside the run loop): the
        #: identifier every span of one operation shares.
        self.op = -1
        self.spans: List[tuple] = []
        #: Open frames, innermost last: [start, child seconds, span id].
        self.stack: List[list] = []
        #: phase -> name -> [calls, total seconds, self seconds].
        self.aggregates: Dict[str, Dict[str, List[float]]] = {
            phase: {} for phase in PHASES
        }
        self.missing: List[str] = []
        self._undo: List[Tuple[object, str, object]] = []

    # -- wrapping ------------------------------------------------------

    def _wrap(self, name: str, fn: Callable, hot: bool) -> Callable:
        clock = time.perf_counter
        stack = self.stack
        spans = self.spans
        aggregates = self.aggregates

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            enclosing = parent[2] if parent is not None else -1
            if hot:
                span_id = enclosing
            else:
                span_id = len(spans)
                spans.append(None)
            frame = [clock(), 0.0, span_id]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[0]
                if parent is not None:
                    parent[1] += duration
                names = aggregates[self.phase]
                slot = names.get(name)
                if slot is None:
                    slot = names[name] = [0, 0.0, 0.0]
                slot[0] += 1
                slot[1] += duration
                slot[2] += duration - frame[1]
                if not hot:
                    spans[span_id] = (
                        span_id, name, frame[0], end, enclosing,
                        self.op, self.phase,
                    )

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Swap every resolvable entry point for its wrapper. Functions
        that other ``repro`` modules imported by name are rebound there
        too, so ``from x import f`` call sites are measured as well."""
        for name, (module_name, qualname, hot) in self.entry_points.items():
            try:
                owner = importlib.import_module(module_name)
                *path, attr = qualname.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.missing.append(name)
                continue
            wrapper = self._wrap(name, original, hot)
            holders = [owner]
            if not path:
                holders += [
                    module
                    for key, module in list(sys.modules.items())
                    if key.startswith("repro")
                    and module is not owner
                    and getattr(module, attr, None) is original
                ]
            for holder in holders:
                setattr(holder, attr, wrapper)
                self._undo.append((holder, attr, original))

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._undo):
            setattr(holder, attr, original)
        self._undo.clear()

    # -- reading -------------------------------------------------------

    def calls(self, name: str, phases=PHASES) -> Optional[int]:
        if name in self.missing:
            return None
        return sum(
            self.aggregates[phase].get(name, (0,))[0] for phase in phases
        )

    def seconds(self, name: str, phases=PHASES) -> Optional[float]:
        if name in self.missing:
            return None
        return sum(
            self.aggregates[phase].get(name, (0, 0.0))[1]
            for phase in phases
        )

    def dump(self) -> dict:
        """The trace file's content: spans plus aggregates."""
        return {
            "span_fields": [
                "id", "name", "start", "end", "parent", "op", "phase",
            ],
            "spans": self.spans,
            "aggregates": {
                phase: {
                    name: {
                        "calls": slot[0],
                        "total_s": slot[1],
                        "self_s": slot[2],
                    }
                    for name, slot in sorted(names.items())
                }
                for phase, names in self.aggregates.items()
            },
            "missing": sorted(self.missing),
        }


# ----------------------------------------------------------------------
# Per-layer metrics: what the traced pass reports, by name.

SETUP, RUN, ANY = ("setup",), ("run",), PHASES


def _total(values) -> Optional[float]:
    values = list(values)
    return None if any(v is None for v in values) else sum(values)


def _seconds(*names: str, phases=RUN):
    return lambda rec, seen: _total(rec.seconds(n, phases) for n in names)


def _calls(*names: str, phases=RUN):
    return lambda rec, seen: _total(rec.calls(n, phases) for n in names)


def _seen(key: str):
    """A value a workload observed at its own call sites (0 when the
    workload does not touch that layer)."""
    return lambda rec, seen: seen.get(key, 0)


def _ratio(top, bottom, floor: float = 0.0):
    def ratio(rec, seen):
        above, below = top(rec, seen), bottom(rec, seen)
        if above is None or below is None:
            return None
        below = max(below, floor)
        return above / below if below else 0.0

    return ratio


def _runner_overhead(rec, seen):
    pooled = rec.seconds("runner.parallel_map", RUN)
    serial = rec.seconds("runner.parallel_map", ("extra",))
    if pooled is None:
        return None
    return pooled - serial / max(1, seen.get("runner.processes", 1))


_MUTATORS = (
    "bgp.originate", "bgp.withdraw", "bgp.fail_router", "bgp.restore_router",
)

#: (name, unit, better, exact?, how). ``exact`` marks values that are a
#: function of the seed alone and must repeat run to run. ``_s`` is
#: busy time *inside* the entry point, callees included; self times are
#: in the trace file. Unless stated, a metric covers the run phase.
LAYER_METRICS = [
    ("topology.build_s", "s", "lower", False,
     _seconds("topology.build", phases=ANY)),
    ("topology.domains", "count", "lower", True, _seen("topology.domains")),
    ("topology.links", "count", "lower", True, _seen("topology.links")),
    ("bgp.initial_converge_s", "s", "lower", False,
     _seconds("bgp.converge", phases=SETUP)),
    ("bgp.converge_s", "s", "lower", False, _seconds("bgp.converge")),
    ("bgp.converge_calls", "count", "lower", True, _calls("bgp.converge")),
    ("bgp.converge_rounds", "count", "lower", True,
     _seen("bgp.converge_rounds")),
    ("bgp.updates_sent", "count", "lower", True, _seen("bgp.updates_sent")),
    ("bgp.mutate_s", "s", "lower", False, _seconds(*_MUTATORS)),
    ("bgp.lookup_calls", "count", "lower", True, _calls("bgp.lookup")),
    ("bgp.lookup_s", "s", "lower", False, _seconds("bgp.lookup")),
    ("bgp.rib_digest_s", "s", "lower", False,
     _seconds("bgp.rib_digest", phases=ANY)),
    ("bgp.grib_routes_mean", "routes", "lower", True,
     _seen("bgp.grib_routes_mean")),
    ("bgmp.join_s", "s", "lower", False, _seconds("bgmp.join")),
    ("bgmp.join_calls", "count", "lower", True, _calls("bgmp.join")),
    ("bgmp.leave_s", "s", "lower", False, _seconds("bgmp.leave")),
    ("bgmp.leave_calls", "count", "lower", True, _calls("bgmp.leave")),
    ("bgmp.send_s", "s", "lower", False, _seconds("bgmp.send")),
    ("bgmp.send_calls", "count", "lower", True, _calls("bgmp.send")),
    ("bgmp.repair_s", "s", "lower", False, _seconds("bgmp.repair")),
    ("bgmp.repair_calls", "count", "lower", True, _calls("bgmp.repair")),
    ("bgmp.repair_changes", "count", "lower", True,
     _seen("bgmp.repair_changes")),
    ("bgmp.lookups_per_change", "ratio", "lower", True,
     _ratio(_seen("bgmp.repair_lookups"), _seen("bgmp.repair_changes"),
            floor=1.0)),
    ("bgmp.joins_sent", "count", "lower", True, _seen("bgmp.joins_sent")),
    ("bgmp.prunes_sent", "count", "lower", True, _seen("bgmp.prunes_sent")),
    ("bgmp.grib_deltas_seen", "count", "lower", True,
     _seen("bgmp.grib_deltas_seen")),
    ("bgmp.groups_invalidated", "count", "lower", True,
     _seen("bgmp.groups_invalidated")),
    ("bgmp.forwarding_entries", "count", "lower", True,
     _seen("bgmp.forwarding_entries")),
    ("bgmp.digest_s", "s", "lower", False,
     _seconds("bgmp.digest", phases=ANY)),
    ("bgmp.digest_calls", "count", "lower", True,
     _calls("bgmp.digest", phases=ANY)),
    ("bgmp.digest_uncached_s", "s", "lower", False,
     _seconds("bgmp.digest_uncached", phases=ANY)),
    ("addressing.lpm_lookup_calls", "count", "lower", True,
     _calls("addressing.lpm_lookup")),
    ("addressing.lpm_lookup_s", "s", "lower", False,
     _seconds("addressing.lpm_lookup")),
    ("addressing.lpm_insert_calls", "count", "lower", True,
     _calls("addressing.lpm_insert")),
    ("addressing.lpm_remove_calls", "count", "lower", True,
     _calls("addressing.lpm_remove")),
    ("addressing.free_search_calls", "count", "lower", True,
     _calls("addressing.free_search")),
    ("addressing.free_search_s", "s", "lower", False,
     _seconds("addressing.free_search")),
    ("masc.run_s", "s", "lower", False, _seconds("masc.run")),
    ("masc.request_s", "s", "lower", False, _seconds("masc.request")),
    ("masc.request_calls", "count", "lower", True, _calls("masc.request")),
    ("masc.expire_s", "s", "lower", False, _seconds("masc.expire")),
    ("masc.expire_calls", "count", "lower", True, _calls("masc.expire")),
    ("masc.maintain_s", "s", "lower", False, _seconds("masc.maintain")),
    ("masc.maintain_calls", "count", "lower", True, _calls("masc.maintain")),
    ("masc.claims_made", "count", "lower", True, _seen("masc.claims_made")),
    ("masc.doublings", "count", "lower", True, _seen("masc.doublings")),
    ("masc.consolidations", "count", "lower", True,
     _seen("masc.consolidations")),
    ("masc.requests_served", "count", "higher", True,
     _seen("masc.requests_served")),
    ("masc.requests_failed", "count", "lower", True,
     _seen("masc.requests_failed")),
    ("masc.utilization_steady", "ratio", "higher", True,
     _seen("masc.utilization_steady")),
    ("masc.grib_mean_steady", "routes", "lower", True,
     _seen("masc.grib_mean_steady")),
    ("sim.events", "count", "lower", True, _seen("sim.events")),
    ("sim.run_s", "s", "lower", False, _seconds("sim.run")),
    ("sim.events_per_s", "1/s", "higher", False,
     _ratio(_seen("sim.events"), _seconds("sim.run"))),
    ("scenarios.load_s", "s", "lower", False,
     _seconds("scenarios.load", phases=ANY)),
    ("scenarios.load_calls", "count", "lower", True,
     _calls("scenarios.load", phases=ANY)),
    ("scenarios.run_s", "s", "lower", False, _seconds("scenarios.run")),
    ("scenarios.events", "count", "lower", True, _seen("scenarios.events")),
    ("scenarios.violations", "count", "lower", True,
     _seen("scenarios.violations")),
    ("scenarios.failures", "count", "lower", True,
     _seen("scenarios.failures")),
    ("sanitizer.check_converged_s", "s", "lower", False,
     _seconds("sanitizer.check_converged")),
    ("sanitizer.check_converged_calls", "count", "lower", True,
     _calls("sanitizer.check_converged")),
    ("faults.apply_s", "s", "lower", False, _seconds("faults.apply")),
    ("faults.apply_calls", "count", "lower", True, _calls("faults.apply")),
    ("faults.recover_s", "s", "lower", False, _seconds("faults.recover")),
    ("faults.recover_calls", "count", "lower", True,
     _calls("faults.recover")),
    ("analysis.compare_trees_s", "s", "lower", False,
     _seconds("analysis.compare_trees", phases=ANY)),
    ("analysis.compare_trees_calls", "count", "lower", True,
     _calls("analysis.compare_trees", phases=ANY)),
    ("runner.serial_s", "s", "lower", False,
     _seconds("runner.parallel_map", phases=("extra",))),
    ("runner.pooled_s", "s", "lower", False,
     _seconds("runner.parallel_map")),
    ("runner.speedup", "ratio", "higher", False,
     _ratio(_seconds("runner.parallel_map", phases=("extra",)),
            _seconds("runner.parallel_map"))),
    ("runner.overhead_s", "s", "lower", False, _runner_overhead),
    ("runner.processes", "count", "lower", True, _seen("runner.processes")),
    ("checkpoint.capture_s", "s", "lower", False,
     _seconds("checkpoint.capture", phases=ANY)),
    ("checkpoint.restore_s", "s", "lower", False,
     _seconds("checkpoint.restore", phases=ANY)),
    ("checkpoint.bytes", "bytes", "lower", True, _seen("checkpoint.bytes")),
    ("harness.import_s", "s", "lower", False, _seen("harness.import_s")),
    ("harness.generator_s", "s", "lower", False,
     _seen("harness.generator_s")),
    ("harness.run_s", "s", "lower", False, _seen("harness.run_s")),
    ("harness.verify_s", "s", "lower", False, _seen("harness.verify_s")),
    ("harness.cpu_s", "s", "lower", False, _seen("harness.cpu_s")),
    ("harness.trace_overhead_ratio", "ratio", "lower", False,
     _seen("harness.trace_overhead_ratio")),
]


def layer_metrics(recorder: Recorder, seen: Dict[str, float]) -> dict:
    """Every per-layer metric by name; ``None`` where the entry point
    it is read from no longer exists."""
    return {
        name: how(recorder, seen)
        for name, _unit, _better, _exact, how in LAYER_METRICS
    }
