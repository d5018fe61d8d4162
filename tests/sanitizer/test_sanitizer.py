"""Tests for the runtime invariant sanitizer."""

import pytest

from repro.addressing.prefix import Prefix
from repro.sanitizer.core import (
    InvariantSanitizer,
    InvariantViolation,
    TraceEntry,
)
from repro.sim.engine import Simulator

# ----------------------------------------------------------------------
# Minimal fakes: just enough surface for each invariant.

class FakeClaimTable:
    def __init__(self, prefixes):
        self._prefixes = list(prefixes)

    def prefixes(self):
        return list(self._prefixes)

class FakeMascNode:
    def __init__(self, name, prefixes):
        self.name = name
        self.claimed = FakeClaimTable(prefixes)

class FakeDomain:
    def __init__(self, name):
        self.name = name

class FakeRouter:
    def __init__(self, name, domain=None):
        self.name = name
        self.domain = domain if domain is not None else FakeDomain("D")

    def __repr__(self):
        return self.name

class FakeEntry:
    def __init__(self, upstream):
        self.upstream = upstream

class FakeTable:
    def __init__(self, entry, size=1):
        self._entry = entry
        self._size = size

    def get(self, group):
        return self._entry

    def __len__(self):
        return self._size

class FakeBgmpRouter:
    def __init__(self, entry, size=1):
        self.table = FakeTable(entry, size)

class FakeBgp:
    def __init__(self, origins=(), down=()):
        self._origins = list(origins)
        self._down = list(down)

    def domain_origins(self, domain, route_type=None):
        return list(self._origins)

    def down_routers(self):
        return list(self._down)

class FakeBgmp:
    """Upstream-pointer graph plus the BGP surface the checks read."""

    def __init__(self, upstream_of, root_domain=None, bgp=None,
                 no_state=()):
        self._routers = {}
        for router, upstream in upstream_of.items():
            entry = None if router in no_state else FakeEntry(upstream)
            self._routers[router] = FakeBgmpRouter(entry)
        self.root_domain = root_domain
        self.bgp = bgp if bgp is not None else FakeBgp()

    def tree_routers(self, group):
        return sorted(
            (r for r, b in self._routers.items()
             if b.table.get(group) is not None),
            key=lambda r: r.name,
        )

    def router_of(self, router):
        return self._routers[router]

    def root_domain_of(self, group):
        return self.root_domain

GROUP = 0xE0008001

def run_one_event(sim):
    sim.schedule(1.0, lambda: None, name="tick")
    sim.run()

# ----------------------------------------------------------------------

class TestLifecycle:
    def test_attach_detach(self):
        sim = Simulator()
        san = InvariantSanitizer()
        assert not san.attached
        san.attach(sim)
        assert san.attached
        run_one_event(sim)
        assert san.checks_run == 1
        san.detach()
        assert not san.attached
        run_one_event(sim)
        assert san.checks_run == 1

    def test_double_attach_rejected(self):
        san = InvariantSanitizer().attach(Simulator())
        with pytest.raises(RuntimeError):
            san.attach(Simulator())

    def test_check_every_skips_events(self):
        sim = Simulator()
        san = InvariantSanitizer(check_every=3).attach(sim)
        for _ in range(7):
            run_one_event(sim)
        assert san.checks_run == 2

    def test_invalid_check_every_rejected(self):
        with pytest.raises(ValueError):
            InvariantSanitizer(check_every=0)

    def test_trace_is_a_bounded_ring_buffer(self):
        sim = Simulator()
        san = InvariantSanitizer(trace_depth=4).attach(sim)
        for _ in range(10):
            run_one_event(sim)
        trace = san.trace()
        assert len(trace) == 4
        assert [entry.index for entry in trace] == [7, 8, 9, 10]
        assert all(entry.label == "tick" for entry in trace)

class TestClaimDisjointness:
    def overlapping(self):
        return [
            [
                FakeMascNode("M1", [Prefix.parse("224.1.0.0/16")]),
                FakeMascNode("M2", [Prefix.parse("224.1.128.0/17")]),
            ]
        ]

    def test_overlap_raises_with_trace(self):
        sim = Simulator()
        InvariantSanitizer(masc_siblings=self.overlapping()).attach(sim)
        sim.schedule(2.0, lambda: None, name="claim-confirm")
        with pytest.raises(InvariantViolation) as exc:
            sim.run()
        violation = exc.value
        assert violation.invariant == "claim-disjointness"
        assert violation.time == 2.0
        assert "M1" in violation.details[0]
        assert any("claim-confirm" in e.label for e in violation.trace)
        assert "claim-confirm" in str(violation)

    def test_disjoint_claims_pass(self):
        siblings = [
            [
                FakeMascNode("M1", [Prefix.parse("224.1.0.0/16")]),
                FakeMascNode("M2", [Prefix.parse("224.2.0.0/16")]),
            ]
        ]
        sim = Simulator()
        san = InvariantSanitizer(masc_siblings=siblings).attach(sim)
        run_one_event(sim)
        assert san.violations == []

    def test_recording_mode_keeps_running(self):
        sim = Simulator()
        san = InvariantSanitizer(
            masc_siblings=self.overlapping(), raise_on_violation=False
        ).attach(sim)
        run_one_event(sim)
        run_one_event(sim)
        assert len(san.violations) == 2
        assert "claim-disjointness" in san.violations[0]

class TestGribCoverage:
    def test_uncovered_claim_raises(self):
        entity = FakeMascNode("T0", [Prefix.parse("224.5.0.0/16")])
        domain = FakeDomain("A")
        bgmp = FakeBgmp({}, bgp=FakeBgp(origins=[]))
        sim = Simulator()
        InvariantSanitizer(
            bgmp=bgmp, claim_bindings=[(entity, domain)]
        ).attach(sim)
        sim.schedule(1.0, lambda: None)
        with pytest.raises(InvariantViolation) as exc:
            sim.run()
        assert exc.value.invariant == "grib-coverage"
        assert "224.5.0.0/16" in exc.value.details[0]

    def test_covered_claim_passes(self):
        entity = FakeMascNode("T0", [Prefix.parse("224.5.0.0/16")])
        domain = FakeDomain("A")
        bgmp = FakeBgmp(
            {}, bgp=FakeBgp(origins=[Prefix.parse("224.5.0.0/16")])
        )
        sim = Simulator()
        san = InvariantSanitizer(
            bgmp=bgmp, claim_bindings=[(entity, domain)]
        ).attach(sim)
        run_one_event(sim)
        assert san.violations == []

    def test_claim_covered_by_shorter_origin_passes(self):
        entity = FakeMascNode("T0", [Prefix.parse("224.5.32.0/24")])
        domain = FakeDomain("A")
        bgmp = FakeBgmp(
            {}, bgp=FakeBgp(origins=[Prefix.parse("224.5.0.0/16")])
        )
        sim = Simulator()
        san = InvariantSanitizer(
            bgmp=bgmp, claim_bindings=[(entity, domain)]
        ).attach(sim)
        run_one_event(sim)
        assert san.violations == []

class TestLoopFree:
    def test_upstream_loop_raises(self):
        a, b, c = (FakeRouter(n) for n in "abc")
        bgmp = FakeBgmp({a: b, b: c, c: a})
        sim = Simulator()
        InvariantSanitizer(bgmp=bgmp, groups=(GROUP,)).attach(sim)
        sim.schedule(1.0, lambda: None)
        with pytest.raises(InvariantViolation) as exc:
            sim.run()
        assert exc.value.invariant == "loop-free-trees"
        assert "loop" in exc.value.details[0]

    def test_chain_passes(self):
        a, b, c = (FakeRouter(n) for n in "abc")
        bgmp = FakeBgmp({a: b, b: c, c: None})
        sim = Simulator()
        san = InvariantSanitizer(bgmp=bgmp, groups=(GROUP,)).attach(sim)
        run_one_event(sim)
        assert san.violations == []

class TestConvergedChecks:
    def test_rooted_tree_passes(self):
        root = FakeDomain("A")
        leaf = FakeDomain("F")
        a = FakeRouter("a", leaf)
        b = FakeRouter("b", root)
        bgmp = FakeBgmp({a: b, b: None}, root_domain=root)
        san = InvariantSanitizer(bgmp=bgmp, groups=(GROUP,))
        assert san.check_converged() == []

    def test_tree_rooted_outside_covering_domain_flagged(self):
        root = FakeDomain("A")
        elsewhere = FakeDomain("F")
        a = FakeRouter("a", elsewhere)
        b = FakeRouter("b", elsewhere)
        bgmp = FakeBgmp({a: b, b: None}, root_domain=root)
        san = InvariantSanitizer(
            bgmp=bgmp, groups=(GROUP,), raise_on_violation=False
        )
        details = san.check_converged()
        assert details
        assert "covering domain" in details[0]

    def test_raising_mode_raises_on_converged_violation(self):
        root = FakeDomain("A")
        elsewhere = FakeDomain("F")
        a = FakeRouter("a", elsewhere)
        bgmp = FakeBgmp({a: None}, root_domain=root)
        san = InvariantSanitizer(bgmp=bgmp, groups=(GROUP,))
        with pytest.raises(InvariantViolation) as exc:
            san.check_converged()
        assert exc.value.invariant == "converged-trees"

    def test_dangling_upstream_flagged(self):
        root = FakeDomain("A")
        a = FakeRouter("a", root)
        ghost = FakeRouter("g", root)
        bgmp = FakeBgmp(
            {a: ghost, ghost: None}, root_domain=root, no_state=(ghost,)
        )
        san = InvariantSanitizer(
            bgmp=bgmp, groups=(GROUP,), raise_on_violation=False
        )
        details = san.check_converged()
        assert details and "dangling upstream" in details[0]

    def test_crashed_router_with_state_flagged(self):
        root = FakeDomain("A")
        dead = FakeRouter("x", root)
        bgmp = FakeBgmp({dead: None}, root_domain=root)
        bgmp.bgp = FakeBgp(down=[dead])
        san = InvariantSanitizer(
            bgmp=bgmp, groups=(), raise_on_violation=False
        )
        details = san.check_converged()
        assert details and "crashed router x" in details[0]

    def test_no_covering_route_skips_rootedness(self):
        elsewhere = FakeDomain("F")
        a = FakeRouter("a", elsewhere)
        bgmp = FakeBgmp({a: None}, root_domain=None)
        san = InvariantSanitizer(bgmp=bgmp, groups=(GROUP,))
        assert san.check_converged() == []

class TestViolationRendering:
    def test_report_names_invariant_details_and_trace(self):
        violation = InvariantViolation(
            "claim-disjointness",
            ["sibling claims overlap: M1:224.1.0.0/16 vs M2:..."],
            time=3.5,
            trace=[TraceEntry(index=7, time=3.5, label="reannounce")],
        )
        text = str(violation)
        assert "claim-disjointness" in text
        assert "t=3.5" in text
        assert "M1" in text
        assert "#7 t=3.5 reannounce" in text
