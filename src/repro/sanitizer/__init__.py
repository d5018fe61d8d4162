"""Opt-in runtime invariant sanitizer for the protocol stack.

Attach an :class:`InvariantSanitizer` to a running
:class:`~repro.sim.engine.Simulator` to have cross-layer protocol
invariants (sibling claim disjointness, G-RIB coverage of active
claims, loop-free BGMP trees) checked after every executed event, with
quiescence checks (trees rooted in the covering domain) available at
settle points::

    from repro.sanitizer.core import InvariantSanitizer

    san = InvariantSanitizer(
        bgmp=network, groups=(GROUP,), masc_siblings=[siblings]
    ).attach(sim)
    sim.run(until=horizon)       # raises InvariantViolation on breakage
    san.check_converged()
    san.detach()

The chaos harness wires this up via ``ChaosHarness(..., sanitize=True)``.
"""
