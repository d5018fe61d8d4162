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

Every fault run (:mod:`repro.faults.soak`) runs under one, and ends
with its quiescence checks plus the end checks beside it in
:mod:`repro.sanitizer.core` (``check_loop_free_trees``,
``check_members_reachable``, ``check_no_overlapping_claims``).
"""
