"""Determinism linter (``python -m repro.lint src tests benchmarks``).

A custom static analyzer with no third-party dependencies. The
paper's claims are only reproducible when every run is bit-for-bit
deterministic from its seed, so protocol code is held to a
determinism contract. One pass reads each file once, runs the
per-file AST rules DET001–DET006, links the file models into a
project model and runs the whole-program rules DET007–DET010 over it:

========  ==========================================================
DET001    unseeded or module-level ``random`` use
DET002    wall-clock access outside the Simulator clock
DET003    set iteration whose order escapes into output
DET004    mutable default arguments
DET005    bare or broad ``except`` handlers
DET006    snapshot-registered class attribute outside allowlist
DET007    non-exhaustive or dead protocol-kind dispatch
DET008    lambda/closure scheduled as a timer callback
DET009    ``parallel_map`` worker touches shared module state
DET010    protocol code transitively reaches wall clock / global RNG
SUP001    suppression without a justification
========  ==========================================================

Every finding fails the gate. Suppress one with an inline
justification::

    rng = random.Random()  # lint: disable=DET001 — entropy ablation

The comment may sit on any line of the flagged statement's header; a
whole file opts out with ``# lint: disable-file=CODE — why``. See
``python -m repro.lint --explain CODE`` for each rule's rationale,
and ``docs/ARCHITECTURE.md`` §12 for the analyzer design (project
model, call graph).
"""
