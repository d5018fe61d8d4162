"""Serve mode: a live telemetry hub over running simulations.

``python -m repro serve run`` (a chaos or fig2 workload) and ``python
-m repro serve attach`` (a private copy of an ongoing soak, restored
read-only from a boundary checkpoint) are both the one instrumented
run, :func:`~repro.serve.runner.run_built`, with a
:class:`~repro.serve.runner.ServeHook` that starts a stdlib-only
HTTP hub before the run. The hub streams metric deltas, spans and
violations as Server-Sent Events and answers on-demand snapshots (BGMP
tree, MASC claim tables, profiler histograms), every payload naming
its versioned schema (:data:`~repro.serve.runner.ENDPOINT_SCHEMAS`).

The package's one invariant is **fingerprint neutrality**: a served
run fingerprints byte-identically to the same run with no hook
(``--control``). :class:`~repro.serve.sink.TelemetrySink` is the only
bridge between the simulation thread and the HTTP handlers, reads the
world only at event boundaries and never mutates it;
:mod:`~repro.serve.snapshots` holds the pure-read payload builders.
docs/ARCHITECTURE.md §13 has the design and the neutrality argument.
"""
