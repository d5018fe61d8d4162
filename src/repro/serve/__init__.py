"""Serve mode: a live telemetry hub over running simulations.

``python -m repro serve run`` executes a reference workload (chaos or
fig2, through :func:`run_target`, the same instrumented run
``repro trace`` uses) with a stdlib-only HTTP hub attached; ``python
-m repro serve attach`` joins an ongoing soak read-only at its latest
boundary checkpoint. Either way the hub streams metric deltas, spans,
and violations as Server-Sent Events and answers on-demand snapshot
requests (BGMP tree, MASC claim tables, profiler histograms), every
payload naming its versioned schema in a ``"schema"`` field
(:data:`~repro.serve.runner.ENDPOINT_SCHEMAS`).

The package's one invariant is **fingerprint neutrality**: a served
run produces byte-identical determinism fingerprints to an unserved
one. The pieces that enforce it:

* :class:`TelemetrySink` — the only bridge between the simulation
  thread and HTTP handlers; reads world state exclusively at event
  boundaries, is ``checkpoint_transient``, and never mutates.
* :mod:`~repro.serve.snapshots` — pure-read payload builders.
* :class:`TelemetryHub` — the HTTP/SSE surface (handler threads only
  ever see materialised frames or boundary-built snapshots).

See docs/ARCHITECTURE.md §13 for the full design and the neutrality
argument.
"""

from .attach import AttachOptions, attach_serve, load_attached_world
from .hub import TelemetryHub
from .runner import (
    TARGETS,
    RunOutcome,
    ServeHook,
    probe_hub,
    run_target,
)
from .sink import TelemetrySink
from .snapshots import ServeSources

__all__ = [
    "AttachOptions",
    "RunOutcome",
    "ServeHook",
    "ServeSources",
    "TARGETS",
    "TelemetryHub",
    "TelemetrySink",
    "attach_serve",
    "load_attached_world",
    "probe_hub",
    "run_target",
]
