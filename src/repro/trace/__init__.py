"""Cross-layer telemetry: span tracing, unified metrics, profiling.

Three pillars (docs §7):

* :class:`Tracer` / :data:`NULL_TRACER` — span-based tracing of
  protocol transactions across ``masc/``, ``bgp/``, and ``bgmp/``,
  zero-cost when disabled.
* :func:`collect_metrics` — every layer's counters and gauges in one
  :class:`~repro.trace.metrics.Metrics` store (two flat maps).
* :class:`EventLoopProfiler` — per-callback wall time (with bucketed
  quantiles) and queue depth for the simulator's event loop.

Exporters cover JSONL (:func:`trace_to_jsonl`), Chrome
``trace_event`` / Perfetto (:func:`trace_to_chrome`), and canonical
metrics JSON (:func:`repro.trace.export.write_metrics_json`).
"""
