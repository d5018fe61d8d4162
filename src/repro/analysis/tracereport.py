"""Plain-text run report for the telemetry layer.

:func:`render_run_report` turns a run's tracer, profiler, and metrics
store into one human-readable report: a span summary by name, the
hottest event-loop callbacks by total wall time, and the counter
snapshot. Any of the three inputs may be None; absent layers are
simply omitted.

Only the profiler section contains wall-clock numbers — the span and
metric sections are deterministic across same-seed runs.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Optional

from repro.analysis.report import format_table


def _span_rows(tracer) -> List[tuple]:
    by_name: "OrderedDict[str, Dict]" = OrderedDict()
    for span in tracer.spans:
        entry = by_name.setdefault(
            span.name,
            {"layer": span.layer, "count": 0, "open": 0,
             "sim_time": 0.0, "events": 0, "statuses": {}},
        )
        entry["count"] += 1
        entry["events"] += len(span.events)
        if span.open:
            entry["open"] += 1
        else:
            entry["sim_time"] += span.duration
            status = entry["statuses"]
            status[span.status] = status.get(span.status, 0) + 1
    rows = []
    for name in sorted(by_name):
        entry = by_name[name]
        statuses = ",".join(
            f"{status}:{count}"
            for status, count in sorted(entry["statuses"].items())
        )
        if entry["open"]:
            statuses = (
                f"{statuses},open:{entry['open']}"
                if statuses
                else f"open:{entry['open']}"
            )
        rows.append((
            name,
            entry["layer"] or "-",
            entry["count"],
            entry["events"],
            entry["sim_time"],
            statuses or "-",
        ))
    return rows


def _callback_rows(profiler, top: int) -> List[tuple]:
    ranked = sorted(
        profiler.callbacks.values(),
        key=lambda s: (-s.total_seconds, s.label),
    )
    rows = []
    for stats in ranked[:top]:
        mean_us = (
            stats.total_seconds / stats.count * 1e6 if stats.count else 0.0
        )
        rows.append((
            stats.label,
            stats.count,
            stats.total_seconds * 1e3,
            mean_us,
            stats.quantile(0.50) * 1e6,
            stats.quantile(0.99) * 1e6,
        ))
    return rows


def render_run_report(
    tracer=None,
    profiler=None,
    registry=None,
    top_callbacks: int = 15,
) -> str:
    """One text report covering whichever telemetry the run produced."""
    sections: List[str] = []

    if tracer is not None and len(tracer):
        rows = _span_rows(tracer)
        sections.append(
            "== spans ==\n"
            + format_table(
                ("span", "layer", "count", "events", "sim_time", "status"),
                rows,
            )
        )
    if tracer is not None and tracer.orphan_events:
        by_name: Dict[str, int] = {}
        for event in tracer.orphan_events:
            by_name[event.name] = by_name.get(event.name, 0) + 1
        sections.append(
            "== events (outside spans) ==\n"
            + format_table(
                ("event", "count"),
                [(name, by_name[name]) for name in sorted(by_name)],
            )
        )

    if profiler is not None and profiler.events:
        summary = profiler.summary()
        head = (
            f"== event loop ==\n"
            f"events: {summary['events']}  "
            f"wall: {summary['wall_seconds']:.3f}s  "
            f"throughput: {summary['events_per_second']:.0f} events/s  "
            f"max queue depth: {summary['max_queue_depth']}"
        )
        table = format_table(
            ("callback", "count", "total_ms", "mean_us", "p50_us", "p99_us"),
            _callback_rows(profiler, top_callbacks),
            precision=1,
        )
        sections.append(head + "\n" + table)

    if registry is not None:
        counters = registry.counters
        rows = [
            (name, counters[name])
            for name in sorted(counters)
            if counters[name] and "{" not in name
        ]
        if rows:
            sections.append(
                "== counters (network-wide) ==\n"
                + format_table(("counter", "count"), rows)
            )

    if not sections:
        return "no telemetry recorded"
    return "\n\n".join(sections)
