"""The telemetry hub: a stdlib HTTP server over one telemetry sink.

All endpoints are GET. ``/`` is a self-contained HTML status page and
``/stream`` a ``text/event-stream`` of ``repro.frame/v1`` frames
(``?from=N`` or ``Last-Event-ID`` resumes at seq N); every other
endpoint answers the JSON snapshot named in
:data:`repro.serve.runner.ENDPOINT_SCHEMAS` (``/spans?limit=N`` keeps
the newest N spans, N >= 1; ``/tree/<group>`` takes hex or decimal).
docs/ARCHITECTURE.md §13 describes each payload.

Every snapshot endpoint routes through :meth:`TelemetrySink.snapshot`,
so the world is only ever read at an event boundary (or at rest). The
server runs on daemon threads (`ThreadingHTTPServer`) and binds
127.0.0.1 by default — this is an introspection port, not a public
service.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Optional
from urllib.parse import parse_qs, urlparse

from . import snapshots
from .sink import TelemetrySink
from .static import STATUS_PAGE


class TelemetryHub:
    """Owns the HTTP server thread serving one sink's telemetry."""

    def __init__(
        self,
        sink: TelemetrySink,
        host: str = "127.0.0.1",
        port: int = 0,
    ):
        self.sink = sink
        handler = _make_handler(self)
        self._server = ThreadingHTTPServer((host, port), handler)
        self._server.daemon_threads = True
        self._thread: Optional[threading.Thread] = None

    @property
    def url(self) -> str:
        """The bound address (port resolved when 0 was requested)."""
        host, port = self._server.server_address[:2]
        return f"http://{host}:{port}"

    def start(self) -> "TelemetryHub":
        """Serve on a daemon thread; returns once the socket is
        accepting."""
        thread = threading.Thread(
            target=self._server.serve_forever,
            name="repro-serve-hub",
            daemon=True,
        )
        thread.start()
        self._thread = thread
        return self

    def stop(self) -> None:
        """Shut the server down and join its thread."""
        self._server.shutdown()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        self._server.server_close()

    def payload(self, route: str, query) -> Optional[Dict[str, Any]]:
        """The JSON payload for ``route`` (``None``: no such endpoint).
        Every world read goes through ``sink.snapshot`` and thus an
        event boundary."""
        sink = self.sink
        sources = sink.sources
        if route == "/profile":
            # Wall-time summary: no world state read, no boundary.
            return snapshots.profile_snapshot(sources)
        if route.startswith("/tree/"):
            group = int(route[len("/tree/"):], 0)
            return sink.snapshot(
                lambda: snapshots.tree_snapshot(sources, group)
            )
        builders = {
            "/healthz": lambda: snapshots.health_snapshot(
                sources,
                state=sink.state_label(),
                frames=sink.frames_published,
                sample_every=sink.sample_every,
                violation_count=len(sink.violations_seen),
            ),
            "/metrics": lambda: snapshots.metrics_snapshot(
                sources, seq=sink.frames_published
            ),
            "/spans": lambda: snapshots.spans_snapshot(
                sources, limit=_int_param(query, "limit")
            ),
            "/claims": lambda: snapshots.claims_snapshot(sources),
            "/violations": lambda: snapshots.violations_snapshot(
                sources, seen=list(sink.violations_seen)
            ),
        }
        builder = builders.get(route)
        return None if builder is None else sink.snapshot(builder)


def _int_param(query, name) -> Optional[int]:
    values = query.get(name)
    if not values:
        return None
    return int(values[0], 0)


def _make_handler(hub: TelemetryHub):
    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"
        server_version = "repro-serve/1"

        def log_message(self, format, *args):  # noqa: A002
            pass  # the hub is quiet; the CLI owns stdout

        # ----------------------------------------------------------
        def do_GET(self) -> None:  # noqa: N802 - http.server API
            parsed = urlparse(self.path)
            route = parsed.path.rstrip("/") or "/"
            query = parse_qs(parsed.query)
            try:
                if route == "/":
                    self._send_page(STATUS_PAGE)
                elif route == "/stream":
                    self._stream(query)
                else:
                    payload = hub.payload(route, query)
                    if payload is None:
                        self._send_json(
                            {"error": f"no such endpoint: {route}"},
                            status=404,
                        )
                    else:
                        self._send_json(payload)
            except ValueError as exc:
                self._send_json({"error": str(exc)}, status=400)
            except TimeoutError as exc:
                self._send_json({"error": str(exc)}, status=503)
            except (BrokenPipeError, ConnectionResetError):
                pass  # client went away mid-reply

        def _send_json(self, payload: Dict[str, Any], status: int = 200):
            body = json.dumps(payload, sort_keys=True).encode("utf-8")
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def _send_page(self, page: str) -> None:
            body = page.encode("utf-8")
            self.send_response(200)
            self.send_header("Content-Type", "text/html; charset=utf-8")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def _stream(self, query) -> None:
            """SSE: replay frames from the requested seq, then follow
            the live feed until the run finishes or the client
            disconnects."""
            seq = _int_param(query, "from")
            if seq is None:
                last_id = self.headers.get("Last-Event-ID")
                seq = int(last_id) + 1 if last_id else 0
            self.send_response(200)
            self.send_header("Content-Type", "text/event-stream")
            self.send_header("Cache-Control", "no-cache")
            # SSE is unbounded: chunked would need explicit framing,
            # so fall back to connection-close delimiting.
            self.send_header("Connection", "close")
            self.end_headers()
            sink = hub.sink
            while True:
                frames = sink.wait_for_frame(seq, timeout=0.5)
                for frame in frames:
                    data = json.dumps(frame, sort_keys=True)
                    chunk = f"id: {frame['seq']}\ndata: {data}\n\n"
                    self.wfile.write(chunk.encode("utf-8"))
                    seq = frame["seq"] + 1
                self.wfile.flush()
                if sink.finished and not sink.frames_since(seq):
                    self.wfile.write(b"event: end\ndata: {}\n\n")
                    self.wfile.flush()
                    return
                if not frames:
                    # Heartbeat comment keeps proxies from timing out
                    # and surfaces client disconnects promptly.
                    self.wfile.write(b": keepalive\n\n")
                    self.wfile.flush()

    return Handler
