"""Stdlib-only HTTP front end for the experiment job service.

Endpoints (all JSON):

* ``POST /jobs`` — submit a job description; ``202`` with the job
  record (``409``-free: duplicates coalesce, the response carries
  ``deduped: true``).  Invalid specs get ``400`` with an ``error``;
  a queue at its configured depth limit gets ``429`` (backpressure —
  retry later).
* ``GET /jobs`` — every job the service knows about.
* ``GET /jobs/<id>`` — one job's state-machine record (404 unknown).
* ``GET /results/<key>`` — the content-addressed result payload
  (URL-quote the key; it contains ``/`` and ``#``); 404 if absent.
* ``GET /healthz`` — liveness: status, local workers, live threads.
* ``GET /metrics`` — queue depth (total and per tenant), jobs by
  state, retry/timeout/requeue/lease counters, result-store hit rate,
  per-stage pipeline stats, and the ``obs`` metrics-registry snapshot.

Worker endpoints (the lease protocol; each forwards to the
:class:`~repro.service.scheduler.Scheduler` verb of the same name,
which the coordinator's in-process workers call directly):

* ``POST /leases`` — body ``{"worker": "<name>"}``; ``200`` with the
  lease document (id, job record, execution payload, timeout) or
  ``204`` when the queue is empty.
* ``POST /leases/<id>/heartbeat`` — renew the claim; ``410`` when the
  lease is stale (the worker must abandon the attempt).
* ``POST /leases/<id>/complete`` — body is the result payload; stores
  it and finishes the job (``410`` if stale — the result is still
  kept if the lease was granted and the payload's ``key`` is the job's
  result key; it is content-addressed).
* ``POST /leases/<id>/fail`` — body ``{"error": "..."}``; consumes
  retry budget with delayed-requeue backoff.
* ``GET /leases`` — active leases (introspection).

The server is a ``ThreadingHTTPServer`` so slow pollers never block
submissions; all actual work happens in the workers, in-process or
remote.  A client dropping the connection mid-response
(``BrokenPipeError``/``ConnectionResetError``) is counted into the
``service.http.disconnects`` metric instead of spraying tracebacks.
"""

from __future__ import annotations

import json
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional, Tuple
from urllib.parse import unquote

from repro.errors import (
    BackpressureError,
    ConfigurationError,
    ReproError,
    StaleLeaseError,
    UnknownJobError,
)
from repro.service.scheduler import Scheduler


class ServiceHTTPServer(ThreadingHTTPServer):
    """HTTP server bound to one :class:`Scheduler`."""

    daemon_threads = True

    def __init__(self, address: Tuple[str, int], scheduler: Scheduler) -> None:
        super().__init__(address, _Handler)
        self.scheduler = scheduler

    @property
    def url(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"


class _Handler(BaseHTTPRequestHandler):
    server: ServiceHTTPServer

    # The default handler logs every request to stderr; the service is
    # introspectable through /metrics instead.
    def log_message(self, format: str, *args) -> None:
        pass

    def _send(self, status: int, document, headers: Optional[dict] = None) -> None:
        try:
            body = json.dumps(document, indent=2).encode("utf-8")
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            for name, value in (headers or {}).items():
                self.send_header(name, value)
            self.end_headers()
            self.wfile.write(body)
        except (BrokenPipeError, ConnectionResetError):
            # The poller hung up mid-response; nothing to answer, just
            # count it so /metrics shows flaky clients.
            self.server.scheduler.registry.counter("service.http.disconnects").inc()
            self.close_connection = True

    def _no_content(self) -> None:
        try:
            self.send_response(204)
            self.send_header("Content-Length", "0")
            self.end_headers()
        except (BrokenPipeError, ConnectionResetError):
            self.server.scheduler.registry.counter("service.http.disconnects").inc()
            self.close_connection = True

    def _error(self, status: int, message: str, headers: Optional[dict] = None) -> None:
        self._send(status, {"error": message}, headers=headers)

    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        scheduler = self.server.scheduler
        path = self.path.split("?", 1)[0]
        try:
            if path == "/healthz":
                self._send(200, scheduler.healthz())
            elif path == "/metrics":
                self._send(200, scheduler.metrics())
            elif path == "/jobs":
                self._send(200, {"jobs": [job.to_json() for job in scheduler.jobs()]})
            elif path == "/leases":
                self._send(200, {"leases": scheduler.lease_snapshot()})
            elif path.startswith("/jobs/"):
                job_id = unquote(path[len("/jobs/"):])
                self._send(200, scheduler.job(job_id).to_json())
            elif path.startswith("/results/"):
                self._send(200, scheduler.result(unquote(path[len("/results/"):])))
            else:
                self._error(404, f"unknown path {path!r}")
        except UnknownJobError as exc:
            self._error(404, str(exc))
        except ReproError as exc:
            # A real service fault, not a missing resource: say so.
            self._error(500, str(exc))

    def do_POST(self) -> None:  # noqa: N802 (http.server API)
        path = self.path.split("?", 1)[0]
        try:
            length = int(self.headers.get("Content-Length", 0))
            payload = json.loads(self.rfile.read(length) or b"{}")
        except (ValueError, json.JSONDecodeError) as exc:
            self._error(400, f"invalid JSON body: {exc}")
            return
        try:
            if path == "/jobs":
                self._send(202, self.server.scheduler.submit(payload))
            elif path == "/leases":
                self._post_lease(payload)
            elif path.startswith("/leases/"):
                self._post_lease_action(path, payload)
            else:
                self._error(404, f"unknown path {path!r}")
        except BackpressureError as exc:
            self._error(429, str(exc), headers={"Retry-After": "1"})
        except StaleLeaseError as exc:
            self._error(410, str(exc))
        except ConfigurationError as exc:
            self._error(400, str(exc))
        except UnknownJobError as exc:
            self._error(404, str(exc))
        except ReproError as exc:
            self._error(500, str(exc))

    def _post_lease(self, payload: dict) -> None:
        worker = payload.get("worker") if isinstance(payload, dict) else None
        lease = self.server.scheduler.lease(worker)
        if lease is None:
            self._no_content()
        else:
            self._send(200, lease)

    def _post_lease_action(self, path: str, payload: dict) -> None:
        scheduler = self.server.scheduler
        parts = [part for part in path.split("/") if part]
        if len(parts) != 3 or parts[0] != "leases":
            self._error(404, f"unknown path {path!r}")
            return
        lease_id, action = unquote(parts[1]), parts[2]
        if action == "heartbeat":
            self._send(200, scheduler.heartbeat(lease_id))
        elif action == "complete":
            self._send(200, scheduler.complete(lease_id, payload))
        elif action == "fail":
            error = payload.get("error") if isinstance(payload, dict) else None
            self._send(200, scheduler.fail(lease_id, str(error or "worker failure")))
        else:
            self._error(404, f"unknown lease action {action!r}")


def make_server(
    scheduler: Scheduler, host: str = "127.0.0.1", port: int = 0
) -> ServiceHTTPServer:
    """Bind the service on ``host:port`` (0 picks an ephemeral port)."""
    return ServiceHTTPServer((host, port), scheduler)


def serve(
    scheduler: Scheduler,
    host: str = "127.0.0.1",
    port: int = 8765,
    announce: Optional[callable] = print,
) -> None:
    """Run the service until interrupted (the CLI's ``serve`` verb)."""
    server = make_server(scheduler, host, port)
    scheduler.start()
    if announce is not None:
        announce(f"serving on {server.url}", flush=True)
    try:
        server.serve_forever(poll_interval=0.2)
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
        scheduler.stop()
