"""Worker node: pulls jobs from a coordinator through the lease protocol.

One :class:`WorkerNode` is one member of the fleet.  Its loop is the
lease protocol from the worker's side::

    lease = client.lease(name)            # POST /leases; None: sleep, retry
    ... execute the payload ...
    client.heartbeat(lease_id)            # background, every timeout/3
    client.complete(lease_id, result)     # or client.fail(lease_id, error)

The client is either a :class:`~repro.service.client.ServiceClient`
talking HTTP to a remote coordinator (the CLI ``worker`` verb), or the
:class:`~repro.service.scheduler.Scheduler` itself, which implements
the same four verbs: the coordinator's own local workers are
``WorkerNode`` threads, so every attempt — local or remote — runs
through this one loop.  Each attempt is timed as a ``service.execute``
span.

Execution calls :func:`~repro.service.jobs.execute_payload`; a remote
worker sharing ``REPRO_ARTIFACT_DIR`` with the coordinator (and the
rest of the fleet) hydrates precomputed pipeline stages from the
shared disk tier and publishes results any node can serve.

If a remote worker dies mid-job (SIGKILL, OOM, container eviction) its
heartbeats stop, the coordinator's lease expires, and the job is
requeued at the front of its priority class — no worker-side cleanup
is needed, which is exactly what makes the node disposable.

A stale-lease answer (status 410) on heartbeat or report means the
coordinator already took the job back (heartbeats stopped, or the
attempt ran past the job's timeout); the worker abandons the attempt
and pulls fresh work.  A late result is still kept when the
coordinator granted the lease, because results are content-addressed.
"""

from __future__ import annotations

import os
import socket
import threading
from typing import Any, Callable, Dict, Optional

from repro.errors import ServiceError
from repro.obs.spans import span
from repro.service.client import ServiceClient
from repro.service.jobs import execute_payload


def default_worker_id() -> str:
    """A fleet-unique default name: ``<hostname>-<pid>``."""
    return f"{socket.gethostname()}-{os.getpid()}"


class WorkerNode:
    """One pull-based worker; ``client`` defaults to HTTP at ``url``."""

    def __init__(
        self,
        url: Optional[str] = None,
        worker_id: Optional[str] = None,
        poll: float = 0.5,
        executor: Callable[[Dict], Dict] = execute_payload,
        client: Optional[Any] = None,
        announce: Optional[Callable[[str], None]] = None,
    ) -> None:
        if client is None:
            if url is None:
                raise ServiceError("a WorkerNode needs a coordinator url or client")
            client = ServiceClient(url)
        self.url = url
        self.client = client
        self.worker_id = worker_id if worker_id else default_worker_id()
        self.poll = poll
        self.executor = executor
        self._announce = announce
        self.completed = 0
        self.failed = 0
        self.abandoned = 0

    def _say(self, message: str) -> None:
        if self._announce is not None:
            self._announce(f"[{self.worker_id}] {message}")

    # -- the pull loop ----------------------------------------------

    def run(
        self,
        max_jobs: Optional[int] = None,
        stop: Optional[threading.Event] = None,
    ) -> int:
        """Pull-execute-report until ``stop`` is set (or ``max_jobs``
        attempts finished); returns the number of completed jobs."""
        stop = stop if stop is not None else threading.Event()
        attempts = 0
        self._say(f"pulling from {self.url or 'the in-process scheduler'}")
        while not stop.is_set():
            if max_jobs is not None and attempts >= max_jobs:
                break
            try:
                lease = self.client.lease(self.worker_id)
            except ServiceError as exc:
                self._say(f"lease request failed ({exc}); backing off")
                stop.wait(self.poll)
                continue
            if lease is None:
                stop.wait(self.poll)
                continue
            attempts += 1
            self._run_lease(lease)
        self._say(
            f"exiting: {self.completed} completed, {self.failed} failed, "
            f"{self.abandoned} abandoned"
        )
        return self.completed

    def _run_lease(self, lease: Dict) -> None:
        lease_id = lease["lease_id"]
        job = lease["job"]
        payload = lease["payload"]
        interval = max(lease.get("timeout", 30.0) / 3.0, 0.05)
        self._say(f"leased {job['id']} ({lease_id})")
        heartbeat_stop = threading.Event()
        heartbeat = threading.Thread(
            target=self._heartbeat_loop,
            args=(lease_id, interval, heartbeat_stop),
            name=f"repro-heartbeat-{lease_id}",
            daemon=True,
        )
        heartbeat.start()
        try:
            kind = job["result_key"].split("/", 1)[0]
            with span("service.execute", kind=kind, job=job["id"]):
                result = self.executor(payload)
        except Exception as exc:  # the job's failure, not the worker's
            heartbeat_stop.set()
            heartbeat.join()
            self._report_failure(lease_id, job, str(exc) or repr(exc))
            return
        heartbeat_stop.set()
        heartbeat.join()
        self._deliver(lease_id, job, result)

    def _heartbeat_loop(
        self, lease_id: str, interval: float, stop: threading.Event
    ) -> None:
        while not stop.wait(interval):
            try:
                self.client.heartbeat(lease_id)
            except ServiceError as exc:
                if getattr(exc, "status", None) == 410:
                    # The coordinator took the job back; no point
                    # renewing.  Delivery below will be told the same.
                    return
                # Transient transport trouble: keep trying until the
                # lease genuinely expires server-side.
                self._say(f"heartbeat for {lease_id} failed ({exc})")

    def _deliver(self, lease_id: str, job: Dict, result: Dict) -> None:
        try:
            self.client.complete(lease_id, result)
        except ServiceError as exc:
            if getattr(exc, "status", None) == 410:
                self.abandoned += 1
                self._say(f"{job['id']} was re-assigned before delivery")
                return
            self._say(f"could not deliver {job['id']} ({exc})")
            self.failed += 1
            return
        self.completed += 1
        self._say(f"completed {job['id']}")

    def _report_failure(self, lease_id: str, job: Dict, error: str) -> None:
        try:
            self.client.fail(lease_id, error)
        except ServiceError as exc:
            # 410 (the job was taken back) or no answer at all: the
            # coordinator settles this attempt without us.
            if getattr(exc, "status", None) in (None, 410):
                self.abandoned += 1
            else:
                self.failed += 1
            self._say(f"could not report failure of {job['id']} ({exc})")
            return
        self.failed += 1
        self._say(f"{job['id']} failed: {error}")
