"""Python client for the experiment job service (stdlib ``urllib``).

Usage::

    from repro.service import ServiceClient

    client = ServiceClient("http://127.0.0.1:8765")
    job = client.submit({"scene": "truc640", "scale": 0.125, "processors": 16})
    done = client.wait(job["id"])
    print(client.result(done["result_key"])["text"])

Errors come back as :class:`~repro.errors.ServiceError` carrying the
server's ``error`` message (or the transport failure).

:class:`JobDispatcher` is the one submit/wait/result loop: it runs
job waves on a client or, identically, on an in-process scheduler.
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request
from typing import Any, Dict, List, Optional, Sequence
from urllib.parse import quote

from repro.errors import ServiceError
from repro.service.jobs import DONE, TERMINAL_STATES


class JobDispatcher:
    """Run waves of job payloads on a service and collect their results.

    ``service`` is a :class:`ServiceClient` or an in-process
    :class:`~repro.service.scheduler.Scheduler`: both answer
    ``submit`` / ``wait`` / ``result`` with the same JSON documents.
    The whole wave is submitted before the first wait, so the workers
    behind the service run its jobs concurrently.
    """

    def __init__(self, service: Any, timeout: float = 600.0) -> None:
        self.service = service
        self.timeout = timeout

    def run_many(self, payloads: Sequence[Dict]) -> List[Dict]:
        """Submit the whole wave, then collect each job's result in order."""
        jobs = [self.service.submit(dict(payload)) for payload in payloads]
        return [self.collect(job) for job in jobs]

    def collect(self, job: Dict) -> Dict:
        """Wait for a submitted job; its result payload, or raise."""
        done = self.service.wait(job["id"], timeout=self.timeout)
        if done["state"] != DONE:
            raise ServiceError(
                f"{done['id']} ended {done['state']}: {done.get('error') or 'no error recorded'}"
            )
        return self.service.result(done["result_key"])


class ServiceClient:
    """Talks to one running ``repro-experiments serve`` instance."""

    def __init__(self, base_url: str, timeout: float = 30.0) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout

    # -- endpoints ---------------------------------------------------

    def submit(self, payload: Dict) -> Dict:
        """POST a job description; returns the job record (+ ``deduped``)."""
        return self._request("POST", "/jobs", body=payload)

    def job(self, job_id: str) -> Dict:
        return self._request("GET", f"/jobs/{quote(job_id, safe='')}")

    def jobs(self) -> Dict:
        return self._request("GET", "/jobs")

    def result(self, key: str) -> Dict:
        """Fetch a content-addressed result payload by its key."""
        return self._request("GET", f"/results/{quote(key, safe='')}")

    def healthz(self) -> Dict:
        return self._request("GET", "/healthz")

    def metrics(self) -> Dict:
        return self._request("GET", "/metrics")

    # -- worker lease protocol ---------------------------------------

    def lease(self, worker: str) -> Optional[Dict]:
        """Pull the next job under a lease; ``None`` if the queue is empty."""
        return self._request("POST", "/leases", body={"worker": worker})

    def heartbeat(self, lease_id: str) -> Dict:
        """Renew a lease; raises ``ServiceError`` (status 410) if stale."""
        return self._request(
            "POST", f"/leases/{quote(lease_id, safe='')}/heartbeat", body={}
        )

    def complete(self, lease_id: str, payload: Dict) -> Dict:
        """Deliver a leased job's result payload; returns the job record."""
        return self._request(
            "POST", f"/leases/{quote(lease_id, safe='')}/complete", body=payload
        )

    def fail(self, lease_id: str, error: str) -> Dict:
        """Report a leased job's execution failure; returns the job record."""
        return self._request(
            "POST", f"/leases/{quote(lease_id, safe='')}/fail", body={"error": error}
        )

    def leases(self) -> Dict:
        """Active leases across the fleet (introspection)."""
        return self._request("GET", "/leases")

    # -- conveniences ------------------------------------------------

    def wait(
        self, job_id: str, timeout: float = 600.0, poll: float = 0.2
    ) -> Dict:
        """Poll until the job reaches a terminal state; returns it."""
        deadline = time.monotonic() + timeout
        while True:
            job = self.job(job_id)
            if job["state"] in TERMINAL_STATES:
                return job
            if time.monotonic() >= deadline:
                raise ServiceError(
                    f"{job_id} still {job['state']!r} after {timeout}s"
                )
            time.sleep(poll)

    def run(self, payload: Dict, timeout: float = 600.0) -> Dict:
        """Submit, wait, and return the result payload (or raise)."""
        return JobDispatcher(self, timeout=timeout).run_many([payload])[0]

    # -- transport ---------------------------------------------------

    def _request(self, method: str, path: str, body: Optional[Dict] = None) -> Optional[Dict]:
        request = urllib.request.Request(
            self.base_url + path,
            method=method,
            data=None if body is None else json.dumps(body).encode("utf-8"),
            headers={"Content-Type": "application/json"},
        )
        try:
            with urllib.request.urlopen(request, timeout=self.timeout) as response:
                if response.status == 204:
                    return None
                return json.loads(response.read().decode("utf-8"))
        except urllib.error.HTTPError as exc:
            try:
                message = json.loads(exc.read().decode("utf-8")).get("error", str(exc))
            except Exception:
                message = str(exc)
            error = ServiceError(f"{method} {path}: {message}")
            error.status = exc.code  # lets callers branch on 410/429
            raise error from exc
        except urllib.error.URLError as exc:
            raise ServiceError(
                f"cannot reach service at {self.base_url}: {exc.reason}"
            ) from exc
