"""Experiment job service: scheduler, lease-based workers,
content-addressed result store, stdlib HTTP front end.

The figure sweeps stop being blocking foreground CLI runs: a
long-running ``repro-experiments serve`` process accepts declarative
job submissions over HTTP and stores every result content-addressed by
the job's pipeline key — duplicate submissions coalesce into one
computation and repeat clients get cache hits.

Every attempt runs under a lease (per-job timeout, bounded retries
with exponential backoff, requeue when a worker stops heartbeating).
The coordinator's own in-process :class:`WorkerNode` threads and
remote ``WorkerNode`` processes pulling over HTTP use the same four
lease verbs, so the service scales out as a small cluster with no
second execution path; a shared ``REPRO_ARTIFACT_DIR`` disk tier lets
any node serve any cached result.

Submitters have one protocol too: :class:`Scheduler` and
:class:`ServiceClient` answer ``submit`` / ``wait`` / ``result`` with
the same JSON documents, so one :class:`JobDispatcher` runs job waves
in-process or over HTTP (``submit --wait``).

Public surface::

    from repro.service import JobDispatcher, Scheduler, ServiceClient, WorkerNode, serve

    scheduler = Scheduler(local_workers=2).start()
    job = scheduler.submit({"scene": "truc640", "scale": 0.125})
    scheduler.wait(job["id"])
    JobDispatcher(scheduler).run_many([{"experiment": "table1"}])

    serve(scheduler, port=8765)          # blocking HTTP server
    ServiceClient("http://127.0.0.1:8765").run({"experiment": "table1"})

    WorkerNode("http://127.0.0.1:8765").run()   # one fleet member
"""

from repro.service.jobs import (
    DEFAULT_TENANT,
    DONE,
    FAILED,
    QUEUED,
    RUNNING,
    STATES,
    TERMINAL_STATES,
    TIMED_OUT,
    Job,
    JobSpec,
    execute_payload,
    parse_submission,
    spec_from_payload,
)
from repro.service.client import JobDispatcher, ServiceClient
from repro.service.http import ServiceHTTPServer, make_server, serve
from repro.service.leases import Lease, LeaseManager
from repro.service.queue import JobQueue
from repro.service.results import RESULT_STAGE, ResultStore
from repro.service.scheduler import Scheduler
from repro.service.worker import WorkerNode, default_worker_id

__all__ = [
    "DEFAULT_TENANT",
    "DONE",
    "FAILED",
    "QUEUED",
    "RUNNING",
    "STATES",
    "TERMINAL_STATES",
    "TIMED_OUT",
    "Job",
    "JobDispatcher",
    "JobQueue",
    "JobSpec",
    "Lease",
    "LeaseManager",
    "RESULT_STAGE",
    "ResultStore",
    "Scheduler",
    "ServiceClient",
    "ServiceHTTPServer",
    "WorkerNode",
    "default_worker_id",
    "execute_payload",
    "make_server",
    "parse_submission",
    "serve",
    "spec_from_payload",
]
