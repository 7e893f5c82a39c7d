"""Scheduler of the experiment service: one lease-based execution path.

The :class:`Scheduler` owns the whole job lifecycle: submissions are
validated into :class:`~repro.service.jobs.Job` records, coalesced on
their content-addressed result key (a duplicate of a queued/running
job attaches to it; a duplicate of a completed one is served from the
result store), and handed out from a tenant-fair priority queue
through the **lease protocol** — :meth:`lease` / :meth:`heartbeat` /
:meth:`complete` / :meth:`fail`.  These verbs and the job verbs
:meth:`submit` / :meth:`wait` / :meth:`result` take the names and
return the JSON documents of the
:class:`~repro.service.client.ServiceClient` methods, so one
:class:`~repro.service.client.JobDispatcher` drives either.  Every attempt runs
under a lease: ``local_workers`` in-process
:class:`~repro.service.worker.WorkerNode` threads call these verbs
directly, remote worker processes call them over HTTP, and
``local_workers=0`` makes the scheduler a pure coordinator.

Failure semantics, identical for every worker:

* an attempt that raises is retried with exponential backoff up to the
  job's retry budget, then the job is marked ``failed``; the retry is
  **delayed** in a heap the reaper flushes back into the queue once
  the backoff elapses (no thread sleeps);
* an attempt still running at its lease's job deadline
  (``grant + timeout``, never extended by heartbeats) counts as
  timed out and is retried within the same budget before the job ends
  ``timed-out``;
* a worker whose lease misses its **heartbeat** deadline (crashed,
  killed, partitioned) loses the job: it is requeued at the front of
  its priority class in FIFO order.  An infrastructure loss does not
  consume the retry budget, but repeated ones (``max_requeues``)
  eventually fail the job instead of poisoning the queue.

``max_queue_depth`` bounds the fresh-submission backlog: past it,
:meth:`submit` raises :class:`~repro.errors.BackpressureError` (the
HTTP layer answers 429).  Duplicates of live jobs and result-store
hits are never rejected — they add no queue pressure.

All durations (uptime, job durations, lease deadlines, backoff
schedules) are monotonic-clock deltas; wall-clock reads only produce
display timestamps.
"""

from __future__ import annotations

import heapq
import itertools
import threading
import time
from typing import Dict, List, Optional, Tuple

from repro import obs, pipeline
from repro.errors import (
    BackpressureError,
    ConfigurationError,
    ServiceError,
    StaleLeaseError,
    UnknownJobError,
)
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
    parse_submission,
)
from repro.service.leases import LeaseManager
from repro.service.queue import JobQueue
from repro.service.results import ResultStore
from repro.service.worker import WorkerNode

#: Idle seconds between an in-process worker's lease attempts.
_LOCAL_POLL = 0.02


class Scheduler:
    """The experiment job service: queue + lease protocol + results."""

    def __init__(
        self,
        local_workers: int = 1,
        default_timeout: Optional[float] = None,
        default_retries: int = 2,
        backoff_base: float = 0.5,
        backoff_factor: float = 2.0,
        backoff_max: float = 30.0,
        max_requeues: int = 3,
        max_queue_depth: Optional[int] = None,
        lease_timeout: float = 30.0,
        reaper_interval: float = 0.05,
        results: Optional[ResultStore] = None,
        registry: Optional[obs.MetricsRegistry] = None,
    ) -> None:
        if local_workers < 0:
            raise ServiceError(f"local_workers must be >= 0, got {local_workers}")
        if max_queue_depth is not None and max_queue_depth < 1:
            raise ServiceError(
                f"max_queue_depth must be >= 1 or None, got {max_queue_depth}"
            )
        self.local_workers = local_workers
        self.default_timeout = default_timeout
        self.default_retries = default_retries
        self.backoff_base = backoff_base
        self.backoff_factor = backoff_factor
        self.backoff_max = backoff_max
        self.max_requeues = max_requeues
        self.max_queue_depth = max_queue_depth
        self.reaper_interval = reaper_interval
        self.queue = JobQueue()
        self.leases = LeaseManager(timeout=lease_timeout)
        self.results = results if results is not None else ResultStore()
        self._lock = threading.Lock()
        self._jobs: Dict[str, Job] = {}
        self._live_by_key: Dict[str, Job] = {}
        #: Retry backlog: (ready_monotonic, tiebreak, job) heap the
        #: reaper flushes back into the queue once backoff elapses.
        self._delayed: List[Tuple[float, int, Job]] = []
        #: worker name -> last-seen monotonic stamp (lease or heartbeat).
        self._workers_seen: Dict[str, float] = {}
        self._ids = itertools.count(1)
        self._delay_ids = itertools.count(1)
        self._counters = {
            "submitted": 0,
            "deduped": 0,
            "cache_hits": 0,
            "completed": 0,
            "failed": 0,
            "retries": 0,
            "timeouts": 0,
            "requeues": 0,
            "rejected": 0,
            "leases": 0,
            "heartbeats": 0,
            "lease_expiries": 0,
        }
        self._threads: List[threading.Thread] = []
        self._stop = threading.Event()
        self._started_at = time.time()  # display timestamp only
        self._started_monotonic = time.monotonic()
        #: Metrics registry mirror: every lifecycle counter also lands
        #: here as ``service.<name>``, next to the simulator-level
        #: series (cache.*, bus.*, span.*) the workers publish, so one
        #: ``/metrics`` read shows queue and simulation health together.
        self.registry = registry if registry is not None else obs.registry()

    def _count(self, name: str, amount: int = 1) -> None:
        self._counters[name] += amount
        self.registry.counter(f"service.{name}").inc(amount)

    # -- lifecycle ---------------------------------------------------

    def start(self) -> "Scheduler":
        """Spawn the in-process worker threads and the lease reaper."""
        if self._threads:
            return self
        self._stop.clear()
        for index in range(self.local_workers):
            node = WorkerNode(client=self, worker_id=f"local-{index}", poll=_LOCAL_POLL)
            self._spawn(f"repro-local-{index}", node.run, stop=self._stop)
        self._spawn("repro-lease-reaper", self._reaper_loop)
        return self

    def _spawn(self, name: str, target, **kwargs) -> None:
        thread = threading.Thread(target=target, kwargs=kwargs, name=name, daemon=True)
        thread.start()
        self._threads.append(thread)

    def stop(self, timeout: float = 5.0) -> None:
        """Stop the worker threads and the reaper."""
        self._stop.set()
        for thread in self._threads:
            thread.join(timeout=timeout)
        self._threads.clear()

    # -- submission --------------------------------------------------

    def submit(self, payload: Dict) -> Dict:
        """Validate and enqueue a submission; returns the job record
        with a ``deduped`` flag (the ``POST /jobs`` document).

        Duplicate of a live (queued/running) job → that job, deduped.
        Duplicate of a stored result → a new job born ``done`` with the
        cached payload (a result-store hit).  Otherwise a fresh job is
        queued — unless the queue already sits at ``max_queue_depth``,
        in which case :class:`~repro.errors.BackpressureError` asks the
        client to retry later (deduped and cached submissions are never
        rejected: they add no queue pressure).
        """
        spec, options = parse_submission(payload)
        key = spec.result_key()
        with self._lock:
            self._count("submitted")
            live = self._live_by_key.get(key)
            if live is not None and live.state not in TERMINAL_STATES:
                self._count("deduped")
                return {**live.to_json(), "deduped": True}
        found, _cached = self.results.get(key)
        with self._lock:
            # Re-check: another thread may have queued the same key
            # while the (possibly disk-touching) store lookup ran.
            live = self._live_by_key.get(key)
            if live is not None and live.state not in TERMINAL_STATES:
                self._count("deduped")
                return {**live.to_json(), "deduped": True}
            if not found and self.max_queue_depth is not None:
                if len(self.queue) >= self.max_queue_depth:
                    self._count("rejected")
                    raise BackpressureError(
                        f"queue depth {len(self.queue)} is at the limit "
                        f"({self.max_queue_depth}); retry later"
                    )
            job = Job(
                id=f"job-{next(self._ids)}",
                spec=spec,
                priority=options.get("priority", 0),
                tenant=options.get("tenant", DEFAULT_TENANT),
                timeout=options.get("timeout", self.default_timeout),
                retries=options.get("retries", self.default_retries),
            )
            self._jobs[job.id] = job
            if found:
                self._count("cache_hits")
                job.cached = True
                job.finish(DONE)
                return {**job.to_json(), "deduped": False}
            self._live_by_key[key] = job
            document = {**job.to_json(), "deduped": False}
        self.queue.push(job)
        return document

    def job(self, job_id: str) -> Job:
        with self._lock:
            if job_id not in self._jobs:
                raise UnknownJobError(f"unknown job {job_id!r}")
            return self._jobs[job_id]

    def jobs(self) -> List[Job]:
        with self._lock:
            return list(self._jobs.values())

    def wait(self, job_id: str, timeout: Optional[float] = None) -> Dict:
        """Block until the job reaches a terminal state; returns its record."""
        job = self.job(job_id)
        if not job.terminal.wait(timeout=timeout):
            raise ServiceError(f"{job_id} still {job.state} after {timeout}s")
        return job.to_json()

    def result(self, key: str) -> Dict:
        """Client-facing result lookup (counts into the hit metrics);
        a missing key raises :class:`~repro.errors.UnknownJobError`."""
        found, payload = self.results.get(key)
        if not found:
            raise UnknownJobError(f"no result stored for key {key!r}")
        return payload

    def _backoff_delay(self, attempts: int) -> float:
        """Exponential backoff before attempt ``attempts + 1``."""
        return min(
            self.backoff_base * self.backoff_factor ** (attempts - 1),
            self.backoff_max,
        )

    def _retry_or_finish(self, job: Job, state: str, error: str) -> None:
        """Spend the attempt against the retry budget: queue a delayed
        retry, or finish the job in ``state`` once the budget is gone.
        The caller holds the lock."""
        if job.attempts > job.retries:
            if state == FAILED:
                self._count("failed")
            self._finish(job, state, error)
            return
        self._count("retries")
        job.error = error  # visible while the retry is pending
        job.state = QUEUED
        ready = self.leases.now() + self._backoff_delay(job.attempts)
        heapq.heappush(self._delayed, (ready, next(self._delay_ids), job))

    def _finish(self, job: Job, state: str, error: Optional[str] = None) -> None:
        """Terminal transition; caller holds the lock."""
        job.finish(state, error)
        if self._live_by_key.get(job.result_key) is job:
            del self._live_by_key[job.result_key]

    def _publish_active(self) -> None:
        self.registry.gauge("service.leases_active").set(len(self.leases))

    # -- the lease protocol: lease / heartbeat / complete / fail -------

    def lease(self, worker: str) -> Optional[Dict]:
        """Hand the next queued job to ``worker`` under a lease.

        Returns the lease document (``lease_id``, ``timeout``, ``job``,
        ``payload``), or ``None`` when the queue is empty.  Jobs whose
        result appeared while they sat queued are finished as cache
        hits and skipped.
        """
        if not isinstance(worker, str) or not worker.strip():
            raise ConfigurationError("a lease request needs a non-empty 'worker' name")
        worker = worker.strip()
        while True:
            job = self.queue.pop(timeout=0)
            if job is None:
                return None
            found, _payload = self.results.peek(job.result_key)
            if found:
                with self._lock:
                    job.cached = True
                    self._finish(job, DONE)
                self.leases.forget(job)
                continue
            with self._lock:
                job.state = RUNNING
                job.mark_started()
                job.attempts += 1
                self._count("leases")
                self._workers_seen[worker] = time.monotonic()
            lease = self.leases.grant(job, worker)
            self.registry.counter("service.leases").labels(worker=worker).inc()
            self._publish_active()
            return lease.document()

    def heartbeat(self, lease_id: str) -> Dict:
        """Renew a worker's claim; stale leases raise ``StaleLeaseError``."""
        lease = self.leases.heartbeat(lease_id)
        with self._lock:
            self._count("heartbeats")
            self._workers_seen[lease.worker] = time.monotonic()
        self.registry.counter("service.heartbeats").labels(worker=lease.worker).inc()
        return {"lease_id": lease.id, "timeout": lease.timeout}

    def complete(self, lease_id: str, payload: Dict) -> Dict:
        """A worker delivered its result: store it and finish the job.

        A report on a lease that went stale in flight raises, so the
        worker knows its claim was lost.  Its result is still kept when
        the lease was really granted and ``payload["key"]`` is that
        job's result key — results are content-addressed, so a requeued
        twin coalesces on it.  A report on a lease id that was never
        granted stores nothing.
        """
        try:
            lease = self.leases.release(lease_id)
        except StaleLeaseError:
            self._reap_once()  # settle the lease if it only just expired
            late = self.leases.late(lease_id)
            if (
                late is not None
                and isinstance(payload, dict)
                and payload.get("key") == late.job.result_key
            ):
                self.results.put(late.job.result_key, payload)
            raise
        self.results.put(lease.job.result_key, payload)
        with self._lock:
            self._count("completed")
            self._finish(lease.job, DONE)
        # The result is stored: a late report has nothing left to add.
        self.leases.forget(lease.job)
        self._publish_active()
        return lease.job.to_json()

    def fail(self, lease_id: str, error: str) -> Dict:
        """A worker's attempt raised: consume retry budget with backoff."""
        job = self.leases.release(lease_id).job
        with self._lock:
            self._retry_or_finish(job, FAILED, error)
        self._publish_active()
        return job.to_json()

    def _reaper_loop(self) -> None:
        """Settle expired leases and flush elapsed backoffs."""
        while not self._stop.is_set():
            self._reap_once()
            self._stop.wait(self.reaper_interval)

    def _reap_once(self) -> None:
        overdue, silent = self.leases.harvest_expired()
        lost: List[Job] = []
        with self._lock:
            for lease in overdue:
                self._count("timeouts")
                self._retry_or_finish(lease.job, TIMED_OUT, "attempt timed out")
            for lease in silent:
                # An infrastructure loss: the attempt does not count.
                job = lease.job
                self._count("lease_expiries")
                job.requeues += 1
                job.attempts -= 1
                if job.requeues > self.max_requeues:
                    self._count("failed")
                    self._finish(
                        job,
                        FAILED,
                        f"lease expired repeatedly (last worker: {lease.worker})",
                    )
                else:
                    self._count("requeues")
                    job.state = QUEUED
                    lost.append(job)
            now = self.leases.now()
            ready: List[Job] = []
            while self._delayed and self._delayed[0][0] <= now:
                ready.append(heapq.heappop(self._delayed)[2])
        for job in lost:
            self.queue.push(job, front=True)
        for job in ready:
            self.queue.push(job)  # a retry, not an infrastructure loss: back lane
        self._publish_active()

    # -- introspection -----------------------------------------------

    def lease_snapshot(self) -> List[Dict]:
        """Active leases as JSON records (the ``GET /leases`` document)."""
        now = time.monotonic()
        return [lease.to_json(now) for lease in self.leases.active()]

    def metrics(self) -> Dict:
        """The `/metrics` document: queue, states, counters, stores,
        leases, plus the obs registry (service.* mirrors, simulator-
        level cache/bus counters and span histograms)."""
        with self._lock:
            by_state = {state: 0 for state in STATES}
            for job in self._jobs.values():
                by_state[job.state] += 1
            counters = dict(self._counters)
            delayed = len(self._delayed)
            workers_seen = len(self._workers_seen)
        self.registry.gauge("service.queue_depth").set(len(self.queue))
        tenants = self.queue.tenant_depths()
        for tenant, depth in tenants.items():
            self.registry.gauge("service.queue_depth").labels(tenant=tenant).set(depth)
        for state, count in by_state.items():
            self.registry.gauge("service.jobs").labels(state=state).set(count)
        self.registry.gauge("service.workers_known").set(workers_seen)
        return {
            "uptime_seconds": time.monotonic() - self._started_monotonic,
            "started_at": self._started_at,
            "local_workers": self.local_workers,
            "local_execution": self.local_workers > 0,
            "queue_depth": len(self.queue),
            "max_queue_depth": self.max_queue_depth,
            "tenants": tenants,
            "delayed_retries": delayed,
            "jobs": by_state,
            "counters": counters,
            "leases": {
                "active": len(self.leases),
                "timeout": self.leases.timeout,
                "workers_known": workers_seen,
            },
            "result_store": self.results.snapshot(),
            "pipeline": pipeline.stats(),
            "obs": self.registry.snapshot(),
        }

    def healthz(self) -> Dict:
        return {
            "status": "ok",
            "local_workers": self.local_workers,
            "local_execution": self.local_workers > 0,
            "threads": sum(thread.is_alive() for thread in self._threads),
            "uptime_seconds": time.monotonic() - self._started_monotonic,
        }
