"""Work leases: the only way an attempt runs.

Every worker — an in-process :class:`~repro.service.worker.WorkerNode`
thread of the coordinator or a remote one pulling over HTTP — holds a
:class:`Lease` while it executes a job: a claim with two deadlines.

* The **heartbeat deadline** is renewed by every heartbeat.  If
  heartbeats stop (worker crashed, network partition, OOM-killed
  container) the lease expires and the scheduler requeues the job at
  the front of its priority class without consuming its retry budget.
* The **job deadline** is ``grant + job.timeout`` when the job has a
  timeout.  Heartbeats never extend it; past it the scheduler counts
  the attempt as timed out and retries it or finishes the job
  ``timed-out``.

All deadlines are **monotonic-clock** deltas: a wall-clock adjustment
on the coordinator can never spuriously expire (or immortalize) a
lease.  The manager is its own small lock domain; the scheduler calls
into it without holding its job lock.

Harvested leases are remembered until their worker's late report
arrives (or the scheduler forgets the job), so a late completion can
be checked against the job it was granted for.
"""

from __future__ import annotations

import itertools
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import StaleLeaseError
from repro.service.jobs import Job


@dataclass
class Lease:
    """One worker's claim on one running job."""

    id: str
    job: Job
    worker: str
    timeout: float
    granted_monotonic: float
    expires_monotonic: float
    #: Hard end of the attempt (``grant + job.timeout``); ``None`` when
    #: the job has no timeout.  Heartbeats never move it.
    deadline_monotonic: Optional[float] = None
    heartbeats: int = field(default=0)

    def remaining(self, now: float) -> float:
        """Seconds until the heartbeat deadline (negative = expired)."""
        return self.expires_monotonic - now

    def overdue(self, now: float) -> bool:
        """Whether the attempt ran past the job's timeout."""
        return self.deadline_monotonic is not None and now >= self.deadline_monotonic

    def expired(self, now: float) -> bool:
        """Whether the lease is over, by either deadline."""
        return self.remaining(now) <= 0 or self.overdue(now)

    def document(self) -> Dict:
        """What a worker receives when it takes the lease."""
        return {
            "lease_id": self.id,
            "timeout": self.timeout,
            "job": self.job.to_json(),
            "payload": self.job.spec.to_payload(),
        }

    def to_json(self, now: float) -> Dict:
        return {
            "lease_id": self.id,
            "job_id": self.job.id,
            "worker": self.worker,
            "timeout": self.timeout,
            "heartbeats": self.heartbeats,
            "expires_in": self.remaining(now),
        }


def _stale(lease_id: str) -> StaleLeaseError:
    return StaleLeaseError(
        f"lease {lease_id!r} is unknown or expired; abandon the attempt"
    )


class LeaseManager:
    """Tracks active leases and harvests the expired ones."""

    def __init__(
        self,
        timeout: float = 30.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if timeout <= 0:
            raise StaleLeaseError(f"lease timeout must be positive, got {timeout}")
        self.timeout = timeout
        self._clock = clock
        self._lock = threading.Lock()
        self._leases: Dict[str, Lease] = {}
        #: Expired leases whose worker may still report late.
        self._harvested: Dict[str, Lease] = {}
        self._ids = itertools.count(1)

    def now(self) -> float:
        """The manager's monotonic clock (a seam for fake-clock tests)."""
        return self._clock()

    def grant(self, job: Job, worker: str) -> Lease:
        """Create a lease on ``job`` for ``worker``."""
        now = self._clock()
        with self._lock:
            lease = Lease(
                id=f"lease-{next(self._ids)}",
                job=job,
                worker=worker,
                timeout=self.timeout,
                granted_monotonic=now,
                expires_monotonic=now + self.timeout,
                deadline_monotonic=None if job.timeout is None else now + job.timeout,
            )
            self._leases[lease.id] = lease
            return lease

    def heartbeat(self, lease_id: str) -> Lease:
        """Extend a live lease's heartbeat deadline; stale ids raise."""
        now = self._clock()
        with self._lock:
            lease = self._leases.get(lease_id)
            if lease is None or lease.expired(now):
                raise _stale(lease_id)
            lease.expires_monotonic = now + lease.timeout
            lease.heartbeats += 1
            return lease

    def release(self, lease_id: str) -> Lease:
        """Remove and return a live lease (worker completed/failed it)."""
        now = self._clock()
        with self._lock:
            lease = self._leases.get(lease_id)
            if lease is None or lease.expired(now):
                # Expired while the report was in flight: the reaper
                # may already have requeued or finished the job.
                raise _stale(lease_id)
            del self._leases[lease_id]
            return lease

    def harvest_expired(self) -> Tuple[List[Lease], List[Lease]]:
        """Remove every expired lease (the reaper's tick).

        Returns ``(overdue, silent)``: leases whose attempt ran past the
        job's timeout, and leases whose worker stopped heartbeating.
        """
        now = self._clock()
        overdue: List[Lease] = []
        silent: List[Lease] = []
        with self._lock:
            for lease in list(self._leases.values()):
                if not lease.expired(now):
                    continue
                del self._leases[lease.id]
                self._harvested[lease.id] = lease
                (overdue if lease.overdue(now) else silent).append(lease)
        return overdue, silent

    def late(self, lease_id: str) -> Optional[Lease]:
        """Pop a harvested lease whose worker reports late; ``None`` for
        an id that was never granted or is already forgotten."""
        with self._lock:
            return self._harvested.pop(lease_id, None)

    def forget(self, job: Job) -> None:
        """Drop the harvested leases of ``job``."""
        with self._lock:
            for lease_id in [
                lease.id for lease in self._harvested.values() if lease.job is job
            ]:
                del self._harvested[lease_id]

    def active(self) -> List[Lease]:
        """Live leases, oldest grant first (for ``GET /leases``)."""
        with self._lock:
            return sorted(
                self._leases.values(), key=lambda lease: lease.granted_monotonic
            )

    def __len__(self) -> int:
        with self._lock:
            return len(self._leases)
