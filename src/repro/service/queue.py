"""Thread-safe tenant-fair priority queue feeding the scheduler.

Dispatch order is decided in three tiers:

1. **priority class** — lower ``job.priority`` values always run first;
2. **requeue lane** — jobs pushed with ``front=True`` (recovery
   from a lease that missed its heartbeat) drain before fresh submissions of the same
   priority, and replay in **FIFO order among themselves**: work that
   entered the system earlier is re-dispatched earlier;
3. **tenant fairness** — fresh jobs of the same priority round-robin
   across tenants (FIFO within each tenant), so one tenant flooding
   the queue cannot starve another's submissions.

With a single tenant this degenerates to plain priority-then-FIFO,
which is what the original single-process scheduler promised.
"""

from __future__ import annotations

import itertools
import threading
from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

from repro.service.jobs import Job

#: Lane indices used for snapshot ordering (requeues drain first).
_REQUEUE_LANE = 0
_FRESH_LANE = 1


class JobQueue:
    """Blocking priority queue of :class:`~repro.service.jobs.Job`."""

    def __init__(self) -> None:
        self._condition = threading.Condition()
        self._sequence = itertools.count()
        #: priority -> FIFO of requeued (sequence, job) pairs.
        self._requeued: Dict[int, Deque[Tuple[int, Job]]] = {}
        #: priority -> tenant -> FIFO of fresh (sequence, job) pairs.
        self._fresh: Dict[int, Dict[str, Deque[Tuple[int, Job]]]] = {}
        #: priority -> tenant served last, for round-robin rotation.
        self._last_tenant: Dict[int, str] = {}
        self._size = 0

    def push(self, job: Job, front: bool = False) -> None:
        """Enqueue a job; ``front=True`` puts it in its priority class's
        requeue lane (drained first, FIFO among requeues)."""
        sequence = next(self._sequence)
        with self._condition:
            if front:
                lane = self._requeued.setdefault(job.priority, deque())
                lane.append((sequence, job))
            else:
                tenants = self._fresh.setdefault(job.priority, {})
                tenants.setdefault(job.tenant, deque()).append((sequence, job))
            self._size += 1
            self._condition.notify()

    def pop(self, timeout: Optional[float] = None) -> Optional[Job]:
        """Dequeue the next job, or ``None`` if none arrived in time."""
        with self._condition:
            if not self._size and not self._condition.wait_for(
                lambda: bool(self._size), timeout=timeout
            ):
                return None
            return self._pop_locked()

    def _pop_locked(self) -> Job:
        """Remove and return the next job; caller holds the lock."""
        best: Optional[int] = None
        for priority, lane in self._requeued.items():
            if lane and (best is None or priority < best):
                best = priority
        for priority, tenants in self._fresh.items():
            if any(tenants.values()) and (best is None or priority < best):
                best = priority
        assert best is not None, "pop on an empty queue"
        lane = self._requeued.get(best)
        if lane:
            _sequence, job = lane.popleft()
        else:
            tenants = self._fresh[best]
            names = sorted(name for name, fifo in tenants.items() if fifo)
            tenant = self._next_tenant(best, names)
            self._last_tenant[best] = tenant
            _sequence, job = tenants[tenant].popleft()
        self._size -= 1
        return job

    def _next_tenant(self, priority: int, names: List[str]) -> str:
        """Round-robin choice: the first tenant after the last served."""
        last = self._last_tenant.get(priority)
        if last is not None:
            for name in names:
                if name > last:
                    return name
        return names[0]

    def snapshot(self) -> List[Job]:
        """The queued jobs in approximate dispatch order (priority, then
        requeue lane, then arrival); tenant round-robin interleaving is
        not reflected.  For introspection only."""
        with self._condition:
            entries = [
                (priority, _REQUEUE_LANE, sequence, job)
                for priority, lane in self._requeued.items()
                for sequence, job in lane
            ]
            entries.extend(
                (priority, _FRESH_LANE, sequence, job)
                for priority, tenants in self._fresh.items()
                for fifo in tenants.values()
                for sequence, job in fifo
            )
            return [job for _p, _lane, _s, job in sorted(
                entries, key=lambda entry: entry[:3]
            )]

    def tenant_depths(self) -> Dict[str, int]:
        """Queued-job counts per tenant (requeues under their tenant)."""
        with self._condition:
            depths: Dict[str, int] = {}
            for lane in self._requeued.values():
                for _sequence, job in lane:
                    depths[job.tenant] = depths.get(job.tenant, 0) + 1
            for tenants in self._fresh.values():
                for name, fifo in tenants.items():
                    if fifo:
                        depths[name] = depths.get(name, 0) + len(fifo)
            return depths

    def __len__(self) -> int:
        with self._condition:
            return self._size
