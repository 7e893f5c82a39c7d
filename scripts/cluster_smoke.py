#!/usr/bin/env python
"""CI smoke test for the multi-worker job-service cluster.

Boots a pure coordinator (``serve --no-local-workers``) plus three
``repro-experiments worker`` processes sharing one
``REPRO_ARTIFACT_DIR`` disk tier, then asserts the cluster story
end to end:

1. Three identical submissions coalesce into exactly one execution
   (cross-worker dedup through the shared content-addressed store).
2. SIGKILL-ing the worker that holds a lease mid-job lets the lease
   expire; the coordinator requeues the job and a surviving worker
   completes it (``lease_expiries`` and ``requeues`` both advance).
3. Resubmitting a finished payload is a cache hit — no worker runs.
4. A job whose ``timeout`` is shorter than its run (``retries: 0``)
   ends ``timed-out`` at its lease's deadline and ``timeouts``
   advances: the coordinator enforces job timeouts on remote workers.

    PYTHONPATH=src python scripts/cluster_smoke.py
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.service import ServiceClient  # noqa: E402

QUICK = {"scene": "truc640", "scale": 0.0625, "processors": 4, "size": 16}
SLOW = {"scene": "truc640", "scale": 0.5, "processors": 16, "size": 16}
#: Runs for most of a second on one worker; allowed a tenth of one.
TOO_SLOW = {
    "scene": "truc640", "scale": 0.5, "processors": 16, "size": 8,
    "timeout": 0.1, "retries": 0,
}
WORKER_IDS = ("w1", "w2", "w3")
LEASE_TIMEOUT = 2.0


def _spawn(argv, env):
    return subprocess.Popen(
        argv,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
        cwd=ROOT,
    )


def _wait_for_lease(client, job_id, timeout=30.0):
    """Return the worker id currently holding ``job_id``'s lease."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        for lease in client.leases()["leases"]:
            if lease["job_id"] == job_id:
                return lease["worker"]
        time.sleep(0.05)
    raise AssertionError(f"no worker leased job {job_id} within {timeout}s")


def main() -> int:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    processes = []
    with tempfile.TemporaryDirectory(prefix="repro-cluster-") as shared:
        env["REPRO_ARTIFACT_DIR"] = shared
        coordinator = _spawn(
            [
                sys.executable, "-m", "repro.cli", "serve",
                "--port", "0",
                "--no-local-workers",
                "--lease-timeout", str(LEASE_TIMEOUT),
                "--max-queue-depth", "64",
            ],
            env,
        )
        processes.append(coordinator)
        try:
            banner = coordinator.stdout.readline().strip()
            assert banner.startswith("serving on http://"), f"bad banner: {banner!r}"
            url = banner.split("serving on ", 1)[1]
            client = ServiceClient(url)

            workers = {}
            for worker_id in WORKER_IDS:
                proc = _spawn(
                    [
                        sys.executable, "-m", "repro.cli", "worker",
                        "--url", url,
                        "--worker-id", worker_id,
                        "--poll", "0.1",
                    ],
                    env,
                )
                workers[worker_id] = proc
                processes.append(proc)

            health = client.healthz()
            assert not health["local_execution"], health

            # 1. Triplicate submission -> exactly one execution.
            submissions = [client.submit(QUICK) for _ in range(3)]
            done = client.wait(submissions[0]["id"], timeout=600)
            assert done["state"] == "done", done
            metrics = client.metrics()
            counters = metrics["counters"]
            assert counters["submitted"] == 3, counters
            assert counters["completed"] == 1, counters
            assert counters["deduped"] + counters["cache_hits"] == 2, counters
            assert metrics["result_store"]["misses"] == 1, metrics["result_store"]
            print("cluster smoke: dedup OK — 3 submissions, 1 execution")

            # 2. Kill the lease holder mid-job; the job must survive.
            slow = client.submit(SLOW)
            victim = _wait_for_lease(client, slow["id"])
            assert victim in workers, f"unknown lease holder {victim!r}"
            workers[victim].kill()
            workers[victim].wait(timeout=10)
            done = client.wait(slow["id"], timeout=600)
            assert done["state"] == "done", done
            assert done["requeues"] >= 1, done
            metrics = client.metrics()
            counters = metrics["counters"]
            assert counters["lease_expiries"] >= 1, counters
            assert counters["requeues"] >= 1, counters
            assert counters["completed"] == 2, counters
            survivors_leased = [
                worker
                for worker in WORKER_IDS
                if worker != victim
                and metrics["obs"]["counters"].get(f"service.leases{{worker={worker}}}", 0)
            ]
            assert survivors_leased, metrics["obs"]["counters"]
            print(
                f"cluster smoke: failover OK — killed {victim} mid-job, "
                f"job requeued and finished (requeues={done['requeues']})"
            )

            # 3. The finished result is served from the shared tier.
            again = client.submit(SLOW)
            assert again["state"] == "done" and again["cached"], again
            assert client.metrics()["counters"]["completed"] == 2

            text = client.result(done["result_key"])["text"]
            assert "truc640" in text, text

            # 4. A remote attempt past its job timeout ends the job.
            timeouts_before = client.metrics()["counters"]["timeouts"]
            late = client.wait(client.submit(TOO_SLOW)["id"], timeout=600)
            assert late["state"] == "timed-out", late
            assert late["attempts"] == 1, late
            counters = client.metrics()["counters"]
            assert counters["timeouts"] == timeouts_before + 1, counters
            print(
                f"cluster smoke: timeout OK — a {TOO_SLOW['timeout']}s job "
                f"ended {late['state']} on a remote worker"
            )
            print(f"cluster smoke: OK — {len(WORKER_IDS)} workers, {text.strip()}")
            return 0
        finally:
            for proc in processes:
                proc.terminate()
            for proc in processes:
                try:
                    proc.wait(timeout=10)
                except subprocess.TimeoutExpired:
                    proc.kill()


if __name__ == "__main__":
    raise SystemExit(main())
