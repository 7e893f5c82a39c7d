"""Tests for the experiment job service (`repro.service`).

Covers the job state machine (queued → running → done/failed/timed-out),
retry/backoff scheduling on a fake lease clock, duplicate-submission
coalescing on the content-addressed result key, HTTP endpoint round trips
against an ephemeral server, and the one execution path every attempt
takes — a worker holding a lease: job timeouts, a worker killed
mid-job, FIFO requeue ordering, tenant-fair queuing, monotonic duration
accounting, backpressure, client-disconnect handling, and the
lease/heartbeat/requeue-on-expiry protocol in-process and over HTTP.
"""

from __future__ import annotations

import json
import math
import multiprocessing
import os
import signal
import socket
import struct
import threading
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

from repro import obs, pipeline
from repro.analysis.experiments.common import SCALE as SCALE_PARAM
from repro.cli import main
from repro.errors import (
    BackpressureError,
    ConfigurationError,
    ServiceError,
    SimulationError,
    StaleLeaseError,
    UnknownJobError,
)
from repro.expfw import SPECS, ExperimentSpec, ParamSpace, RunResult, register_spec
from repro.pipeline.store import ArtifactStore
from repro.service import (
    DONE,
    FAILED,
    QUEUED,
    RUNNING,
    TIMED_OUT,
    Job,
    JobDispatcher,
    JobQueue,
    LeaseManager,
    ResultStore,
    Scheduler,
    ServiceClient,
    WorkerNode,
    make_server,
    parse_submission,
    spec_from_payload,
)

SCALE = 0.0625
SIM_PAYLOAD = {"scene": "truc640", "scale": SCALE, "processors": 4, "size": 16}

#: Marker file (via env) letting fork-side helpers act once, then succeed.
_MARKER_ENV = "REPRO_TEST_SERVICE_MARKER"


def _kill_once(payload):
    """Worker-side: die hard on the first run, succeed on the retry."""
    marker = Path(os.environ[_MARKER_ENV])
    if not marker.exists():
        marker.write_text("boom")
        os.kill(os.getpid(), signal.SIGKILL)
    return {"key": "k", "text": "survived", "elapsed_seconds": 0.0}


def _doomed_worker(url):
    """A remote worker process that dies inside its first attempt."""
    WorkerNode(url, worker_id="doomed", poll=0.02, executor=_kill_once).run(max_jobs=1)


@pytest.fixture
def isolated_store(tmp_path):
    """Give each test its own artifact store (memory + private disk tier)."""
    previous = os.environ.get(pipeline.ARTIFACT_DIR_ENV_VAR)
    disk = tmp_path / "artifacts"
    os.environ[pipeline.ARTIFACT_DIR_ENV_VAR] = str(disk)
    pipeline.configure(disk_dir=disk)
    yield
    if previous is None:
        os.environ.pop(pipeline.ARTIFACT_DIR_ENV_VAR, None)
    else:
        os.environ[pipeline.ARTIFACT_DIR_ENV_VAR] = previous
    pipeline.configure(disk_dir=previous)


@pytest.fixture
def make_scheduler():
    """Scheduler factory that guarantees teardown."""
    created = []

    def factory(**kwargs):
        scheduler = Scheduler(**kwargs)
        created.append(scheduler)
        return scheduler

    yield factory
    for scheduler in created:
        scheduler.stop(timeout=5.0)


@contextmanager
def registered(name, text):
    """Register a throwaway spec whose runner returns ``text(scale)``."""
    register_spec(
        ExperimentSpec(
            name=name,
            description=f"service test {name}",
            space=ParamSpace((SCALE_PARAM,)),
            runner=lambda params: RunResult(text=text(params["scale"])),
        )
    )
    try:
        yield name
    finally:
        del SPECS[name]


@pytest.fixture
def echo_experiment():
    """A registered throwaway experiment with a trivial runner."""
    with registered("svc-test-echo", lambda scale: f"echo@{scale:g}") as name:
        yield name


def submit(scheduler, payload):
    """Submit through the JSON verb; returns the live job and the
    ``deduped`` flag of the submission document."""
    document = scheduler.submit(payload)
    return scheduler.job(document["id"]), document["deduped"]


class TestJobSpec:
    def test_experiment_spec_and_key(self):
        spec = spec_from_payload({"experiment": "table1", "scale": 0.25})
        assert spec.kind == "experiment"
        assert spec.result_key() == "experiment/table1@0.25"

    def test_simulate_key_is_deterministic_and_discriminating(self):
        first = spec_from_payload(dict(SIM_PAYLOAD))
        second = spec_from_payload(dict(SIM_PAYLOAD))
        assert first.result_key() == second.result_key()
        other = spec_from_payload({**SIM_PAYLOAD, "processors": 8})
        assert other.result_key() != first.result_key()

    def test_payload_round_trip(self):
        for payload in ({"experiment": "table1"}, dict(SIM_PAYLOAD)):
            spec = spec_from_payload(payload)
            assert spec_from_payload(spec.to_payload()) == spec

    def test_rejects_unknown_names_and_fields(self):
        with pytest.raises(ConfigurationError, match="unknown experiment"):
            spec_from_payload({"experiment": "fig99"})
        with pytest.raises(ConfigurationError, match="unknown scene"):
            spec_from_payload({"scene": "doom"})
        with pytest.raises(ConfigurationError, match="unknown family"):
            spec_from_payload({"scene": "quake", "family": "spiral"})
        with pytest.raises(ConfigurationError, match="unknown job field"):
            spec_from_payload({"scene": "quake", "colour": "red"})
        with pytest.raises(ConfigurationError, match="'scene' or a 'vt_scene'"):
            spec_from_payload({"scale": 0.5})

    def test_rejects_bad_values(self):
        with pytest.raises(ConfigurationError, match="scale"):
            spec_from_payload({"experiment": "table1", "scale": 2.0})
        with pytest.raises(ConfigurationError, match="processors"):
            spec_from_payload({"scene": "quake", "processors": 0})
        for ratio in (-1.0, 0.0, float("nan")):
            with pytest.raises(ConfigurationError, match="bus_ratio must be positive"):
                spec_from_payload({"scene": "quake", "bus_ratio": ratio})
        # An infinite bus (the Figure-6 locality setting) stays valid.
        assert spec_from_payload({"scene": "quake", "bus_ratio": math.inf}).bus_ratio == math.inf

    def test_options_are_split_from_the_spec(self):
        spec, options = parse_submission(
            {**SIM_PAYLOAD, "priority": -5, "timeout": 2.5, "retries": 1}
        )
        assert options == {"priority": -5, "timeout": 2.5, "retries": 1}
        # Scheduling options must not change the content identity.
        assert spec.result_key() == spec_from_payload(dict(SIM_PAYLOAD)).result_key()
        with pytest.raises(ConfigurationError, match="timeout"):
            parse_submission({**SIM_PAYLOAD, "timeout": 0})

    @pytest.mark.parametrize(
        "payload, unread",
        [
            ({"experiment": "table1", "processors": 4, "family": "sli", "fifo": 3},
             "experiment jobs do not read 'family', 'fifo', 'processors'"),
            ({"scene": "quake", "vt_pages": 4}, "simulate jobs do not read 'vt_pages'"),
            ({"scene": "quake", "vt_scene": "vt-quake"}, "vt jobs do not read 'scene'"),
        ],
    )
    def test_rejects_fields_the_kind_does_not_read(self, payload, unread):
        with pytest.raises(ConfigurationError, match=unread):
            spec_from_payload(payload)


class TestJobQueue:
    def _job(self, priority=0):
        spec = spec_from_payload({"experiment": "table1"})
        return Job(id=f"j{priority}", spec=spec, priority=priority)

    def test_priority_then_fifo_order(self):
        queue = JobQueue()
        first, second, urgent = self._job(0), self._job(0), self._job(-1)
        second.id = "j-second"
        queue.push(first)
        queue.push(second)
        queue.push(urgent)
        assert [queue.pop().id for _ in range(3)] == [urgent.id, first.id, second.id]

    def test_requeue_jumps_the_line(self):
        queue = JobQueue()
        first, crashed = self._job(0), self._job(0)
        crashed.id = "j-crashed"
        queue.push(first)
        queue.push(crashed, front=True)
        assert queue.pop().id == crashed.id

    def test_pop_times_out_empty(self):
        queue = JobQueue()
        assert queue.pop(timeout=0.01) is None
        assert len(queue) == 0

    def test_requeued_jobs_replay_fifo(self):
        """Regression: interleaved requeues must replay in FIFO order.

        The old front-sequence counted downward, so a later requeue
        sorted *before* an earlier one (LIFO) — starvation-prone once
        lease expiries make requeues routine.
        """
        queue = JobQueue()
        fresh = self._job(0)
        requeued = []
        for index in range(3):
            job = self._job(0)
            job.id = f"j-requeue-{index}"
            requeued.append(job)
        queue.push(requeued[0], front=True)
        queue.push(fresh)
        queue.push(requeued[1], front=True)
        queue.push(requeued[2], front=True)
        order = [queue.pop().id for _ in range(4)]
        assert order == [job.id for job in requeued] + [fresh.id]
        # snapshot agrees with dispatch order here (single tenant).
        for job in requeued + [fresh]:
            queue.push(job, front=job is not fresh)
        assert [job.id for job in queue.snapshot()][:3] == [
            job.id for job in requeued
        ]

    def _tenant_job(self, name, tenant, priority=0):
        job = self._job(priority)
        job.id = name
        job.tenant = tenant
        return job

    def test_tenants_round_robin_within_a_priority(self):
        """One tenant flooding the queue cannot starve the others."""
        queue = JobQueue()
        for job in (
            self._tenant_job("a1", "alice"),
            self._tenant_job("a2", "alice"),
            self._tenant_job("a3", "alice"),
            self._tenant_job("b1", "bob"),
            self._tenant_job("c1", "carol"),
        ):
            queue.push(job)
        order = [queue.pop().id for _ in range(5)]
        assert order == ["a1", "b1", "c1", "a2", "a3"]
        assert queue.pop(timeout=0) is None

    def test_priority_beats_tenant_fairness(self):
        queue = JobQueue()
        queue.push(self._tenant_job("a1", "alice", priority=0))
        queue.push(self._tenant_job("b1", "bob", priority=-1))
        assert queue.pop().id == "b1"

    def test_tenant_depths(self):
        queue = JobQueue()
        queue.push(self._tenant_job("a1", "alice"))
        queue.push(self._tenant_job("a2", "alice"))
        queue.push(self._tenant_job("b1", "bob"), front=True)
        assert queue.tenant_depths() == {"alice": 2, "bob": 1}


class TestResultStore:
    def test_get_counts_peek_does_not(self, isolated_store):
        store = ResultStore()
        found, _ = store.get("some/key")
        assert not found and store.snapshot()["misses"] == 1
        store.put("some/key", {"text": "hi"})
        assert store.peek("some/key") == (True, {"text": "hi"})
        assert store.snapshot() == {"hits": 0, "misses": 1, "hit_rate": 0.0}
        found, payload = store.get("some/key")
        assert found and payload["text"] == "hi"
        assert store.snapshot()["hits"] == 1

    def test_results_survive_via_the_disk_tier(self, isolated_store, tmp_path):
        ResultStore().put("persist/key", {"text": "durable"})
        # A new in-memory store over the same directory sees the result.
        pipeline.configure(disk_dir=tmp_path / "artifacts")
        assert ResultStore().get("persist/key") == (True, {"text": "durable"})


class TestJobLifecycle:
    def test_queued_running_done(self, isolated_store, make_scheduler, echo_experiment):
        scheduler = make_scheduler(local_workers=1)
        job, deduped = submit(scheduler, {"experiment": echo_experiment, "scale": SCALE})
        assert not deduped and job.state == QUEUED
        scheduler.start()
        done = scheduler.wait(job.id, timeout=30)
        assert done["state"] == DONE and done["attempts"] == 1 and done["error"] is None
        assert done["started_at"] is not None and done["finished_at"] is not None
        assert scheduler.result(job.result_key)["text"] == f"echo@{SCALE:g}"
        metrics = scheduler.metrics()
        assert metrics["jobs"][DONE] == 1 and metrics["counters"]["completed"] == 1

    def test_failure_is_terminal_with_the_error(self, isolated_store, make_scheduler):
        with registered("svc-test-boom", lambda scale: 1 / 0) as name:
            scheduler = make_scheduler(local_workers=1, default_retries=0).start()
            job, _ = submit(scheduler, {"experiment": name, "scale": SCALE})
            done = scheduler.wait(job.id, timeout=30)
            assert done["state"] == FAILED and "division" in done["error"]
            assert scheduler.metrics()["counters"]["failed"] == 1
            # A failed job releases its key: resubmission runs again.
            retry, deduped = submit(scheduler, {"experiment": name, "scale": SCALE})
            assert not deduped and retry.id != job.id

    def test_unknown_job_id(self, make_scheduler):
        with pytest.raises(ServiceError, match="unknown job"):
            make_scheduler(local_workers=1).job("job-404")


class FakeMonotonic:
    def __init__(self, start: float = 100.0) -> None:
        self.t = start

    def now(self) -> float:
        return self.t

    def advance(self, seconds: float) -> None:
        self.t += seconds


def fake_clock_coordinator(make_scheduler, **kwargs):
    """An unstarted pure coordinator whose leases and delayed retries
    run on a fake monotonic clock."""
    # A private registry: worker-labeled counters must not leak
    # between tests that reuse worker names.
    scheduler = make_scheduler(
        local_workers=0, registry=obs.MetricsRegistry(), **kwargs
    )
    clock = FakeMonotonic()
    scheduler.leases = LeaseManager(timeout=5.0, clock=clock.now)
    return scheduler, clock


class TestRetryBackoff:
    def _run_until_settled(self, scheduler, clock, job):
        """Drive one worker through every attempt; return the backoff
        waits the delayed-retry heap scheduled between them."""
        node = WorkerNode(client=scheduler, worker_id="solo")
        waits = []
        while job.state not in (DONE, FAILED):
            node.run(max_jobs=1)
            if scheduler._delayed:
                waits.append(scheduler._delayed[0][0] - clock.now())
                clock.advance(waits[-1])
                scheduler._reap_once()
        return waits

    def test_exponential_backoff_schedule(self, isolated_store, make_scheduler):
        """Two failures then success: retries wait base * factor**n."""
        attempts = []
        def flaky(scale):
            attempts.append(scale)
            if len(attempts) < 3:
                raise RuntimeError(f"flake #{len(attempts)}")
            return "recovered"
        with registered("svc-test-flaky", flaky) as name:
            scheduler, clock = fake_clock_coordinator(
                make_scheduler,
                default_retries=3,
                backoff_base=0.5,
                backoff_factor=2.0,
            )
            job, _ = submit(scheduler, {"experiment": name, "scale": SCALE})
            assert self._run_until_settled(scheduler, clock, job) == [0.5, 1.0]
            assert job.state == DONE and job.attempts == 3
            assert scheduler.metrics()["counters"]["retries"] == 2
            assert scheduler.result(job.result_key)["text"] == "recovered"

    def test_budget_exhaustion_fails_after_all_retries(
        self, isolated_store, make_scheduler
    ):
        with registered("svc-test-hopeless", lambda scale: 1 / 0) as name:
            scheduler, clock = fake_clock_coordinator(make_scheduler)
            job, _ = submit(scheduler, 
                {"experiment": name, "scale": SCALE, "retries": 2}
            )
            waits = self._run_until_settled(scheduler, clock, job)
            assert job.state == FAILED and job.attempts == 3
            assert len(waits) == 2  # one backoff between each attempt pair

    def test_backoff_is_capped(self, make_scheduler):
        scheduler = make_scheduler(backoff_base=10.0, backoff_max=15.0)
        assert scheduler._backoff_delay(4) == 15.0


class TestCoalescing:
    def test_live_duplicates_share_one_job(
        self, isolated_store, make_scheduler, echo_experiment
    ):
        scheduler = make_scheduler(local_workers=1)  # not started: jobs stay queued
        payload = {"experiment": echo_experiment, "scale": SCALE}
        first, deduped_first = submit(scheduler, payload)
        second, deduped_second = submit(scheduler, payload)
        assert not deduped_first and deduped_second
        assert second is first
        metrics = scheduler.metrics()
        assert metrics["counters"]["deduped"] == 1
        assert metrics["queue_depth"] == 1

    def test_resubmission_after_completion_hits_the_store(
        self, isolated_store, make_scheduler, echo_experiment
    ):
        scheduler = make_scheduler(local_workers=1).start()
        payload = {"experiment": echo_experiment, "scale": SCALE}
        first, _ = submit(scheduler, payload)
        scheduler.wait(first.id, timeout=30)
        second, deduped = submit(scheduler, payload)
        assert not deduped and second.id != first.id
        assert second.state == DONE and second.cached and second.attempts == 0
        snapshot = scheduler.metrics()["result_store"]
        assert snapshot["misses"] == 1 and snapshot["hits"] == 1
        assert scheduler.metrics()["counters"]["cache_hits"] == 1

    def test_different_options_same_computation_coalesce(
        self, isolated_store, make_scheduler, echo_experiment
    ):
        scheduler = make_scheduler(local_workers=1)
        first, _ = submit(scheduler, {"experiment": echo_experiment, "priority": 3})
        second, deduped = submit(scheduler, {"experiment": echo_experiment, "retries": 9})
        assert deduped and second is first


@contextmanager
def serving(scheduler):
    """Serve ``scheduler`` on an ephemeral port; yields a client."""
    server = make_server(scheduler, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield ServiceClient(server.url)
    finally:
        server.shutdown()
        server.server_close()


@pytest.fixture
def http_service(isolated_store, make_scheduler, echo_experiment):
    """A live ephemeral-port server + client around a scheduler with
    one in-process worker."""
    scheduler = make_scheduler(local_workers=1).start()
    with serving(scheduler) as client:
        yield client, scheduler, echo_experiment


class TestHTTP:
    def test_round_trip(self, http_service):
        client, _scheduler, experiment = http_service
        assert client.healthz()["status"] == "ok"
        job = client.submit({"experiment": experiment, "scale": SCALE})
        assert job["state"] in (QUEUED, "running", DONE) and not job["deduped"]
        done = client.wait(job["id"], timeout=30)
        assert done["state"] == DONE
        assert client.result(done["result_key"])["text"] == f"echo@{SCALE:g}"
        listing = client.jobs()
        assert any(entry["id"] == job["id"] for entry in listing["jobs"])

    def test_metrics_document_shape(self, http_service):
        client, _scheduler, experiment = http_service
        client.wait(client.submit({"experiment": experiment, "scale": SCALE})["id"], 30)
        metrics = client.metrics()
        assert metrics["queue_depth"] == 0
        assert metrics["jobs"][DONE] == 1
        for counter in ("retries", "timeouts", "deduped"):
            assert counter in metrics["counters"]
        assert set(metrics["result_store"]) == {"hits", "misses", "hit_rate"}
        assert "pipeline" in metrics
        # The obs registry snapshot mirrors the service counters and
        # carries the execute-span histogram for the one job that ran.
        snapshot = metrics["obs"]
        assert set(snapshot) == {"counters", "gauges", "histograms"}
        assert snapshot["counters"]["service.submitted"] == 1
        assert snapshot["counters"]["service.completed"] == 1
        # The in-process worker took the job under a lease, like any other.
        assert snapshot["counters"]["service.leases{worker=local-0}"] >= 1
        assert snapshot["gauges"]["service.queue_depth"] == 0
        assert snapshot["gauges"]["service.jobs{state=done}"] == 1
        assert snapshot["histograms"]["span.service.execute"]["count"] == 1

    def test_error_responses(self, http_service):
        client, _scheduler, _experiment = http_service
        with pytest.raises(ServiceError, match="unknown experiment"):
            client.submit({"experiment": "fig99"})
        with pytest.raises(ServiceError, match="unknown job"):
            client.job("job-404")
        with pytest.raises(ServiceError, match="no result stored"):
            client.result("simulate/never-ran")
        # The auto-search routes are retired along with the search.
        for method, path in (
            ("GET", "nope"),
            ("POST", "searches"),
            ("GET", "searches"),
            ("GET", "searches/search-1"),
        ):
            with pytest.raises(ServiceError, match="unknown path"):
                client._request(method, f"/{path}", body={} if method == "POST" else None)
        with pytest.raises(ServiceError, match="cannot reach service"):
            ServiceClient("http://127.0.0.1:9", timeout=0.5).healthz()

    def test_run_convenience(self, http_service):
        client, _scheduler, experiment = http_service
        payload = client.run({"experiment": experiment, "scale": SCALE}, timeout=30)
        assert payload["text"] == f"echo@{SCALE:g}"


class TestJobDispatcher:
    """One submit/wait/result loop over either service."""

    def test_same_wave_same_results_in_process_and_over_http(
        self, isolated_store, make_scheduler, echo_experiment
    ):
        wave = [
            {"experiment": echo_experiment, "scale": 0.5},
            dict(SIM_PAYLOAD),
            {"experiment": echo_experiment, "scale": 0.25},
        ]
        results = {}
        for via in ("scheduler", "http"):
            # A private result store each, so both runs really execute.
            scheduler = make_scheduler(
                local_workers=2, results=ResultStore(ArtifactStore(max_entries=16))
            ).start()
            if via == "scheduler":
                results[via] = JobDispatcher(scheduler, timeout=60).run_many(wave)
            else:
                with serving(scheduler) as client:
                    results[via] = JobDispatcher(client, timeout=60).run_many(wave)
            assert scheduler.metrics()["counters"]["leases"] == len(wave)
        for result in results["scheduler"] + results["http"]:
            assert result.pop("elapsed_seconds") >= 0.0  # wall time, never equal
        assert results["scheduler"] == results["http"]
        assert [result["text"] for result in results["http"][::2]] == ["echo@0.5", "echo@0.25"]
        assert results["http"][1]["metrics"]["cycles"] > 0

    def test_failed_job_raises_with_its_error(
        self, isolated_store, make_scheduler
    ):
        with registered("svc-test-doomed", lambda scale: 1 / 0) as name:
            scheduler = make_scheduler(local_workers=1, default_retries=0).start()
            with pytest.raises(ServiceError, match="ended failed: division"):
                JobDispatcher(scheduler, timeout=30).run_many([{"experiment": name}])

    def test_scheduler_result_misses_like_the_client(self, make_scheduler, isolated_store):
        with pytest.raises(UnknownJobError, match="no result stored"):
            make_scheduler(local_workers=0).result("simulate/never-ran")


class TestCliServiceVerbs:
    def test_list_includes_utility_commands(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for command in ("run", "serve", "submit", "status", "dump-trace"):
            assert command in out
        assert "table1" in out and "fig8" in out

    def test_submit_and_status_verbs(self, http_service, capsys):
        client, _scheduler, experiment = http_service
        assert main(["submit", "--url", client.base_url, "--run", experiment,
                     "--scale", str(SCALE), "--wait"]) == 0
        out = capsys.readouterr().out
        assert f"echo@{SCALE:g}" in out
        submitted = json.loads(out[: out.rindex("}") + 1])
        assert main(["status", "--url", client.base_url, "--id", submitted["id"]]) == 0
        assert json.loads(capsys.readouterr().out)["state"] == DONE
        assert main(["status", "--url", client.base_url]) == 0
        assert "result_store" in json.loads(capsys.readouterr().out)

    def test_submit_rejects_bad_job_json(self, capsys):
        assert main(["submit", "--job", "{not json"]) == 2
        assert "--job is not valid JSON" in capsys.readouterr().err

    def test_unreachable_service_is_a_clean_error(self, capsys):
        assert main(["status", "--url", "http://127.0.0.1:9"]) == 2
        assert "cannot reach service" in capsys.readouterr().err


class TestFailureRecovery:
    """A worker killed mid-job and an attempt past its timeout, each
    once, on the lease path every attempt takes."""

    def test_killed_worker_is_requeued_and_completes(
        self, isolated_store, make_scheduler, tmp_path, monkeypatch
    ):
        monkeypatch.setenv(_MARKER_ENV, str(tmp_path / "crash-marker"))
        scheduler = make_scheduler(
            local_workers=0,
            lease_timeout=0.5,
            reaper_interval=0.02,
            registry=obs.MetricsRegistry(),
        ).start()
        with serving(scheduler) as client:
            job, _ = submit(scheduler, {"experiment": "table1", "scale": SCALE})
            doomed = multiprocessing.get_context("fork").Process(
                target=_doomed_worker, args=(client.base_url,)
            )
            doomed.start()
            doomed.join(timeout=60)
            assert doomed.exitcode == -signal.SIGKILL
            survivor = WorkerNode(
                client.base_url, worker_id="survivor", poll=0.02, executor=_kill_once
            )
            assert survivor.run(max_jobs=1) == 1
        done = scheduler.wait(job.id, timeout=60)
        assert done["state"] == DONE and done["requeues"] == 1 and done["attempts"] == 1
        assert scheduler.result(job.result_key)["text"] == "survived"
        counters = scheduler.metrics()["counters"]
        assert counters["lease_expiries"] == 1 and counters["requeues"] == 1

    @pytest.mark.parametrize("retries", [0, 1])
    def test_attempt_past_its_timeout_ends_timed_out(
        self, isolated_store, make_scheduler, retries
    ):
        """Each attempt blocks past the job's timeout: every one times
        out, and each late delivery is answered 410."""
        release = threading.Event()

        def blocked(payload):
            release.wait(30.0)
            key = spec_from_payload(payload).result_key()
            return {"key": key, "text": "late but right"}

        scheduler = make_scheduler(
            local_workers=0,
            backoff_base=0.01,
            reaper_interval=0.02,
            registry=obs.MetricsRegistry(),
        ).start()
        payload = {"experiment": "table1", "scale": SCALE}
        job, _ = submit(scheduler, {**payload, "timeout": 0.2, "retries": retries})
        # One stuck worker per attempt: a timed-out attempt keeps its
        # worker until it returns.
        nodes = [
            WorkerNode(client=scheduler, worker_id=f"stuck-{index}", poll=0.02,
                       executor=blocked)
            for index in range(retries + 1)
        ]
        threads = [
            threading.Thread(target=node.run, kwargs={"max_jobs": 1}, daemon=True)
            for node in nodes
        ]
        for thread in threads:
            thread.start()
        done = scheduler.wait(job.id, timeout=30)
        assert done["state"] == TIMED_OUT and done["attempts"] == retries + 1
        counters = scheduler.metrics()["counters"]
        assert counters["timeouts"] == retries + 1
        assert counters["retries"] == retries
        assert counters["lease_expiries"] == 0
        release.set()
        for thread in threads:
            thread.join(timeout=30)
        assert [(node.completed, node.abandoned) for node in nodes] == [(0, 1)] * len(nodes)
        # The late result belongs to a granted lease of this job, so it
        # was kept: the next submission is a result-store hit.
        again, _ = submit(scheduler, payload)
        assert again.cached and again.state == DONE


class TestDurations:
    """Durations are monotonic deltas; wall time is display-only."""

    @pytest.fixture
    def clocks(self, monkeypatch):
        from repro.service import jobs as jobs_module

        wall = {"t": 1_700_000_000.0}
        mono = {"t": 50.0}
        monkeypatch.setattr(jobs_module, "_WALL_CLOCK", lambda: wall["t"])
        monkeypatch.setattr(jobs_module, "_MONOTONIC_CLOCK", lambda: mono["t"])
        return wall, mono

    def test_duration_survives_a_backwards_clock_step(self, clocks):
        wall, mono = clocks
        job = Job(id="j", spec=spec_from_payload({"experiment": "table1"}))
        job.mark_started()
        wall["t"] -= 3600.0  # NTP steps the wall clock back one hour
        mono["t"] += 2.5
        job.finish(DONE)
        assert job.duration_seconds == 2.5
        # The wall-clock delta would have claimed a negative duration.
        assert job.finished_at - job.started_at < 0
        assert job.to_json()["duration_seconds"] == 2.5

    def test_mark_started_is_idempotent_across_requeues(self, clocks):
        wall, mono = clocks
        job = Job(id="j", spec=spec_from_payload({"experiment": "table1"}))
        job.mark_started()
        first_wall, first_mono = job.started_at, job.started_monotonic
        wall["t"] += 10.0
        mono["t"] += 10.0
        job.mark_started()  # a requeue re-dispatches the same job
        assert (job.started_at, job.started_monotonic) == (first_wall, first_mono)

    def test_unstarted_job_has_no_duration(self, clocks):
        job = Job(id="j", spec=spec_from_payload({"experiment": "table1"}))
        job.finish(DONE)  # a pure cache hit never ran
        assert job.duration_seconds is None

    def test_uptime_is_monotonic(self, make_scheduler):
        scheduler = make_scheduler(local_workers=1)
        scheduler._started_monotonic -= 7.0
        assert scheduler.metrics()["uptime_seconds"] >= 7.0
        assert scheduler.healthz()["uptime_seconds"] >= 7.0


class TestBackpressure:
    def test_submit_rejects_past_queue_depth(
        self, isolated_store, make_scheduler, echo_experiment
    ):
        scheduler = make_scheduler(local_workers=1, max_queue_depth=1)  # not started
        scheduler.submit({"experiment": echo_experiment, "scale": 0.5})
        with pytest.raises(BackpressureError, match="retry later"):
            scheduler.submit({"experiment": echo_experiment, "scale": 0.25})
        assert scheduler.metrics()["counters"]["rejected"] == 1

    def test_duplicates_and_cache_hits_bypass_backpressure(
        self, isolated_store, make_scheduler, echo_experiment
    ):
        scheduler = make_scheduler(local_workers=1, max_queue_depth=1)
        scheduler.results.put(
            spec_from_payload({"experiment": echo_experiment, "scale": 0.125}).result_key(),
            {"text": "cached"},
        )
        first, _ = submit(scheduler, {"experiment": echo_experiment, "scale": 0.5})
        # A duplicate of the live job coalesces instead of rejecting.
        dup, deduped = submit(scheduler, {"experiment": echo_experiment, "scale": 0.5})
        assert deduped and dup is first
        # A stored result is served even with the queue full.
        hit, _ = submit(scheduler, {"experiment": echo_experiment, "scale": 0.125})
        assert hit.state == DONE and hit.cached

    def test_http_answers_429(self, isolated_store, make_scheduler, echo_experiment):
        scheduler = make_scheduler(local_workers=1, max_queue_depth=1)  # not started
        server = make_server(scheduler, port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            client = ServiceClient(server.url)
            client.submit({"experiment": echo_experiment, "scale": 0.5})
            with pytest.raises(ServiceError, match="retry later") as info:
                client.submit({"experiment": echo_experiment, "scale": 0.25})
            assert info.value.status == 429
        finally:
            server.shutdown()
            server.server_close()


class TestHTTPErrorMapping:
    def test_unknown_job_is_404_but_a_fault_is_500(self, http_service):
        client, scheduler, _experiment = http_service
        with pytest.raises(ServiceError, match="unknown job") as info:
            client.job("job-404")
        assert info.value.status == 404

        def broken_metrics():
            raise SimulationError("the scheduler tripped over itself")

        original = scheduler.metrics
        scheduler.metrics = broken_metrics
        try:
            with pytest.raises(ServiceError, match="tripped over itself") as info:
                client.metrics()
            assert info.value.status == 500
        finally:
            scheduler.metrics = original

    def test_client_disconnect_is_counted_not_crashed(
        self, isolated_store, make_scheduler, echo_experiment
    ):
        registry = obs.MetricsRegistry()
        scheduler = make_scheduler(local_workers=1, registry=registry)
        server = make_server(scheduler, port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        gate = threading.Event()
        original = scheduler.metrics

        def blocked_metrics():
            gate.wait(5.0)
            return original()

        scheduler.metrics = blocked_metrics
        try:
            raw = socket.create_connection(server.server_address[:2], timeout=5.0)
            raw.sendall(b"GET /metrics HTTP/1.1\r\nHost: test\r\n\r\n")
            # RST on close so the handler's write fails immediately.
            raw.setsockopt(
                socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
            )
            raw.close()
            time.sleep(0.1)
            gate.set()  # now the handler writes into the dead socket
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                if registry.counter("service.http.disconnects").value >= 1:
                    break
                time.sleep(0.05)
            assert registry.counter("service.http.disconnects").value >= 1
            # The server is still healthy for the next client.
            assert ServiceClient(server.url).healthz()["status"] == "ok"
        finally:
            scheduler.metrics = original
            server.shutdown()
            server.server_close()


class TestLeaseLifecycle:
    """Two workers against one coordinator, fake lease clock."""

    def test_lease_heartbeat_expiry_requeue(
        self, isolated_store, make_scheduler, echo_experiment
    ):
        scheduler, clock = fake_clock_coordinator(make_scheduler)
        job1, _ = submit(scheduler, {"experiment": echo_experiment, "scale": 0.5})
        job2, _ = submit(scheduler, {"experiment": echo_experiment, "scale": 0.25})

        lease1 = scheduler.lease("alpha")
        lease2 = scheduler.lease("beta")
        assert (lease1["job"]["id"], lease2["job"]["id"]) == (job1.id, job2.id)
        assert lease1["payload"] == {"experiment": echo_experiment, "scale": 0.5}
        assert job1.state == RUNNING and job1.attempts == 1
        assert scheduler.lease("gamma") is None

        # alpha keeps heartbeating past the original deadline; beta
        # goes silent and its lease expires.
        clock.advance(3.0)
        scheduler.heartbeat(lease1["lease_id"])
        clock.advance(3.0)  # t=106: beta expired at 105, alpha alive to 108
        scheduler._reap_once()
        assert job2.state == QUEUED and job2.requeues == 1
        assert job2.attempts == 0  # infrastructure loss, not a retry
        with pytest.raises(StaleLeaseError) as info:
            scheduler.heartbeat(lease2["lease_id"])
        assert info.value.status == 410  # what a worker branches on over HTTP too

        # alpha delivers job1, then picks up the requeued job2.
        record = scheduler.complete(
            lease1["lease_id"], {"key": job1.result_key, "text": "one"}
        )
        assert record["state"] == DONE and job1.state == DONE
        lease3 = scheduler.lease("alpha")
        assert lease3["job"]["id"] == job2.id
        scheduler.complete(lease3["lease_id"], {"key": job2.result_key, "text": "two"})
        assert job2.state == DONE
        assert scheduler.result(job2.result_key)["text"] == "two"

        counters = scheduler.metrics()["counters"]
        assert counters["leases"] == 3
        assert counters["lease_expiries"] == 1
        assert counters["requeues"] == 1
        assert counters["completed"] == 2
        assert counters["heartbeats"] == 1
        snapshot = scheduler.registry.snapshot()["counters"]
        assert snapshot["service.leases{worker=alpha}"] == 2
        assert snapshot["service.leases{worker=beta}"] == 1

    def test_expired_leases_requeue_in_fifo_order(
        self, isolated_store, make_scheduler, echo_experiment
    ):
        """Three in-flight jobs lost at once replay oldest-first."""
        scheduler, clock = fake_clock_coordinator(make_scheduler)
        jobs = [
            submit(scheduler, {"experiment": echo_experiment, "scale": scale})[0]
            for scale in (0.5, 0.25, 0.125)
        ]
        for worker in ("w1", "w2", "w3"):
            scheduler.lease(worker)
        clock.advance(6.0)
        scheduler._reap_once()
        assert [job.state for job in jobs] == [QUEUED] * 3
        replay = [scheduler.lease("w1")["job"]["id"] for _ in range(3)]
        assert replay == [job.id for job in jobs]

    def test_worker_failure_consumes_retry_budget_with_delay(
        self, isolated_store, make_scheduler, echo_experiment
    ):
        scheduler, clock = fake_clock_coordinator(
            make_scheduler, backoff_base=0.01, backoff_factor=1.0
        )
        job, _ = submit(scheduler, 
            {"experiment": echo_experiment, "scale": 0.5, "retries": 1}
        )
        lease = scheduler.lease("alpha")
        failed = scheduler.fail(lease["lease_id"], "tile went missing")
        assert failed["state"] == QUEUED and failed["error"] == "tile went missing"
        assert scheduler.metrics()["delayed_retries"] == 1
        assert scheduler.lease("alpha") is None  # still backing off
        clock.advance(0.01)
        scheduler._reap_once()
        lease = scheduler.lease("alpha")
        assert lease["job"]["id"] == job.id and job.attempts == 2
        done = scheduler.fail(lease["lease_id"], "tile went missing again")
        assert done["state"] == FAILED and "again" in done["error"]
        assert scheduler.metrics()["counters"]["retries"] == 1

    def test_heartbeats_do_not_extend_the_job_deadline(
        self, isolated_store, make_scheduler, echo_experiment
    ):
        scheduler, clock = fake_clock_coordinator(make_scheduler)
        job, _ = submit(scheduler, 
            {"experiment": echo_experiment, "scale": 0.5, "timeout": 4.0, "retries": 0}
        )
        lease = scheduler.lease("alpha")
        clock.advance(3.0)
        scheduler.heartbeat(lease["lease_id"])  # heartbeat deadline now t=108
        clock.advance(1.5)  # t=104.5: past the job deadline at t=104
        with pytest.raises(StaleLeaseError):
            scheduler.heartbeat(lease["lease_id"])
        scheduler._reap_once()
        assert job.state == TIMED_OUT and job.attempts == 1
        counters = scheduler.metrics()["counters"]
        assert counters["timeouts"] == 1
        assert counters["lease_expiries"] == 0 and counters["requeues"] == 0

    def test_stale_completion_still_stores_the_result(
        self, isolated_store, make_scheduler, echo_experiment
    ):
        scheduler, clock = fake_clock_coordinator(make_scheduler)
        job, _ = submit(scheduler, {"experiment": echo_experiment, "scale": 0.5})
        lease = scheduler.lease("alpha")
        clock.advance(6.0)
        scheduler._reap_once()  # expired: the job went back to the queue
        with pytest.raises(StaleLeaseError):
            scheduler.complete(
                lease["lease_id"], {"key": job.result_key, "text": "late but right"}
            )
        # The content-addressed result was kept; the requeued job
        # coalesces on it at its next dispatch instead of recomputing.
        next_lease = scheduler.lease("beta")
        assert next_lease is None
        assert job.state == DONE and job.cached
        assert scheduler.result(job.result_key)["text"] == "late but right"

    def test_late_completion_must_name_its_own_job(
        self, isolated_store, make_scheduler, echo_experiment
    ):
        scheduler, clock = fake_clock_coordinator(make_scheduler)
        job, _ = submit(scheduler, {"experiment": echo_experiment, "scale": 0.5})
        other = spec_from_payload({"experiment": echo_experiment, "scale": 0.25})
        lease = scheduler.lease("alpha")
        clock.advance(6.0)
        scheduler._reap_once()
        with pytest.raises(StaleLeaseError):
            scheduler.complete(
                lease["lease_id"], {"key": other.result_key(), "text": "FORGED"}
            )
        for key in (other.result_key(), job.result_key):
            with pytest.raises(UnknownJobError, match="no result stored"):
                scheduler.result(key)
        assert job.state == QUEUED

    def test_stale_failure_report_counts_once(
        self, isolated_store, make_scheduler, echo_experiment
    ):
        scheduler, clock = fake_clock_coordinator(make_scheduler)
        scheduler.submit({"experiment": echo_experiment, "scale": 0.5, "retries": 0})

        def explode_late(payload):
            clock.advance(6.0)  # the lease expires under the attempt
            scheduler._reap_once()
            raise RuntimeError("too late to matter")

        node = WorkerNode(client=scheduler, worker_id="late", executor=explode_late)
        attempts = 1
        node.run(max_jobs=attempts)
        assert (node.completed, node.failed, node.abandoned) == (0, 0, 1)
        assert node.completed + node.failed + node.abandoned == attempts


@pytest.fixture
def coordinator(isolated_store, make_scheduler, echo_experiment):
    """A started pure coordinator behind a live HTTP server."""
    scheduler = make_scheduler(
        local_workers=0,
        lease_timeout=5.0,
        reaper_interval=0.02,
        registry=obs.MetricsRegistry(),
    ).start()
    with serving(scheduler) as client:
        yield client, scheduler, echo_experiment


class TestLeaseProtocolHTTP:
    def test_full_round_trip(self, coordinator):
        client, scheduler, experiment = coordinator
        assert client.lease("w1") is None  # 204: nothing queued
        job = client.submit({"experiment": experiment, "scale": SCALE})
        lease = client.lease("w1")
        assert lease["job"]["id"] == job["id"]
        assert lease["payload"] == {"experiment": experiment, "scale": SCALE}
        assert client.heartbeat(lease["lease_id"])["lease_id"] == lease["lease_id"]
        listing = client.leases()["leases"]
        assert [entry["worker"] for entry in listing] == ["w1"]
        record = client.complete(
            lease["lease_id"], {"key": job["result_key"], "text": "over http"}
        )
        assert record["state"] == DONE
        assert client.result(job["result_key"])["text"] == "over http"
        assert client.leases()["leases"] == []
        with pytest.raises(ServiceError) as info:
            client.heartbeat(lease["lease_id"])
        assert info.value.status == 410

    def test_forged_completion_stores_nothing(self, coordinator):
        """A report on a lease id that was never granted is answered 410
        and must not write the result store."""
        client, _scheduler, _experiment = coordinator
        key = spec_from_payload(dict(SIM_PAYLOAD)).result_key()
        with pytest.raises(ServiceError) as info:
            client.complete("lease-does-not-exist", {"key": key, "text": "FORGED"})
        assert info.value.status == 410
        job = client.submit(dict(SIM_PAYLOAD))
        assert job["state"] == QUEUED and not job["cached"]
        with pytest.raises(ServiceError, match="no result stored"):
            client.result(key)

    def test_lease_requires_a_worker_name(self, coordinator):
        client, _scheduler, _experiment = coordinator
        with pytest.raises(ServiceError, match="worker"):
            client._request("POST", "/leases", body={})

    def test_fail_over_http_exhausts_the_budget(self, coordinator):
        client, _scheduler, experiment = coordinator
        job = client.submit(
            {"experiment": experiment, "scale": SCALE, "retries": 0}
        )
        lease = client.lease("w1")
        record = client.fail(lease["lease_id"], "worker exploded")
        assert record["state"] == FAILED and "exploded" in record["error"]
        done = client.job(job["id"])
        assert done["state"] == FAILED


class TestWorkerNode:
    def test_worker_completes_jobs_end_to_end(self, coordinator):
        client, scheduler, experiment = coordinator
        first = client.submit({"experiment": experiment, "scale": 0.5})
        second = client.submit({"experiment": experiment, "scale": 0.25})
        node = WorkerNode(client.base_url, worker_id="node-a", poll=0.02)
        assert node.run(max_jobs=2) == 2
        assert client.job(first["id"])["state"] == DONE
        assert client.job(second["id"])["state"] == DONE
        assert client.result(first["result_key"])["text"] == "echo@0.5"
        snapshot = client.metrics()["obs"]["counters"]
        assert snapshot["service.leases{worker=node-a}"] == 2
        assert scheduler.metrics()["counters"]["lease_expiries"] == 0

    def test_worker_reports_execution_failures(self, coordinator):
        client, _scheduler, experiment = coordinator
        job = client.submit(
            {"experiment": experiment, "scale": 0.5, "retries": 0}
        )

        def explode(payload):
            raise RuntimeError("texel bus meltdown")

        node = WorkerNode(
            client.base_url, worker_id="node-b", poll=0.02, executor=explode
        )
        node.run(max_jobs=1)
        assert node.failed == 1 and node.completed == 0
        record = client.job(job["id"])
        assert record["state"] == FAILED and "meltdown" in record["error"]

    def test_tenant_option_flows_to_the_job(self, coordinator):
        client, _scheduler, experiment = coordinator
        job = client.submit(
            {"experiment": experiment, "scale": SCALE, "tenant": "render-team"}
        )
        assert job["tenant"] == "render-team"
        metrics = client.metrics()
        assert metrics["tenants"] == {"render-team": 1}
        with pytest.raises(ServiceError, match="tenant"):
            client.submit({"experiment": experiment, "tenant": "  "})
