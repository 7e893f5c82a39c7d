"""Tests for the experiment framework (repro.expfw).

Covers the typed parameter spaces, spec registration/inheritance and
byte-identity with the legacy hand-rolled figure text, the
content-addressed run archive (including record → replay round-trips
and ``REPRO_ARTIFACT_DIR`` sharing between two processes), the
budgeted search driver (grid + successive halving, seed determinism,
budget accounting), and the service integration (``POST /searches``).

Simulations run at tiny scales — wiring and reproducibility are under
test here, not the quantitative results.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from repro.errors import ConfigurationError
from repro.expfw import (
    Param,
    ParamSpace,
    RunArchive,
    RunResult,
    SearchConfig,
    SearchDriver,
    parse_search_payload,
    replay_record,
    run_record,
    run_search,
    trial_record,
)
from repro.expfw.search import Budget
from repro.expfw.spec import require_spec, searchable_spec
from repro.pipeline.store import ArtifactStore
from repro.service.jobs import execute_payload

SCALE = 0.0625

REPO_ROOT = Path(__file__).resolve().parents[1]


def tiny_archive(tmp_path) -> RunArchive:
    """An archive isolated from the process-global pipeline store."""
    return RunArchive(root=tmp_path / "archive", store=ArtifactStore(max_entries=64))


# ---------------------------------------------------------------------------
# Params


class TestParams:
    def test_integer_bounds_enforced(self):
        param = Param.integer("processors", 16, minimum=1, maximum=64)
        assert param.validate(4) == 4
        with pytest.raises(ConfigurationError):
            param.validate(0)
        with pytest.raises(ConfigurationError):
            param.validate(128)
        with pytest.raises(ConfigurationError):
            param.validate(1.5)

    def test_bool_is_not_an_int(self):
        param = Param.integer("fifo", 10)
        with pytest.raises(ConfigurationError):
            param.validate(True)

    def test_choice_validates_membership(self):
        param = Param.choice("family", "block", ("block", "sli"))
        assert param.validate("sli") == "sli"
        with pytest.raises(ConfigurationError):
            param.validate("bands")

    def test_names_validates_each_entry(self):
        param = Param.names("scenes", ("a", "b"), ("a", "b", "c"))
        assert param.validate(["c", "a"]) == ("c", "a")
        with pytest.raises(ConfigurationError):
            param.validate(["a", "nope"])

    def test_bad_default_rejected_at_declaration(self):
        with pytest.raises(ConfigurationError):
            Param.integer("n", 0, minimum=1)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            Param("x", "complex", 1)

    def test_space_rejects_duplicates_and_unknown_overrides(self):
        space = ParamSpace((Param.integer("n", 1), Param.number("scale", 0.25)))
        with pytest.raises(ConfigurationError):
            ParamSpace((Param.integer("n", 1), Param.integer("n", 2)))
        with pytest.raises(ConfigurationError):
            space.resolve({"bogus": 3})

    def test_resolve_layers_overrides_onto_defaults(self):
        space = ParamSpace((Param.integer("n", 1), Param.number("scale", 0.25)))
        assert space.resolve() == {"n": 1, "scale": 0.25}
        assert space.resolve({"n": 5}) == {"n": 5, "scale": 0.25}

    def test_grid_order_matches_nested_loops(self):
        space = ParamSpace((Param.integer("a", 0), Param.integer("b", 0)))
        points = space.grid({"a": (1, 2), "b": (10, 20)})
        assert [(p["a"], p["b"]) for p in points] == [
            (1, 10), (1, 20), (2, 10), (2, 20),
        ]

    def test_derive_overrides_defaults_and_adds_params(self):
        space = ParamSpace((Param.integer("n", 1, minimum=1),))
        child = space.derive(defaults={"n": 4}, extra=(Param.flag("fast", True),))
        assert child.resolve() == {"n": 4, "fast": True}
        with pytest.raises(ConfigurationError):
            space.derive(defaults={"bogus": 1})
        # The derived default still honours the parent's bounds.
        with pytest.raises(ConfigurationError):
            space.derive(defaults={"n": 0})


# ---------------------------------------------------------------------------
# Specs


class TestSpecs:
    def test_render_is_byte_identical_to_hand_rolled_text(self):
        from repro.analysis.experiments.fig5 import fig5_imbalance, fig5_speedup
        from repro.analysis.experiments.fig7 import fig7

        cases = {
            "fig5-imbalance": fig5_imbalance("block", SCALE)
            + "\n\n"
            + fig5_imbalance("sli", SCALE),
            "fig5-speedup": fig5_speedup("block", SCALE)
            + "\n\n"
            + fig5_speedup("sli", SCALE),
            "fig7-ratio2": fig7(
                "block", SCALE, bus_ratio=2.0, scenes=("massive32_1255", "teapot_full")
            )
            + "\n\n"
            + fig7(
                "sli", SCALE, bus_ratio=2.0, scenes=("massive32_1255", "teapot_full")
            ),
        }
        for name, legacy in cases.items():
            assert require_spec(name).render(SCALE) == legacy

    def test_derived_spec_inherits_and_overrides(self):
        parent = require_spec("fig7")
        child = require_spec("fig7-ratio2")
        assert child.resolve()["bus_ratio"] == 2.0
        assert child.resolve()["scenes"] == ("massive32_1255", "teapot_full")
        assert parent.resolve()["bus_ratio"] == 1.0
        # Same runner and trial template, different defaults.
        assert child.runner is parent.runner
        assert child.trial is parent.trial

    def test_run_validates_overrides(self):
        spec = require_spec("fig5-speedup")
        with pytest.raises(ConfigurationError):
            spec.run({"scene": "not-a-scene"})
        with pytest.raises(ConfigurationError):
            spec.run({"bogus": 1})

    def test_run_key_is_stable_and_seed_aware(self):
        spec = require_spec("fig7")
        params = spec.resolve({"scale": SCALE})
        assert spec.run_key(params) == spec.run_key(dict(params))
        assert spec.run_key(params, seed=3) != spec.run_key(params)

    def test_unknown_and_unsearchable_specs_raise(self):
        with pytest.raises(ConfigurationError):
            require_spec("not-an-experiment")
        with pytest.raises(ConfigurationError):
            searchable_spec("fig5-imbalance")  # no trial template

    def test_trial_payload_layering(self):
        spec = searchable_spec("fig7")
        params = spec.resolve({"scale": SCALE})
        payload = spec.trial.payload(
            params, {"size": 8}, fixed={"scene": "quake", "scale": 0.125}
        )
        assert payload["size"] == 8
        assert payload["scene"] == "quake"
        assert payload["scale"] == 0.125  # fixed overrides the carried param
        assert payload["family"] == "block"


# ---------------------------------------------------------------------------
# Archive


class TestArchive:
    def trial(self, archive):
        payload = {
            "scene": "truc640",
            "scale": SCALE,
            "family": "block",
            "processors": 4,
            "size": 16,
        }
        result = execute_payload(payload)
        record = trial_record(
            experiment="fig7",
            strategy="grid",
            rung=0,
            point={"size": 16},
            payload=payload,
            seed=7,
            result=result,
        )
        archive.record(record)
        return record

    def test_record_round_trips_through_json(self, tmp_path):
        archive = tiny_archive(tmp_path)
        record = self.trial(archive)
        # A fresh archive over the same root reads the JSON file.
        again = RunArchive(root=archive.root, store=ArtifactStore(max_entries=4))
        loaded = again.get(record["key"])
        assert loaded == json.loads(json.dumps(record))
        assert again.keys() == [record["key"]]

    def test_record_requires_key_and_kind(self, tmp_path):
        archive = tiny_archive(tmp_path)
        with pytest.raises(ConfigurationError):
            archive.record({"kind": "trial"})
        with pytest.raises(ConfigurationError):
            archive.record({"key": "x", "kind": "bogus"})

    def test_get_unknown_key_raises(self, tmp_path):
        with pytest.raises(ConfigurationError):
            tiny_archive(tmp_path).get("trial/missing")

    def test_trial_replay_is_bit_identical(self, tmp_path):
        record = self.trial(tiny_archive(tmp_path))
        report = replay_record(record)
        assert report.ok, report.summary()
        assert report.metrics == record["metrics"]
        assert "cycles" in report.metrics and "speedup" in report.metrics

    def test_replay_detects_tampered_metrics(self, tmp_path):
        record = self.trial(tiny_archive(tmp_path))
        record["metrics"]["cycles"] = record["metrics"]["cycles"] + 1.0
        report = replay_record(record)
        assert not report.ok
        assert any("cycles" in diff for diff in report.diffs)

    def test_run_record_replay_round_trip(self, tmp_path):
        spec = require_spec("fig5-speedup")
        params = spec.resolve({"scale": SCALE})
        record = run_record(spec, params, spec.run(params), seed=1)
        tiny_archive(tmp_path).record(record)
        report = replay_record(record)
        assert report.ok, report.summary()

    def test_search_records_are_not_replayable(self, tmp_path):
        with pytest.raises(ConfigurationError):
            replay_record({"kind": "search", "key": "search/x"})

    def test_two_process_sharing_through_artifact_dir(self, tmp_path):
        """Process A archives a golden-scene trial; process B replays it
        bit-identically through the shared ``REPRO_ARTIFACT_DIR``."""
        env = dict(os.environ)
        env["REPRO_ARTIFACT_DIR"] = str(tmp_path)
        env["PYTHONPATH"] = str(REPO_ROOT / "src")
        writer = (
            "from repro.expfw import RunArchive, trial_record\n"
            "from repro.service.jobs import execute_payload\n"
            "payload = {'scene': 'truc640', 'scale': %r, 'family': 'block',\n"
            "           'processors': 4, 'size': 16}\n"
            "result = execute_payload(payload)\n"
            "record = trial_record(experiment='fig7', strategy='grid', rung=0,\n"
            "                      point={'size': 16}, payload=payload, seed=7,\n"
            "                      result=result)\n"
            "print(RunArchive().record(record))\n" % SCALE
        )
        first = subprocess.run(
            [sys.executable, "-c", writer],
            capture_output=True, text=True, env=env, timeout=300,
        )
        assert first.returncode == 0, first.stderr
        key = first.stdout.strip().splitlines()[-1]
        reader = (
            "import sys\n"
            "from repro.expfw import RunArchive, replay_record\n"
            "report = replay_record(RunArchive().get(sys.argv[1]))\n"
            "print(report.summary())\n"
            "sys.exit(0 if report.ok else 1)\n"
        )
        second = subprocess.run(
            [sys.executable, "-c", reader, key],
            capture_output=True, text=True, env=env, timeout=300,
        )
        assert second.returncode == 0, second.stdout + second.stderr
        assert "bit-identically" in second.stdout


# ---------------------------------------------------------------------------
# Search


class TestSearchConfig:
    def test_payload_validation(self):
        config = parse_search_payload({"experiment": "fig7", "budget": 100.0})
        assert config.strategy == "both" and config.unit == "cycles"
        for bad in (
            {"budget": 1},  # no experiment
            {"experiment": "fig7"},  # no budget
            {"experiment": "fig7", "budget": -1},
            {"experiment": "fig7", "budget": 1, "strategy": "annealing"},
            {"experiment": "fig7", "budget": 1, "unit": "joules"},
            {"experiment": "fig7", "budget": 1, "bogus": 3},
            {"experiment": "fig7", "budget": 1, "overrides": []},
            {"experiment": "fig7", "budget": 1, "seed": "x"},
            {"experiment": "table1", "budget": 1},  # no spec/trial
            {"experiment": "fig7", "budget": 1, "eta": 1},
            {"experiment": "fig7", "budget": 1, "max_trials": 0},
        ):
            with pytest.raises(ConfigurationError):
                parse_search_payload(bad)

    def test_budget_charges_cycles_or_seconds(self):
        cycles = Budget(100.0, "cycles")
        cycles.charge({"metrics": {"cycles": 60.0}, "elapsed_seconds": 1.0})
        assert cycles.spent == 60.0 and not cycles.exhausted()
        cycles.charge({"metrics": {"cycles": 40.0}})
        assert cycles.exhausted()
        seconds = Budget(1.0, "seconds")
        seconds.charge({"metrics": {"cycles": 1e9}, "elapsed_seconds": 0.25})
        assert seconds.spent == 0.25


class FakeDispatcher:
    """Deterministic results without simulating; records every payload."""

    def __init__(self):
        self.payloads = []

    def run_many(self, payloads):
        results = []
        for payload in payloads:
            self.payloads.append(dict(payload))
            # Smaller tiles "win": speedup = 100 / size, cost = size.
            size = payload["size"]
            results.append(
                {
                    "key": f"fake/{json.dumps(payload, sort_keys=True)}",
                    "text": "fake",
                    "elapsed_seconds": 0.01,
                    "metrics": {"cycles": float(size), "speedup": 100.0 / size},
                }
            )
        return results


class TestSearchDriver:
    def config(self, **kwargs):
        base = dict(
            experiment="fig7",
            budget=1e9,
            strategy="both",
            seed=0,
            overrides={"scale": SCALE},
            rungs=2,
            wave=4,
        )
        base.update(kwargs)
        return SearchConfig(**base)

    def test_grid_enumerates_the_cross_product(self, tmp_path):
        dispatcher = FakeDispatcher()
        driver = SearchDriver(
            self.config(strategy="grid"),
            dispatcher=dispatcher,
            archive=tiny_archive(tmp_path),
        )
        report = driver.run()
        spec = searchable_spec("fig7")
        axes = spec.trial.axes_for(spec.resolve({"scale": SCALE}))
        expected = 1
        for values in axes.values():
            expected *= len(values)
        assert report["strategies"]["grid"]["evaluated"] == expected
        assert len(report["trials"]) == expected
        # The best fake config is the smallest tile.
        assert report["winner"]["point"]["size"] == min(axes["size"])

    def test_max_trials_subsamples_deterministically(self, tmp_path):
        reports = [
            SearchDriver(
                self.config(strategy="grid", max_trials=5, seed=42),
                dispatcher=FakeDispatcher(),
                archive=tiny_archive(tmp_path / str(index)),
            ).run()
            for index in range(2)
        ]
        assert len(reports[0]["trials"]) == 5
        assert reports[0]["trials"] == reports[1]["trials"]

    def test_seed_changes_the_subsample(self, tmp_path):
        picks = []
        for seed in (1, 2):
            driver = SearchDriver(
                self.config(strategy="grid", max_trials=4, seed=seed),
                dispatcher=FakeDispatcher(),
                archive=tiny_archive(tmp_path / str(seed)),
            )
            driver.run()
            picks.append([t.point for t in driver.trials])
        assert picks[0] != picks[1]

    def test_halving_promotes_survivors_to_higher_scales(self, tmp_path):
        dispatcher = FakeDispatcher()
        driver = SearchDriver(
            self.config(strategy="halving", max_trials=6, rungs=2),
            dispatcher=dispatcher,
            archive=tiny_archive(tmp_path),
        )
        report = driver.run()
        rungs = report["strategies"]["halving"]["rungs"]
        assert len(rungs) == 2
        assert rungs[0]["evaluated"] == 6
        assert rungs[1]["evaluated"] == 3  # ceil(6 / eta)
        assert rungs[0]["scale"] < rungs[1]["scale"]
        assert rungs[1]["scale"] == pytest.approx(SCALE)
        # The final rung ran at full scale, so the winner is full-scale.
        assert report["winner"]["at_full_scale"]

    def test_budget_exhaustion_drops_remaining_trials(self, tmp_path):
        driver = SearchDriver(
            # Fake cycles cost == size, so two small waves exhaust this.
            self.config(strategy="grid", budget=10.0, wave=1),
            dispatcher=FakeDispatcher(),
            archive=tiny_archive(tmp_path),
        )
        report = driver.run()
        assert report["dropped"] > 0
        assert report["budget"]["spent"] >= 10.0
        assert len(report["trials"]) < report["strategies"]["grid"]["candidates"]

    def test_every_trial_is_archived_as_a_replayable_record(self, tmp_path):
        archive = tiny_archive(tmp_path)
        report = SearchDriver(
            self.config(strategy="grid", max_trials=3),
            dispatcher=FakeDispatcher(),
            archive=archive,
        ).run()
        keys = set(archive.keys())
        assert set(report["trials"]) <= keys
        assert report["key"] in keys
        record = archive.get(report["trials"][0])
        assert record["kind"] == "trial"
        assert record["payload"]["scene"] == "massive32_1255"
        assert record["result_key"].startswith("fake/")
        assert isinstance(record["seed"], int)

    def test_inline_end_to_end_with_real_simulation(self, tmp_path):
        """The acceptance path: grid + halving on fig7, archived, and a
        replayed trial reproduces its metrics bit-identically."""
        archive = tiny_archive(tmp_path)
        report = run_search(
            self.config(max_trials=2, wave=2, budget=1e10),
            archive=archive,
        )
        assert report["winner"] is not None
        assert set(report["strategies"]) == {"grid", "halving"}
        trial = archive.get(report["winner"]["record_key"])
        assert trial["metrics"]["speedup"] > 0
        replayed = replay_record(trial)
        assert replayed.ok, replayed.summary()
        assert replayed.metrics == trial["metrics"]


class TestInlineSearch:
    """Inline search runs its trials as jobs on an in-process scheduler."""

    @pytest.fixture
    def schedulers(self, monkeypatch):
        """Record the scheduler ``run_search`` builds; give it private
        result and metrics stores so earlier tests cannot pre-answer."""
        import repro.service
        from repro import obs
        from repro.service import ResultStore, Scheduler

        created = []

        class Recording(Scheduler):
            def __init__(self, **kwargs):
                super().__init__(
                    results=ResultStore(ArtifactStore(max_entries=64)),
                    registry=obs.MetricsRegistry(),
                    **kwargs,
                )
                created.append(self)

        monkeypatch.setattr(repro.service, "Scheduler", Recording)
        return created

    def config(self, **kwargs):
        base = dict(experiment="fig7", budget=1e10, seed=0, overrides={"scale": SCALE})
        base.update(kwargs)
        return SearchConfig(**base)

    def test_every_trial_is_leased_or_a_cache_hit(self, tmp_path, schedulers):
        report = run_search(
            self.config(strategy="both", max_trials=2, rungs=2, wave=2),
            archive=tiny_archive(tmp_path),
        )
        (scheduler,) = schedulers
        counters = scheduler.metrics()["counters"]
        trials = len(report["trials"])
        assert trials == 5  # grid 2, halving rungs 2 + 1
        assert counters["submitted"] == trials
        assert counters["leases"] + counters["cache_hits"] == trials
        assert scheduler.healthz()["threads"] == 0  # stopped after the search

    def test_a_raising_trial_is_retried_like_a_service_job(
        self, tmp_path, schedulers, monkeypatch
    ):
        from repro.service import jobs

        real = jobs.simulate_point
        calls = []

        def flaky(scene, machine):
            calls.append(machine)
            if len(calls) == 1:
                raise RuntimeError("transient texel bus fault")
            return real(scene, machine)

        monkeypatch.setattr(jobs, "simulate_point", flaky)
        report = run_search(
            self.config(strategy="grid", max_trials=1, wave=1),
            archive=tiny_archive(tmp_path),
        )
        assert report["winner"]["metrics"]["cycles"] > 0
        counters = schedulers[0].metrics()["counters"]
        assert (counters["leases"], counters["retries"], counters["completed"]) == (2, 1, 1)

    def test_a_trial_that_always_raises_spends_the_service_budget(
        self, tmp_path, schedulers, monkeypatch
    ):
        from repro.errors import ServiceError
        from repro.service import jobs
        from repro.service.scheduler import Scheduler

        def broken(scene, machine):
            raise RuntimeError("texel bus meltdown")

        monkeypatch.setattr(jobs, "simulate_point", broken)
        with pytest.raises(ServiceError, match="ended failed: texel bus meltdown"):
            run_search(
                self.config(strategy="grid", max_trials=1, wave=1),
                archive=tiny_archive(tmp_path),
            )
        counters = schedulers[0].metrics()["counters"]
        # The same retry budget a service job gets: one attempt plus retries.
        assert counters["leases"] == 1 + Scheduler().default_retries
        assert counters["failed"] == 1


# ---------------------------------------------------------------------------
# Service integration


class TestSearchService:
    @pytest.fixture
    def service(self, tmp_path, monkeypatch):
        from repro.service import Scheduler
        from repro.service.http import make_server

        monkeypatch.setenv("REPRO_ARTIFACT_DIR", str(tmp_path))
        scheduler = Scheduler(local_workers=1).start()
        server = make_server(scheduler)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        yield server
        server.shutdown()
        server.server_close()
        scheduler.stop()

    def test_post_searches_round_trip(self, service):
        from repro.service import ServiceClient

        client = ServiceClient(service.url)
        record = client.start_search(
            {
                "experiment": "fig7",
                "budget": 1e10,
                "strategy": "halving",
                "seed": 5,
                "max_trials": 2,
                "rungs": 2,
                "wave": 2,
                "overrides": {"scale": SCALE},
            }
        )
        assert record["state"] == "running" and record["id"]
        done = client.wait_search(record["id"], timeout=300)
        assert done["state"] == "done", done
        assert done["trials"] >= 2
        assert done["report_key"].startswith("search/fig7/")
        assert done["winner"]["point"]["size"] > 0
        listed = client.searches()["searches"]
        assert [entry["id"] for entry in listed] == [record["id"]]
        metrics = client.metrics()
        assert metrics["counters"]["searches_completed"] == 1
        assert metrics["searches"] == {"done": 1}
        # Trials rode the normal job queue.
        assert metrics["counters"]["submitted"] >= done["trials"]

    def test_post_searches_validates_payload(self, service):
        from repro.errors import ServiceError
        from repro.service import ServiceClient

        client = ServiceClient(service.url)
        with pytest.raises(ServiceError) as excinfo:
            client.start_search({"experiment": "fig7"})
        assert excinfo.value.status == 400
        with pytest.raises(ServiceError) as excinfo:
            client.search("search-404")
        assert excinfo.value.status == 404
