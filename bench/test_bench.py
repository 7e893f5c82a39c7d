"""Checks of the benchmark itself, on smoke-scale frames.

Run from the repository root::

    PYTHONPATH=src python -m pytest bench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent

#: Layers each workload must call (> 0) and must bypass (== 0) inside
#: its timed iteration.
EXERCISED = {
    "paper_frame": {"workloads", "raster", "core.replay", "cache", "texture.filtering",
                    "core.node", "core.machine"},
    "small_tris": {"workloads", "raster", "cache", "core.distributor", "core.machine"},
    "fifo_sweep": {"core.routing", "core.distributor", "core.node", "core.machine"},
    "vt_pan": {"cache", "texture.filtering", "texture.pages", "core.node", "core.machine"},
}
BYPASSED = {
    "paper_frame": {"core.distributor", "texture.pages"},
    "small_tris": {"core.node", "texture.pages"},
    "fifo_sweep": {"workloads", "raster", "cache", "texture.filtering", "texture.pages"},
    "vt_pan": {"workloads", "raster", "core.distributor"},
}


@pytest.fixture(scope="module")
def traced():
    """One traced smoke run per workload at the default placement."""
    return {name: run.run_workload(name, None, 1.0, trace=True, smoke=True)
            for name in run.WORKLOADS}


def test_every_wrap_target_resolves():
    for _, module, attribute in tracer.TARGETS:
        assert callable(tracer.resolve(module, attribute)[2])


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_and_untraced_digests_agree(traced, workload):
    result = traced[workload]
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == 2  # one untraced, one traced iteration
    assert len(result["observed"]) == 1
    assert result["pinned"], "no smoke digest pinned in bench/expected.json"


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_workload_exercises_and_bypasses_its_layers(traced, workload):
    metrics = {name: metric["value"] for name, metric in traced[workload]["metrics"].items()}
    for layer in EXERCISED[workload]:
        assert metrics[f"{layer}.calls"] > 0, layer
    for layer in BYPASSED[workload]:
        assert metrics[f"{layer}.calls"] == 0, layer
    assert metrics["trace.coverage"] >= 0.95


def test_seed_moves_the_frame_reproducibly():
    first = run.run_workload("paper_frame", 5, 1.0, trace=False, smoke=True)
    second = run.run_workload("paper_frame", 5, 1.0, trace=False, smoke=True)
    assert first["correct"] and first["observed"] == second["observed"]
    pinned = run.expected_digest("paper_frame", smoke=True)
    assert first["observed"] != [pinned]
    assert set(first["metrics"]) == set(run.END_TO_END)


def test_benchmark_json_names_what_the_runner_reports():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in declared["workloads"]] == list(run.WORKLOADS)
    assert tuple(workloads.WORKLOADS) == run.WORKLOADS
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == run.per_layer_units()


def test_fails_without_the_simulator_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    completed = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "vt_pan", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout
