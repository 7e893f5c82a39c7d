#!/usr/bin/env python
"""CI gate: golden-value regression check, a traced CLI run, a
trace-file round trip, the replay invariants and the timing invariants.

Five parts, all at the committed ``tests/golden/`` points:

1. **Golden diff** — recompute every golden point in-process (via
   ``tests.golden_common``, the same helper the pytest suite uses) and
   fail with a per-quantity report on any drift.
2. **Traced CLI run** — run one of those points through the real
   ``repro-experiments run`` verb with ``--trace-out``/``--metrics-out``,
   then validate the Chrome trace schema (every event carries
   ``ph``/``ts``/``pid``/``tid``), check the metrics dump quotes the
   obs registry, and cross-check the summary line's cycle count against
   the golden file — proving the observability path and the plain path
   tell the same story.  Every ``pipeline`` row of the dump must read
   its ``compute_seconds`` from the ``span.stage.<stage>`` histogram sum
   and account each call as a hit or a miss.
3. **Trace round trip** — ``dump-trace`` the same point's scene to a
   file, simulate it with ``run --path`` and require the golden cycle
   count, which pins the trace-file path.
4. **Replay invariants** — at every golden point, the cache replay in
   1024-fragment chunks and in default chunks agree on every cache
   statistic (``compulsory_misses`` included), and both equal the
   per-node oracle of ``tests/oracles``, which pins the shared node
   partition.
5. **Timing invariants** — at every golden point, the untraced default
   FIFO (the closed form) is compared with two runs of the finite-FIFO
   recurrence, which never blocks in either: a FIFO as deep as the
   deepest node stream, and the default FIFO with tracing on (tracing
   selects the recurrence).  All three give equal cycles, equal per-node
   finish, busy and stall, and publish equal ``bus.transfers``,
   ``bus.texels`` and ``bus.busy_cycles`` counters.  At the traced CLI
   point with an 8-entry FIFO, ``timings.stall`` equals the recorder's
   per-node stall spans.

    PYTHONPATH=src python scripts/golden_check.py
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import tempfile
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))
sys.path.insert(0, str(ROOT / "src"))

from repro import obs  # noqa: E402
from repro.analysis.batch import (  # noqa: E402
    distribution_from_spec,
    machine_config_from_spec,
)
from repro.core.machine import simulate_machine  # noqa: E402
from repro.core.routing import build_routed_work  # noqa: E402
from repro.workloads.scenes import build_scene  # noqa: E402
from tests.golden_common import (  # noqa: E402
    ALL_POINTS,
    GOLDEN_SCALE,
    VT_POINTS,
    check_all,
    golden_path,
    load_golden,
    point_name,
)
from tests.oracles import reference_replay  # noqa: E402

#: The golden point the traced CLI run exercises (block16 x 4 on truc640).
CLI_POINT = ("truc640", "block", 16, 4)


def check_goldens() -> int:
    problems = check_all()
    if problems:
        print("golden check: FAILED")
        for problem in problems:
            print(f"  - {problem}")
        print(
            "  (intentional change? re-baseline with "
            "REPRO_UPDATE_GOLDEN=1 python -m pytest tests/test_golden.py)"
        )
        return 1
    total = len(ALL_POINTS) + len(VT_POINTS)
    print(f"golden check: OK — {total} points match exactly")
    return 0


def _cli(*argv: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "repro.cli", *argv], capture_output=True, text=True,
        cwd=ROOT, env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )


def check_traced_cli_run() -> int:
    scene, family, size, processors = CLI_POINT
    golden = load_golden(golden_path(scene, family, size, processors))
    with tempfile.TemporaryDirectory(prefix="repro-golden-") as temp:
        trace_path = Path(temp) / "trace.json"
        metrics_path = Path(temp) / "metrics.json"
        proc = _cli(
            "run", "--scene", scene, "--family", family,
            "--size", str(size), "--processors", str(processors),
            "--scale", str(GOLDEN_SCALE),
            # Tracing runs the finite-FIFO recurrence, which samples
            # occupancy (counter events) into the trace.  An 8-entry
            # FIFO never blocks on this point, so cycles still match the
            # golden file's closed-form number.
            "--fifo", "8",
            "--trace-out", str(trace_path),
            "--metrics-out", str(metrics_path),
        )
        if proc.returncode != 0:
            print(f"traced run: FAILED (exit {proc.returncode})")
            print(proc.stdout + proc.stderr)
            return 1

        match = re.search(r"cycles=(\d+)", proc.stdout)
        if not match:
            print(f"traced run: no cycles in output: {proc.stdout!r}")
            return 1
        cycles = int(match.group(1))
        want = round(golden["metrics"]["cycles"])
        if cycles != want:
            print(f"traced run: cycles={cycles}, golden says {want}")
            return 1

        trace = json.loads(trace_path.read_text())
        events = trace.get("traceEvents", [])
        if not events:
            print("traced run: empty traceEvents")
            return 1
        for event in events:
            missing = {"ph", "ts", "pid", "tid"} - set(event)
            if missing:
                print(f"traced run: event missing {missing}: {event}")
                return 1
            if event["ph"] == "X" and event.get("dur", -1) < 0:
                print(f"traced run: negative span duration: {event}")
                return 1
        phases = {event["ph"] for event in events}
        if not {"X", "C", "M"} <= phases:
            print(f"traced run: expected X/C/M events, got {sorted(phases)}")
            return 1

        dump = json.loads(metrics_path.read_text())
        for section in ("registry", "pipeline", "trace"):
            if section not in dump:
                print(f"traced run: metrics dump missing {section!r}")
                return 1
        counters = dump["registry"]["counters"]
        if counters.get("machine.simulations", 0) < 1:
            print(f"traced run: no simulations counted: {counters}")
            return 1
        if not dump["pipeline"]:
            print("traced run: metrics dump has no pipeline stages")
            return 1
        histograms = dump["registry"]["histograms"]
        for stage, row in dump["pipeline"].items():
            span_sum = histograms.get(f"span.stage.{stage}", {}).get("sum", 0.0)
            if row["compute_seconds"] != span_sum:
                print(
                    f"traced run: pipeline {stage} compute_seconds "
                    f"{row['compute_seconds']} != span.stage.{stage} sum {span_sum}"
                )
                return 1
            if row["calls"] != row["memory_hits"] + row["disk_hits"] + row["misses"]:
                print(f"traced run: pipeline {stage} calls != hits + misses: {row}")
                return 1
        nodes = dump["trace"]["nodes"]
        if len(nodes) != processors:
            print(f"traced run: expected {processors} node rows, got {sorted(nodes)}")
            return 1
        spans = len([e for e in events if e["ph"] == "X"])
        print(
            f"traced run: OK — cycles={cycles}, {spans} spans, "
            f"{len(nodes)} node rows, {len(events)} trace events"
        )
    return 0


def check_trace_round_trip() -> int:
    scene, family, size, processors = CLI_POINT
    want = round(load_golden(golden_path(scene, family, size, processors))["metrics"]["cycles"])
    with tempfile.TemporaryDirectory(prefix="repro-golden-") as temp:
        path = str(Path(temp) / f"{scene}.trace")
        steps = (
            ("dump-trace", "--scene", scene, "--scale", str(GOLDEN_SCALE), "--path", path),
            ("run", "--path", path, "--family", family,
             "--size", str(size), "--processors", str(processors)),
        )
        for argv in steps:
            proc = _cli(*argv)
            if proc.returncode != 0:
                print(f"trace round trip: {argv[0]} FAILED (exit {proc.returncode})")
                print(proc.stdout + proc.stderr)
                return 1
    match = re.search(r"cycles=(\d+)", proc.stdout)
    if match is None or int(match.group(1)) != want:
        print(f"trace round trip: golden says cycles={want}, run --path printed {proc.stdout!r}")
        return 1
    print(f"trace round trip: OK — {scene} via a trace file, cycles={want}")
    return 0


def _cache_diff(got, want) -> list:
    return [
        field.name
        for field in fields(want)
        if not np.array_equal(getattr(got, field.name), getattr(want, field.name))
    ]


def _point(scene_name, family, size, processors, scale, **machine):
    """The scene and machine config of one golden point."""
    spec = {"family": family, "size": size, "processors": processors, **machine}
    scene = build_scene(scene_name, scale=scale)
    return scene, machine_config_from_spec(spec, distribution_from_spec(spec, scene.height))


def check_replay_invariants() -> int:
    for point in ALL_POINTS:
        name = point_name(*point)
        scene, config = _point(*point)
        distribution = config.distribution
        runs = {
            chunk: build_routed_work(
                scene,
                distribution,
                cache_spec=config.cache,
                cache_config=config.cache_config,
                chunk_size=chunk,
            )
            for chunk in (None, 1024)
        }
        oracle = reference_replay(
            scene, distribution, scene.fragments(), config.cache, config.cache_config
        )
        for chunk, work in runs.items():
            label = f"{name}, chunk_size={chunk or 'default'}"
            problems = _cache_diff(work.cache, oracle.cache)
            if problems:
                print(f"replay invariants: {label} differs from the oracle on {problems}")
                return 1
            for node, triangles in enumerate(work.triangles):
                if not np.array_equal(
                    work.texels[node], oracle.texels_per_node_tri[node][triangles]
                ):
                    print(f"replay invariants: {label}, node {node} texels differ from the oracle")
                    return 1
    print(
        f"replay invariants: OK — {len(ALL_POINTS)} points, chunked = whole = "
        f"per-node oracle on every cache field"
    )
    return 0


def _timing_diff(got, want) -> list:
    problems = [] if got.cycles == want.cycles else ["cycles"]
    for field in ("finish", "busy", "stall"):
        if not np.array_equal(getattr(got.timings, field), getattr(want.timings, field)):
            problems.append(field)
    return problems


def _published_bus(work, timing, traced=False):
    """One timed run of ``work`` and the ``bus.*`` counters it published."""
    registry = obs.registry()
    registry.reset()
    if traced:
        obs.enable_tracing()
    try:
        result = simulate_machine(work, timing)
    finally:
        obs.disable_tracing()
    counters = registry.snapshot()["counters"]
    return result, {name: value for name, value in counters.items() if name.startswith("bus.")}


def check_timing_invariants() -> int:
    for point in ALL_POINTS:
        name = point_name(*point)
        scene, config = _point(*point)
        work = build_routed_work(
            scene, config.distribution, cache_spec=config.cache,
            cache_config=config.cache_config, setup_cycles=config.setup_cycles,
        )
        deepest = max(len(ids) for ids in work.triangles)
        fast, fast_bus = _published_bus(work, config.timing)
        if fast.extras or len(fast_bus) != 3:
            print(f"timing invariants: {name}, the default FIFO did not take the closed form")
            return 1
        recurrences = {
            f"FIFO {deepest}": (replace(config.timing, fifo_capacity=deepest), False),
            "traced default FIFO": (config.timing, True),
        }
        for label, (timing, traced) in recurrences.items():
            finite, finite_bus = _published_bus(work, timing, traced)
            problems = _timing_diff(finite, fast)
            if finite.extras.get("distributor_blocked_cycles") != 0:
                problems.append("blocked_cycles")
            if finite_bus != fast_bus:
                problems.append(f"bus totals {finite_bus} != {fast_bus}")
            if problems:
                print(
                    f"timing invariants: {name}, {label} differs from the "
                    f"closed form on {problems}"
                )
                return 1

    processors = CLI_POINT[3]
    scene, config = _point(*CLI_POINT, GOLDEN_SCALE, fifo=8)
    recorder = obs.enable_tracing()
    try:
        result = simulate_machine(scene, config)
    finally:
        obs.disable_tracing()
    traced = [
        recorder.node_summary()[f"node-{node}"]["stall_cycles"]
        for node in range(processors)
    ]
    if result.timings.stall.tolist() != traced:
        print(
            f"timing invariants: FIFO 8 stall {result.timings.stall.tolist()} "
            f"differs from the traced stall spans {traced}"
        )
        return 1
    print(
        f"timing invariants: OK — {len(ALL_POINTS)} points, closed form = "
        f"never-full finite FIFO = traced default FIFO on cycles, finish, "
        f"busy, stall and published bus totals; "
        f"traced stall = timings.stall"
    )
    return 0


def main() -> int:
    return (
        check_goldens()
        or check_traced_cli_run()
        or check_trace_round_trip()
        or check_replay_invariants()
        or check_timing_invariants()
    )


if __name__ == "__main__":
    raise SystemExit(main())
