"""One measuring process: set up a workload, warm it up, time its iterations.

Started by ``bench/run.py``, one process at a time; prints one JSON
report as the last line of its standard output.  Untraced, it times
iterations until its budget is spent.  With ``--trace`` it alternates
an untraced and a traced iteration, so the traced run carries its own
tracing overhead; the layer wrappers are installed before the workload
code imports anything by name.

Set-up ends when the timed iteration's inputs are ready.  The warm-up
that follows is one untimed iteration at half the linear scale: it
runs every code path the timed iterations run and grows the heap, so
the first timed iteration does not pay for page faults the later ones
skip.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import re
import resource
import signal
import statistics
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, List, Optional

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

#: Seconds between two host-speed probes.
PROBE_PERIOD_S = 0.05

#: Seconds one host-speed probe takes at the reference speed.
PROBE_REFERENCE_S = 0.0005

#: ``MachineResult.cache`` fields cross-checked against ``repro.obs``.
OBS_SERIES = ("fragments", "line_accesses", "misses", "texels_fetched")


def digest(outputs: Dict[str, object]) -> str:
    """sha256 of the canonical JSON of a workload's model outputs."""
    text = json.dumps(outputs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def obs_cache_totals() -> Dict[str, float]:
    """Sums of the scene-labeled ``cache.*`` counters in the obs registry."""
    from repro import obs

    totals: Dict[str, float] = defaultdict(float)
    for key, value in obs.registry().snapshot()["counters"].items():
        match = re.fullmatch(r"cache\.(\w+)\{.*scene=.*\}", key)
        if match:
            totals[match.group(1)] += value
    return totals


def obs_mismatch(before: Dict[str, float], after: Dict[str, float], results) -> str:
    """Empty when the obs deltas equal the summed ``MachineResult.cache``."""
    problems = []
    for series in OBS_SERIES:
        seen = after[series] - before[series]
        expected = sum(getattr(result.cache, series) for result in results)
        if seen != expected:
            problems.append(f"cache.{series}: obs {seen} != results {expected}")
    return "; ".join(problems)


#: Work counts reported as they were counted at the layer boundaries.
COUNTS = (
    "cache.accesses", "cache.misses", "texture.filtering.lines", "raster.fragments",
    "core.routing.triangles", "core.routing.routed_pairs", "core.distributor.entries",
    "texture.pages.lines", "texture.pages.paged_in",
)

#: Self time per unit of work: metric -> (layer, count, seconds-to-unit factor).
UNIT_COSTS = {
    "cache.ns_per_access": ("cache", "cache.accesses", 1e9),
    "texture.filtering.ns_per_line": ("texture.filtering", "texture.filtering.lines", 1e9),
    "raster.ns_per_fragment": ("raster", "raster.fragments", 1e9),
    "core.routing.us_per_triangle": ("core.routing", "core.routing.triangles", 1e6),
    "core.distributor.us_per_entry": ("core.distributor", "core.distributor.entries", 1e6),
}


def ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(tracer, label: str, wall: float) -> Dict[str, float]:
    """The per-layer metrics of one traced iteration."""
    from repro import pipeline
    from tracer import LAYERS

    self_s = tracer.self_times(label)
    counts = tracer.counts
    metrics: Dict[str, float] = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = self_s[layer]
        metrics[f"{layer}.calls"] = counts[f"{layer}.calls"]
        metrics[f"{layer}.share"] = self_s[layer] / wall
    for name in COUNTS:
        metrics[name] = counts[name]
    for name, (layer, count, factor) in UNIT_COSTS.items():
        metrics[name] = ratio(self_s[layer], counts[count]) * factor
    metrics["cache.hit_ratio"] = (
        1.0 - ratio(counts["cache.misses"], counts["cache.accesses"])
        if counts["cache.accesses"] else 0.0
    )
    metrics["texture.pages.fault_ratio"] = ratio(
        counts["texture.pages.faults"], counts["texture.pages.accesses"]
    )

    stages = pipeline.stats().values()
    metrics["pipeline.hit_ratio"] = ratio(
        sum(stage["memory_hits"] + stage["disk_hits"] for stage in stages),
        sum(stage["calls"] for stage in stages),
    )

    results = tracer.machine_results
    metrics["model.cycles"] = sum(float(result.cycles) for result in results)
    metrics["model.stall_cycles"] = sum(float(result.timings.stall.sum()) for result in results)
    metrics["model.distributor_blocked_cycles"] = sum(
        float(result.extras.get("distributor_blocked_cycles", 0.0)) for result in results
    )
    metrics["model.miss_rate"] = ratio(
        sum(result.cache.misses for result in results),
        sum(result.cache.line_accesses for result in results),
    )
    metrics["model.texel_to_fragment"] = ratio(
        sum(result.cache.texels_fetched for result in results),
        sum(result.cache.fragments for result in results),
    )
    metrics["trace.coverage"] = sum(self_s.values()) / wall
    return metrics


class HostSpeed:
    """Samples the host's speed while the process works.

    The host's cores are shared, and its speed drifts by up to 2x
    within minutes: left alone, that would swamp any regression bound.
    Every ``PROBE_PERIOD_S`` a timer signal runs a fixed mix of
    interpreter and numpy work (about 0.5 ms) and records how long it
    took.  A measured interval is then also reported in seconds at the
    reference speed: its wall time minus the probes inside it, scaled
    by ``PROBE_REFERENCE_S`` over the mean probe inside it.
    """

    def __init__(self) -> None:
        self.samples: List[float] = []
        self._column = np.arange(1 << 18, dtype=np.int64)

    def _probe(self, signum, frame) -> None:
        started = time.perf_counter()
        total = 0
        for index in range(4000):
            total += index * index
        total += int(self._column[::3].sum())
        self.samples.append(time.perf_counter() - started)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)

    def scaled(self, wall: float, first_sample: int) -> float:
        """``wall`` seconds since sample ``first_sample``, at the reference speed."""
        window = self.samples[first_sample:]
        if not window:
            return wall
        return (wall - sum(window)) * PROBE_REFERENCE_S / statistics.mean(window)


def timed(iteration: Callable[[], Dict[str, object]], speed: HostSpeed) -> Dict[str, object]:
    """Run one iteration: its seconds (raw and scaled) and digest, or its error."""
    first_sample = len(speed.samples)
    started = time.perf_counter()
    try:
        outputs = iteration()
    except Exception:  # an iteration that raises is a failed operation
        return {"seconds": None, "digest": None, "error": traceback.format_exc(limit=3)}
    seconds = time.perf_counter() - started
    return {"seconds": seconds, "scaled": speed.scaled(seconds, first_sample),
            "digest": digest(outputs), "outputs": outputs}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--spawned", type=float, required=True,
                        help="time.monotonic() when the parent started this process")
    parser.add_argument("--budget", type=float, required=True,
                        help="seconds from spawn after which no iteration starts")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args(argv)

    speed = HostSpeed()
    tracer = None
    if args.trace:
        # Probes would land inside traced spans; the traced run reports raw times.
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
        tracer.begin("setup")
    else:
        speed.start()
    import workloads

    build = workloads.WORKLOADS[args.workload]
    scale = workloads.SMOKE_SCALE if args.smoke else workloads.FULL_SCALE[args.workload]
    iteration = build(args.seed, scale)
    setup_s = time.monotonic() - args.spawned
    setup_scaled = speed.scaled(setup_s, 0)
    if tracer is not None:
        tracer.begin("warmup")
    build(args.seed, scale / 2)()
    if tracer is not None:
        tracer.end()

    runs: List[Dict[str, object]] = []
    layers: List[Dict[str, float]] = []
    headline = ""
    while True:
        run = timed(iteration, speed)
        run["traced"] = False
        runs.append(run)
        if tracer is not None:
            label = f"t{len(layers)}"
            before = obs_cache_totals()
            tracer.begin(label)
            run = timed(iteration, speed)
            tracer.end()
            run["traced"] = True
            if run["digest"] is not None:
                problem = obs_mismatch(before, obs_cache_totals(), tracer.machine_results)
                if problem:
                    run.update(digest=None, error=f"obs cross-check: {problem}")
                else:
                    layers.append(layer_metrics(tracer, label, run["seconds"]))
            runs.append(run)
        if run.get("outputs") is not None:
            headline = workloads.headline(args.workload, run["outputs"])
        seconds = [r["seconds"] for r in runs if r["seconds"] is not None]
        typical = statistics.median(seconds) if seconds else 0.0
        # Start another iteration (or traced pair) only if it is expected
        # to end less than half an iteration past the budget.
        step = typical * (2 if tracer is not None else 1)
        elapsed = time.monotonic() - args.spawned
        if args.smoke or elapsed + step / 2 > args.budget:
            break
    speed.stop()

    if args.trace_out and tracer is not None:
        Path(args.trace_out).write_text(
            json.dumps([span.as_dict() for span in tracer.spans]) + "\n"
        )
    for run in runs:
        run.pop("outputs", None)
    report = {
        "setup_s": setup_s,
        "setup_scaled": setup_scaled,
        "probe_s": statistics.median(speed.samples) if speed.samples else None,
        "runs": runs,
        "layers": layers,
        "headline": headline,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
