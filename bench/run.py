"""Benchmark runner: time the simulator end to end, or trace it layer by layer.

Run from the repository root::

    python3 bench/run.py --workload paper_frame --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload vt_pan --trace 1 --trace-out spans.json
    python3 bench/run.py --sets 3 --out sets.json     # calibrate all workloads
    python3 bench/run.py --workload small_tris --smoke --trace 1   # tiny frames

One run measures one workload.  Untraced (``--trace 0``) it starts
three fresh worker processes one after another, each with an equal
share of the time budget the earlier ones left, pools their timed
iterations and reports the end-to-end metrics of ``BENCHMARK.json``.  Traced (``--trace 1``) it
starts one worker that alternates untraced and traced iterations and
reports the per-layer metrics.  Every iteration's model outputs are
digested: at the default placement (no ``--seed``) the digest must
equal the one pinned in ``bench/expected.json``, and at any seed all
iterations of a run must agree.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
EXPECTED_PATH = BENCH_DIR / "expected.json"

WORKLOADS = ("paper_frame", "small_tris", "fifo_sweep", "vt_pan")

#: Fresh worker processes per untraced run.
PROCESSES = 3

#: No run may take longer than this, whatever its budget.
RUN_DEADLINE_S = 170.0

#: End-to-end metrics and their units.
END_TO_END = {"setup_s": "s", "iter_s": "s", "peak_rss_mb": "MB"}


def per_layer_units() -> Dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    from tracer import LAYERS

    units: Dict[str, str] = {}
    for layer in LAYERS:
        units.update({f"{layer}.self_s": "s", f"{layer}.calls": "count",
                      f"{layer}.share": "ratio"})
    units.update({
        "cache.accesses": "count", "cache.misses": "count", "cache.hit_ratio": "ratio",
        "cache.ns_per_access": "ns",
        "texture.filtering.lines": "count", "texture.filtering.ns_per_line": "ns",
        "raster.fragments": "count", "raster.ns_per_fragment": "ns",
        "core.routing.triangles": "count", "core.routing.routed_pairs": "count",
        "core.routing.us_per_triangle": "us",
        "core.distributor.entries": "count", "core.distributor.us_per_entry": "us",
        "texture.pages.lines": "count", "texture.pages.paged_in": "count",
        "texture.pages.fault_ratio": "ratio",
        "pipeline.hit_ratio": "ratio",
        "model.cycles": "cycles", "model.stall_cycles": "cycles",
        "model.distributor_blocked_cycles": "cycles", "model.miss_rate": "ratio",
        "model.texel_to_fragment": "ratio",
        "trace.coverage": "ratio", "trace.iter_s": "s", "trace.untraced_iter_s": "s",
        "trace.overhead": "ratio",
    })
    return units


def summary(values: List[float]) -> Dict[str, float]:
    """Median, quartiles and count; a tail percentile once it has 10 samples beyond it."""
    ordered = sorted(values)
    if len(ordered) > 1:
        q1, median, q3 = statistics.quantiles(ordered, n=4)
    else:
        q1 = median = q3 = ordered[0]
    stats = {"median": median, "q1": q1, "q3": q3, "n": len(ordered)}
    if len(ordered) >= 20:
        percentile = math.floor(100 * (1 - 10 / len(ordered)))
        stats[f"p{percentile}"] = statistics.quantiles(ordered, n=100)[percentile - 1]
    return stats


def expected_digest(workload: str, smoke: bool) -> Optional[str]:
    if not EXPECTED_PATH.exists():
        return None
    pinned = json.loads(EXPECTED_PATH.read_text()).get("digests", {})
    return pinned.get(workload, {}).get("smoke" if smoke else "full")


def spawn_worker(workload: str, seed: Optional[int], budget: float, trace: bool,
                 smoke: bool, trace_out: Optional[str], deadline: float) -> Dict:
    """Run one worker process to completion and return its report."""
    command = [sys.executable, str(BENCH_DIR / "worker.py"), "--workload", workload,
               "--budget", str(budget)]
    if seed is not None:
        command += ["--seed", str(seed)]
    if trace:
        command.append("--trace")
    if smoke:
        command.append("--smoke")
    if trace_out:
        command += ["--trace-out", str(Path(trace_out).resolve())]
    env = dict(os.environ)
    # Memory-only artifact store, and one thread however numpy was built.
    for name in ("REPRO_ARTIFACT_DIR", "REPRO_ARTIFACT_ENTRIES", "REPRO_SCALE"):
        env.pop(name, None)
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    spawned = time.monotonic()
    command += ["--spawned", repr(spawned)]
    completed = subprocess.run(
        command, cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=max(1.0, deadline - spawned),
    )
    if completed.returncode != 0:
        sys.stderr.write(completed.stderr)
        raise RuntimeError(f"{workload} worker exited with code {completed.returncode}")
    return json.loads(completed.stdout.strip().splitlines()[-1])


def run_workload(workload: str, seed: Optional[int], seconds: float, trace: bool,
                 smoke: bool = False, trace_out: Optional[str] = None) -> Dict:
    """One benchmark run: the result object plus the detail behind it."""
    started = time.monotonic()
    processes = 1 if trace or smoke else PROCESSES
    reports = []
    for index in range(processes):
        # Each process gets an equal share of what the earlier ones left.
        budget = (started + seconds - time.monotonic()) / (processes - index)
        reports.append(spawn_worker(workload, seed, budget, trace, smoke, trace_out,
                                    started + RUN_DEADLINE_S))
    runs = [run for report in reports for run in report["runs"]]
    observed = sorted({r["digest"] for r in runs if r["digest"]})
    pinned = expected_digest(workload, smoke) if seed is None else None
    reference = pinned or (observed[0] if observed else None)
    failures = [r.get("error") or f"digest {r['digest']} != {reference}"
                for r in runs if r["digest"] is None or r["digest"] != reference]
    for failure in failures:
        sys.stderr.write(f"{workload}: failed iteration: {failure}\n")

    untraced = [r["seconds"] for r in runs if r["seconds"] is not None and not r["traced"]]
    traced = [r["seconds"] for r in runs if r["seconds"] is not None and r["traced"]]
    if trace:
        if not reports[0]["layers"] or not untraced:
            raise RuntimeError(f"{workload}: no successful traced iteration")
        units = per_layer_units()
        layers = reports[0]["layers"]
        values = {name: statistics.median(layer[name] for layer in layers) for name in layers[0]}
        values["trace.iter_s"] = statistics.median(traced)
        values["trace.untraced_iter_s"] = statistics.median(untraced)
        values["trace.overhead"] = values["trace.iter_s"] / values["trace.untraced_iter_s"] - 1
        details = {}
    else:
        if not untraced:
            raise RuntimeError(f"{workload}: no successful iteration")
        units = dict(END_TO_END)
        scaled = [r["scaled"] for r in runs if r.get("scaled") is not None]
        details = {
            "iter_s": summary(scaled),
            "setup_s": summary([report["setup_scaled"] for report in reports]),
            "peak_rss_mb": summary([report["maxrss_kb"] / 1024 for report in reports]),
            "raw iter_s": summary(untraced),
            "raw setup_s": summary([report["setup_s"] for report in reports]),
            "probe_s": summary([report["probe_s"] for report in reports]),
        }
        values = {name: details[name]["median"] for name in ("iter_s", "setup_s")}
        values["peak_rss_mb"] = max(report["maxrss_kb"] for report in reports) / 1024
    return {
        "workload": workload,
        "seed": seed,
        "correct": not failures,
        "pinned": pinned is not None,
        "observed": observed,
        "attempted": len(runs),
        "failed": len(failures),
        "headline": reports[-1]["headline"],
        "details": details,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }


def print_run(result: Dict) -> None:
    """Human-readable lines for one run, ahead of the JSON result."""
    seed = "default placement" if result["seed"] is None else f"seed {result['seed']}"
    check = ("matches the pinned digest" if result["pinned"]
             else "iterations agree" if result["correct"] else "MISMATCH")
    print(f"{result['workload']} ({seed}): {result['headline']}; outputs {check}; "
          f"failed {result['failed']} of {result['attempted']} attempted")
    for name, metric in result["metrics"].items():
        print(f"  {name:<34} {metric['value']:>16.6g} {metric['unit']}")
    for name, detail in result["details"].items():
        tail = "".join(f", {key} {value:.4f}" for key, value in detail.items()
                       if key.startswith("p"))
        print(f"    {name:<14} median {detail['median']:.4f}, q1 {detail['q1']:.4f}, "
              f"q3 {detail['q3']:.4f}, n {detail['n']}{tail}")


def result_line(result: Dict) -> str:
    return json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")})


def spread(values: List[float]) -> float:
    """Interquartile range over the median."""
    stats = summary(values)
    return (stats["q3"] - stats["q1"]) / stats["median"]


def run_sets(sets: int, seed: Optional[int], seconds: float, out: Optional[str],
             update_expected: bool) -> int:
    """Run every workload ``sets`` times, alternating them round-robin.

    With a seed, set ``i`` uses seed ``seed + i``; without one, every
    set runs the pinned frames.
    """
    results = []
    for index in range(sets):
        for workload in WORKLOADS:
            set_seed = None if seed is None else seed + index
            result = run_workload(workload, set_seed, seconds, trace=False)
            result["set"] = index
            print_run(result)
            results.append(result)
    noise: Dict[str, Dict[str, float]] = {}
    print("spread across sets (interquartile range / median):")
    for workload in WORKLOADS:
        mine = [r for r in results if r["workload"] == workload]
        noise[workload] = {name: round(spread([r["metrics"][name]["value"] for r in mine]), 4)
                           for name in END_TO_END}
        print(f"  {workload:<12} " + "  ".join(f"{k} {v:.2%}" for k, v in noise[workload].items()))
    if out:
        Path(out).write_text(json.dumps({"seconds": seconds, "runs": results}, indent=1) + "\n")
    if update_expected:
        update_expected_file(results, noise=noise)
    return 0 if all(r["correct"] for r in results) else 1


def update_expected_file(results: List[Dict], noise: Optional[Dict] = None,
                         smoke: bool = False) -> None:
    """Pin the digests (and measured noise) of default-placement runs."""
    document = json.loads(EXPECTED_PATH.read_text()) if EXPECTED_PATH.exists() else {}
    digests = document.setdefault("digests", {})
    for result in results:
        if result["seed"] is None and len(result["observed"]) == 1:
            digests.setdefault(result["workload"], {})["smoke" if smoke else "full"] = (
                result["observed"][0])
    if noise is not None:
        document["noise"] = noise
    EXPECTED_PATH.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=None,
                        help="placement seed (default: the pinned frame); "
                             "with --sets, the first set's")
    parser.add_argument("--seconds", type=float, default=None,
                        help="time budget of one run (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-out", default=None, help="write the traced spans here")
    parser.add_argument("--smoke", action="store_true",
                        help="smoke-scale frames and a single iteration")
    parser.add_argument("--sets", type=int, default=0,
                        help="run every workload this many times, round-robin")
    parser.add_argument("--out", default=None, help="write the --sets results here")
    parser.add_argument("--update-expected", action="store_true",
                        help="pin this run's default-placement digests (and --sets noise)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        parser.exit(2, f"error: no simulator source under {ROOT / 'src'}\n")
    seconds = args.seconds
    if seconds is None:
        seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    if not args.sets and not args.workload:
        parser.error("--workload is required unless --sets is given")
    try:
        if args.sets:
            return run_sets(args.sets, args.seed, seconds, args.out, args.update_expected)
        result = run_workload(args.workload, args.seed, seconds, bool(args.trace), args.smoke,
                              args.trace_out)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print_run(result)
    if args.update_expected:
        update_expected_file([result], smoke=args.smoke)
    print(result_line(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
