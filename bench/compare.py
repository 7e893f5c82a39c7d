"""Compare two sets of benchmark runs, one row per (workload, end-to-end metric).

    python3 bench/compare.py BASE.json HEAD.json

Each file is what ``python3 bench/run.py --sets N --out FILE`` writes.
A row shows both sides' medians and quartiles over their runs and a
verdict, using the bounds in ``BENCHMARK.json``:

* ``unresolved`` - either side's spread (interquartile range over the
  median) is wider than the bound, unless every HEAD run reads better
  than every BASE run (then ``better``);
* ``worse`` - HEAD's median is worse than BASE's by more than the bound;
* ``better`` - HEAD's median is better by more than BASE's spread and
  HEAD wins at least nine tenths of the (BASE, HEAD) run pairs;
* ``same`` - otherwise.

Exits 1 when any row is ``worse`` or ``unresolved``, or a run failed.
"""

from __future__ import annotations

import argparse
import json
import statistics
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from run import ROOT, summary


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    stats = summary(values)
    return stats["q1"], stats["median"], stats["q3"]


def verdict(base: List[float], head: List[float], bound: float, better: str) -> str:
    """The row's verdict; see the module docstring."""
    sign = 1.0 if better == "lower" else -1.0
    b1, b_med, b3 = quartiles(base)
    h1, h_med, h3 = quartiles(head)
    spread = max((b3 - b1) / b_med, (h3 - h1) / h_med)
    change = sign * (h_med - b_med) / b_med
    if spread > bound:
        every_run_better = max(sign * h for h in head) < min(sign * b for b in base)
        return "better" if every_run_better else "unresolved"
    if change > bound:
        return "worse"
    pairs = list(zip(base, head))
    wins = sum(1 for b, h in pairs if sign * h < sign * b)
    if -change > (b3 - b1) / b_med and wins >= 0.9 * len(pairs):
        return "better"
    return "same"


def load_runs(path: str) -> Dict[str, List[Dict]]:
    by_workload: Dict[str, List[Dict]] = {}
    for run in json.loads(Path(path).read_text())["runs"]:
        by_workload.setdefault(run["workload"], []).append(run)
    return by_workload


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("base")
    parser.add_argument("head")
    args = parser.parse_args(argv)

    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    base, head = load_runs(args.base), load_runs(args.head)
    failed = False
    print(f"{'workload':<12} {'metric':<12} {'base median [q1, q3]':>30} "
          f"{'head median [q1, q3]':>30} {'change':>8}  verdict")
    for workload in base:
        if workload not in head:
            print(f"{workload:<12} missing from {args.head}")
            failed = True
            continue
        for side in (base[workload], head[workload]):
            failed |= any(not run["correct"] or run["failed"] for run in side)
        for metric in metrics:
            name = metric["name"]
            values = [[run["metrics"][name]["value"] for run in side]
                      for side in (base[workload], head[workload])]
            cells = []
            for side in values:
                q1, median, q3 = quartiles(side)
                cells.append(f"{median:.4g} [{q1:.4g}, {q3:.4g}] n={len(side)}")
            change = statistics.median(values[1]) / statistics.median(values[0]) - 1
            result = verdict(values[0], values[1], metric["bound"], metric["better"])
            failed |= result in ("worse", "unresolved")
            print(f"{workload:<12} {name:<12} {cells[0]:>30} {cells[1]:>30} "
                  f"{change:>+8.2%}  {result}")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
