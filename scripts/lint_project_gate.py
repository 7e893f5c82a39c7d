"""CI gate for the lint pass (DESIGN.md §9, §14).

Runs ``repro-lint src`` through the engine API, writes the full JSON
report to ``--out`` (uploaded as a CI artifact so findings are
inspectable without re-running), and enforces two budgets:

* **cleanliness** — unsuppressed findings fail the gate, same
  contract as ``repro-lint``;
* **time** — the whole analysis (parse + symbol table + call graph +
  summaries + rules) must finish within ``--budget-seconds``
  (default 30).  The pass is ~1 s today; the guard exists so an
  accidentally quadratic rule or summary blow-up fails loudly in CI
  instead of silently eating the lint job.

Exit codes: 0 clean and in budget, 1 findings, 3 over time budget.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from repro.lintkit.baseline import Baseline
from repro.lintkit.cli import DEFAULT_BASELINE
from repro.lintkit.engine import run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("paths", nargs="*", default=None)
    parser.add_argument("--out", type=Path, default=Path("lint-project.json"))
    parser.add_argument("--budget-seconds", type=float, default=30.0)
    args = parser.parse_args(argv)
    paths = args.paths or ["src"]

    baseline = None
    baseline_path = Path(DEFAULT_BASELINE)
    if baseline_path.is_file():
        baseline = Baseline.load(baseline_path)

    started = time.monotonic()
    report = run(paths, baseline=baseline)
    elapsed = time.monotonic() - started

    payload = report.to_dict()
    payload["elapsed_seconds"] = round(elapsed, 3)
    payload["budget_seconds"] = args.budget_seconds
    args.out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")

    print(
        f"lint: {len(report.findings)} finding(s), "
        f"{len(report.suppressed)} suppressed, "
        f"{report.files_checked} file(s), {elapsed:.2f}s "
        f"(budget {args.budget_seconds:.0f}s) -> {args.out}"
    )
    for finding in report.findings:
        print(finding.render(), file=sys.stderr)
    if elapsed > args.budget_seconds:
        print(
            f"FAIL: lint analysis took {elapsed:.1f}s, over the "
            f"{args.budget_seconds:.0f}s budget",
            file=sys.stderr,
        )
        return 3
    return 1 if report.findings else 0


if __name__ == "__main__":
    raise SystemExit(main())
