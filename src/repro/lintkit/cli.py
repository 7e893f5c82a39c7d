"""``repro-lint`` — run the determinism/invariant analyzer from the shell.

Examples::

    repro-lint src
    repro-lint src --select REPRO111,REPRO104
    repro-lint src --write-baseline          # seed lint-baseline.txt
    repro-lint --list-rules
    repro-lint src --format json

Exit codes: 0 clean, 1 unsuppressed findings, 2 usage/config error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

from repro.errors import ConfigurationError, ReproError
from repro.lintkit.baseline import Baseline, prune_baseline, write_baseline
from repro.lintkit.engine import run
from repro.lintkit.registry import all_rules

#: Conventional baseline location, relative to the invocation directory.
DEFAULT_BASELINE = "lint-baseline.txt"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description=(
            "AST-based determinism and invariant checks for the repro tree "
            "(rule catalog: DESIGN.md §9; `--list-rules` for a summary)."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=None,
        help="files or directories to analyze (default: src, else .)",
    )
    parser.add_argument(
        "--baseline",
        type=Path,
        default=None,
        help=f"suppression file (default: {DEFAULT_BASELINE} when present)",
    )
    parser.add_argument(
        "--no-baseline",
        action="store_true",
        help="ignore any baseline file; report every finding",
    )
    parser.add_argument(
        "--write-baseline",
        action="store_true",
        help=(
            "write the current findings to the baseline file with TODO "
            "justifications (each must be hand-justified before it loads)"
        ),
    )
    parser.add_argument(
        "--prune-baseline",
        action="store_true",
        help=(
            "rewrite the baseline file without its stale entries (those "
            "matching no current finding), preserving justifications"
        ),
    )
    parser.add_argument(
        "--select",
        default=None,
        help="comma-separated rule ids to run (default: all)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalog and exit",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format (default: text)",
    )
    parser.add_argument(
        "--statistics",
        action="store_true",
        help="print per-rule finding counts",
    )
    return parser


def _list_rules() -> int:
    rules = all_rules()
    width = max(len(rule.id) for rule in rules)
    for rule in rules:
        print(f"{rule.id.ljust(width)}  {rule.title}  [{rule.scope_label()}]")
    return 0


def _resolve_paths(raw: Optional[List[str]]) -> List[str]:
    if raw:
        return raw
    return ["src"] if Path("src").is_dir() else ["."]


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _main(args)
    except ReproError as exc:
        print(f"repro-lint: error: {exc}", file=sys.stderr)
        return 2


def _main(args: argparse.Namespace) -> int:
    if args.list_rules:
        return _list_rules()
    paths = _resolve_paths(args.paths)
    select = (
        [rule.strip() for rule in args.select.split(",") if rule.strip()]
        if args.select
        else None
    )

    if args.write_baseline:
        target = args.baseline if args.baseline is not None else Path(DEFAULT_BASELINE)
        findings = run(paths, baseline=None, select=select).findings
        count = write_baseline(target, findings)
        print(
            f"wrote {count} entr{'y' if count == 1 else 'ies'} to {target}; "
            "replace every TODO with a one-line justification before the "
            "baseline will load"
        )
        return 0

    baseline = None
    if not args.no_baseline:
        source = args.baseline if args.baseline is not None else Path(DEFAULT_BASELINE)
        if source.is_file():
            baseline = Baseline.load(source)
        elif args.baseline is not None:
            raise ConfigurationError(f"baseline file not found: {source}")

    report = run(paths, baseline=baseline, select=select)

    if args.prune_baseline:
        if baseline is None:
            raise ConfigurationError(
                "--prune-baseline needs a baseline file (none found/loaded)"
            )
        removed = prune_baseline(baseline.path, report.stale_entries)
        print(
            f"pruned {removed} stale entr{'y' if removed == 1 else 'ies'} "
            f"from {baseline.path}"
        )

    if args.format == "json":
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        for finding in report.findings:
            print(finding.render())
        if not args.prune_baseline:
            for entry in report.stale_entries:
                print(
                    f"warning: stale baseline entry (code fixed or edited): "
                    f"[{entry.rule}] {entry.path} {entry.snippet!r} "
                    f"-- justified as {entry.justification.lstrip('# ')!r}; "
                    "delete the line or rerun with --prune-baseline",
                    file=sys.stderr,
                )
        if args.statistics and report.findings:
            counts: dict = {}
            for finding in report.findings:
                counts[finding.rule] = counts.get(finding.rule, 0) + 1
            for rule_id, count in sorted(counts.items()):
                print(f"{rule_id}: {count}")
        summary = (
            f"{len(report.findings)} finding(s), "
            f"{len(report.suppressed)} suppressed, "
            f"{report.files_checked} file(s) checked"
        )
        print(("FAIL: " if report.findings else "OK: ") + summary)
    return 1 if report.findings else 0


if __name__ == "__main__":
    raise SystemExit(main())
