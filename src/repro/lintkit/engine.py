"""The analysis driver: walk files, run rules, apply suppressions.

Inline suppression is supported next to the baseline file: a trailing
``# repro-lint: ignore[REPRO201] -- reason`` comment on the flagged
line silences exactly that rule (a reason is required; the comment is
rejected otherwise).  Baseline entries live in ``lint-baseline.txt``
(see :mod:`repro.lintkit.baseline`).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, List, Optional, Sequence, Union

from repro.errors import ConfigurationError
from repro.lintkit.baseline import Baseline, BaselineEntry
from repro.lintkit.context import ModuleContext
from repro.lintkit.findings import Finding
from repro.lintkit.registry import ProjectRule, Rule, select_rules

#: Inline suppression comment grammar.
_INLINE_IGNORE = re.compile(
    r"#\s*repro-lint:\s*ignore\[(?P<rules>[A-Z0-9,\s]+)\](?P<reason>.*)$"
)

#: Directories never worth analyzing.
_SKIP_DIRS = frozenset({"__pycache__", ".git", ".mypy_cache", ".ruff_cache"})


def iter_python_files(paths: Iterable[Union[str, Path]]) -> List[Path]:
    """Every ``.py`` file under ``paths``, sorted for determinism."""
    out: List[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_file():
            if path.suffix == ".py":
                out.append(path)
        elif path.is_dir():
            for candidate in path.rglob("*.py"):
                if not _SKIP_DIRS.intersection(candidate.parts):
                    out.append(candidate)
        else:
            raise ConfigurationError(f"no such file or directory: {path}")
    return sorted(set(out))


def _inline_suppressed(ctx: ModuleContext, finding: Finding) -> bool:
    match = _INLINE_IGNORE.search(ctx.line(finding.line))
    if not match:
        return False
    rules = {rule.strip() for rule in match.group("rules").split(",")}
    if finding.rule not in rules:
        return False
    reason = match.group("reason").strip(" -—:")
    if len(reason) < 3:
        raise ConfigurationError(
            f"{finding.path}:{finding.line}: inline ignore for {finding.rule} "
            "needs a reason: `# repro-lint: ignore[RULE] -- why`"
        )
    return True


def analyze_context(
    ctx: ModuleContext, rules: Optional[Sequence[Rule]] = None
) -> List[Finding]:
    """Run ``rules`` (default: all) over one parsed module."""
    active = list(rules) if rules is not None else select_rules()
    findings: List[Finding] = []
    for rule in active:
        if rule.requires_project or not rule.applies_to(ctx.module):
            continue
        for finding in rule.check(ctx):
            if not _inline_suppressed(ctx, finding):
                findings.append(finding)
    findings.sort(key=Finding.sort_key)
    return findings


def analyze_source(
    source: str,
    path: str = "<source>",
    module: Optional[str] = None,
    rules: Optional[Sequence[Rule]] = None,
) -> List[Finding]:
    """Analyze a source string (the fixture-test entry point).

    ``module`` places the snippet in a package for scope matching —
    e.g. ``module="repro.core.fake"`` exercises the determinism rules.
    """
    return analyze_context(ModuleContext.from_source(source, path, module), rules)


@dataclass
class Report:
    """Outcome of one lint run."""

    findings: List[Finding] = field(default_factory=list)      # unsuppressed
    suppressed: List[Finding] = field(default_factory=list)    # baselined
    stale_entries: List[BaselineEntry] = field(default_factory=list)
    files_checked: int = 0

    @property
    def clean(self) -> bool:
        return not self.findings

    def to_dict(self) -> dict:
        return {
            "files_checked": self.files_checked,
            "findings": [
                {
                    "rule": f.rule,
                    "path": f.path,
                    "line": f.line,
                    "col": f.col,
                    "message": f.message,
                    "snippet": f.snippet,
                }
                for f in self.findings
            ],
            "suppressed": len(self.suppressed),
            "stale_baseline_entries": [entry.render() for entry in self.stale_entries],
        }


def run(
    paths: Iterable[Union[str, Path]],
    baseline: Optional[Baseline] = None,
    select: Optional[Iterable[str]] = None,
    project: bool = False,
) -> Report:
    """Analyze every Python file under ``paths`` and apply the baseline.

    With ``project=True`` the tree is additionally parsed into a
    :class:`~repro.lintkit.flow.Project` and the project rules
    (key completeness, lock discipline, interprocedural taint) run on
    top of the per-file ones.  The project's contexts back the
    per-file pass too, so the tree is parsed exactly once.
    """
    rules = select_rules(list(select) if select is not None else None)
    paths = list(paths)
    files = iter_python_files(paths)
    all_findings: List[Finding] = []
    if project:
        from repro.lintkit import flow

        proj = flow.project_for(files)
        by_path = {ctx.path: ctx for ctx in proj.contexts}
        for ctx in proj.contexts:
            all_findings.extend(analyze_context(ctx, rules))
        for rule in rules:
            if not isinstance(rule, ProjectRule):
                continue
            for finding in rule.check_project(proj):
                ctx = by_path.get(finding.path)
                if ctx is None or not _inline_suppressed(ctx, finding):
                    all_findings.append(finding)
    else:
        for file_path in files:
            ctx = ModuleContext.from_path(str(file_path))
            all_findings.extend(analyze_context(ctx, rules))
    all_findings.sort(key=Finding.sort_key)
    if baseline is None:
        return Report(findings=all_findings, files_checked=len(files))
    ran = {rule.id for rule in rules if project or not rule.requires_project}
    unsuppressed, suppressed, stale = baseline.partition(
        all_findings, ran=ran, checked=paths
    )
    return Report(
        findings=unsuppressed,
        suppressed=suppressed,
        stale_entries=stale,
        files_checked=len(files),
    )
