"""Baseline (suppression) file for intentional rule exceptions.

Format — one tab-separated entry per line, comments and blanks ignored::

    RULEID <TAB> path <TAB> source-line-snippet <TAB> # justification

The snippet is the whitespace-normalised source line the finding sits
on, so entries survive line-number drift but die the moment the
flagged code is edited (the suppression then shows up as *stale*).
Every entry **must** carry a non-placeholder justification; the loader
rejects the file otherwise — a baseline is a list of argued-for
exceptions, not a mute button.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Collection, Dict, List, Sequence, Set, Tuple, Union

from repro.errors import ConfigurationError
from repro.lintkit.findings import Finding

#: Placeholder ``--write-baseline`` emits; must be replaced by hand.
TODO_JUSTIFICATION = "# TODO: justify this suppression"

_HEADER = """\
# repro-lint baseline: intentional, argued-for rule exceptions.
# One tab-separated entry per line:
#   RULEID<TAB>path<TAB>normalised source line<TAB># one-line justification
# Entries match findings by (rule, path, line content) -- immune to line
# renumbering, invalidated by any edit to the flagged line itself.
"""

EntryKey = Tuple[str, str, str]


@dataclass(frozen=True)
class BaselineEntry:
    rule: str
    path: str
    snippet: str
    justification: str

    @property
    def key(self) -> EntryKey:
        return (self.rule, self.path.replace("\\", "/"), self.snippet)

    def render(self) -> str:
        return f"{self.rule}\t{self.path}\t{self.snippet}\t{self.justification}"


def _match(entry_key: EntryKey, finding_key: EntryKey) -> bool:
    """Exact match, or suffix match on the path component.

    Suffix matching lets one baseline serve runs started from the repo
    root (``src/repro/...``) and from an absolute path.
    """
    if entry_key == finding_key:
        return True
    rule, path, snippet = entry_key
    f_rule, f_path, f_snippet = finding_key
    return (
        rule == f_rule
        and snippet == f_snippet
        and (f_path.endswith("/" + path) or path.endswith("/" + f_path))
    )


def _within(entry_path: str, anchor: Path, root: Path) -> bool:
    """Whether a baseline entry's path lies under a checked path.

    Entry paths are relative to ``anchor``, the directory holding the
    baseline file (``src/repro/...`` beside ``lint-baseline.txt``).  An
    entry that does not resolve under ``root`` was not checked.
    """
    entry = anchor / entry_path.replace("\\", "/")
    return entry.resolve().is_relative_to(root.resolve())


@dataclass
class Baseline:
    """A loaded suppression list."""

    entries: List[BaselineEntry] = field(default_factory=list)
    path: str = ""

    @classmethod
    def load(cls, path: Union[str, Path]) -> "Baseline":
        text = Path(path).read_text(encoding="utf-8")
        entries: List[BaselineEntry] = []
        problems: List[str] = []
        for number, raw in enumerate(text.splitlines(), start=1):
            line = raw.rstrip()
            if not line or line.lstrip().startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != 4:
                problems.append(
                    f"{path}:{number}: expected 4 tab-separated fields, got {len(parts)}"
                )
                continue
            rule, entry_path, snippet, justification = (part.strip() for part in parts)
            if not justification.startswith("#") or len(justification.lstrip("# ")) < 3:
                problems.append(
                    f"{path}:{number}: entry for {rule} needs a `# justification`"
                )
            elif justification == TODO_JUSTIFICATION:
                problems.append(
                    f"{path}:{number}: entry for {rule} still carries the TODO "
                    "placeholder; write a real justification"
                )
            entries.append(BaselineEntry(rule, entry_path, snippet, justification))
        if problems:
            raise ConfigurationError(
                "invalid baseline file:\n  " + "\n  ".join(problems)
            )
        return cls(entries=entries, path=str(path))

    def partition(
        self,
        findings: Sequence[Finding],
        ran: Collection[str],
        checked: Sequence[Union[str, Path]],
    ) -> Tuple[List[Finding], List[Finding], List[BaselineEntry]]:
        """Split findings into (unsuppressed, suppressed); report stale entries.

        A stale entry matched no finding although its rule ran (is in
        ``ran``) over its path (under one of the ``checked`` files or
        directories) — the flagged code was fixed or edited, so the
        suppression should be deleted.  An entry whose rule was not
        selected, or whose file lay outside the run, says nothing
        either way.
        """
        used: Set[EntryKey] = set()
        unsuppressed: List[Finding] = []
        suppressed: List[Finding] = []
        for finding in findings:
            matched = None
            for entry in self.entries:
                if _match(entry.key, finding.baseline_key):
                    matched = entry
                    break
            if matched is None:
                unsuppressed.append(finding)
            else:
                suppressed.append(finding)
                used.add(matched.key)
        anchor = Path(self.path).parent
        stale = [
            entry
            for entry in self.entries
            if entry.key not in used
            and entry.rule in ran
            and any(_within(entry.path, anchor, Path(root)) for root in checked)
        ]
        return unsuppressed, suppressed, stale


def prune_baseline(
    path: Union[str, Path], stale: Sequence[BaselineEntry]
) -> int:
    """Rewrite ``path`` without the ``stale`` entries.

    Surviving entries keep their hand-written justifications verbatim.
    Returns the number of entries removed.
    """
    baseline = Baseline.load(path)
    stale_keys = {entry.key for entry in stale}
    kept = [entry for entry in baseline.entries if entry.key not in stale_keys]
    removed = len(baseline.entries) - len(kept)
    if removed:
        body = "".join(entry.render() + "\n" for entry in kept)
        Path(path).write_text(_HEADER + body, encoding="utf-8")
    return removed


def write_baseline(path: Union[str, Path], findings: Sequence[Finding]) -> int:
    """Write a baseline suppressing ``findings``; returns the entry count.

    Each entry gets the TODO placeholder justification — the file will
    not load until every entry is justified by hand, which is the
    point: suppressions are individually argued for, never blanket.
    """
    seen: Dict[EntryKey, BaselineEntry] = {}
    for finding in sorted(findings, key=Finding.sort_key):
        entry = BaselineEntry(
            rule=finding.rule,
            path=finding.path.replace("\\", "/"),
            snippet=finding.snippet,
            justification=TODO_JUSTIFICATION,
        )
        seen.setdefault(entry.key, entry)
    body = "".join(entry.render() + "\n" for entry in seen.values())
    Path(path).write_text(_HEADER + body, encoding="utf-8")
    return len(seen)
