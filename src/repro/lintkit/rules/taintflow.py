"""Determinism taint (REPRO111): the one rule for the wall clock and global PRNGs.

Inside the determinism perimeter (:mod:`repro.lintkit.scopes`) no value
may derive from the wall clock or a process-global PRNG, however it
arrives:

* **depth 0** — a source call written in a perimeter module, anywhere
  in it: function bodies, class bodies and module-level statements;
* **depth 1 and more** — a call from a perimeter function to a project
  function *outside* the perimeter whose return value derives from a
  source, directly or through further helpers, to a fixpoint of the
  flow summaries.  The *call site* is flagged.

Calls to functions inside the perimeter are not followed: depth 0
already checks their bodies.  Unresolved calls are not followed
either: a stdlib source called directly is a depth-0 finding.  Both
depths classify sources through one vocabulary,
:func:`repro.lintkit.flow.taint.source_category`.
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Iterator, Optional

from repro.lintkit.context import ModuleContext
from repro.lintkit.findings import Finding
from repro.lintkit.flow.taint import (
    SEEDABLE_CONSTRUCTORS,
    WALL_CLOCK,
    describe,
    source_category,
)
from repro.lintkit.registry import Rule, register
from repro.lintkit.scopes import in_perimeter

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.lintkit.flow import Project


def _direct_message(name: Optional[str], category: str) -> str:
    if category == WALL_CLOCK:
        return (
            f"wall-clock read `{name}()` makes simulation output "
            "run-dependent; derive times from the simulation clock"
        )
    if name in SEEDABLE_CONSTRUCTORS:
        return f"`{name}()` without an explicit seed draws OS entropy"
    return (
        f"`{name}()` uses a process-global PRNG; thread a seeded "
        "generator through instead"
    )


@register
class DeterminismTaintRule(Rule):
    id = "REPRO111"
    title = (
        "no value derived from the wall clock or a process-global PRNG "
        "in the determinism perimeter, read directly or through helpers"
    )
    perimeter = True

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        """Depth 0: source calls written anywhere in a perimeter module."""
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            name = ctx.qualname(node.func)
            category = source_category(name, node)
            if category is not None:
                yield self.finding(ctx, node, _direct_message(name, category))

    def check_project(self, project: "Project") -> Iterator[Finding]:
        yield from super().check_project(project)
        symbols = project.symbols
        for info in symbols.functions.values():
            if not in_perimeter(info.module):
                continue
            ctx = project.by_module[info.module]
            for site in project.callgraph.calls_from(info.qualname):
                if site.callee is None:
                    continue
                callee = symbols.function(site.callee)
                if callee is None or in_perimeter(callee.module):
                    continue
                summary = project.summaries.summary(site.callee)
                if summary is None or not summary.sources_to_return:
                    continue
                sources = " and ".join(
                    describe(cat) for cat in sorted(summary.sources_to_return)
                )
                yield self.finding(
                    ctx,
                    site.node,
                    f"call to {site.callee} from deterministic code: its "
                    f"return value derives from {sources} (possibly through "
                    "further helpers); thread the value in as a parameter "
                    "instead",
                )
