"""Interprocedural determinism taint (REPRO111).

REPRO101 catches a wall-clock or global-PRNG call *written inside* the
deterministic perimeter (``repro.core``/``cache``/``raster``
and the deterministic texture/workload modules).  It cannot see the
laundered version: a helper *outside* the perimeter returns
``time.time()`` (or a ``random.random()``-derived value) and
deterministic code calls the helper.

This rule closes that hole with the flow summaries: for every call
from a perimeter function to a project function defined outside the
perimeter, if the callee's return value derives from a taint source —
directly or through further helpers, to a fixpoint — the *call site*
is flagged.  Calls to functions inside the perimeter are skipped
(REPRO101–103 already police their bodies), as are unresolved calls:
a stdlib source called directly is REPRO101–103's finding.  Both
sides classify sources through one vocabulary,
:func:`repro.lintkit.flow.taint.source_category`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator

from repro.lintkit.findings import Finding
from repro.lintkit.flow.taint import describe
from repro.lintkit.registry import ProjectRule, register
from repro.lintkit.rules.determinism import DETERMINISTIC_SCOPES

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.lintkit.flow import Project


def _in_perimeter(module: str) -> bool:
    return any(
        module == scope or module.startswith(scope + ".")
        for scope in DETERMINISTIC_SCOPES
    )


@register
class InterproceduralTaintRule(ProjectRule):
    id = "REPRO111"
    title = (
        "deterministic code must not call helpers whose return value "
        "derives from the wall clock or a process-global PRNG"
    )
    scopes = DETERMINISTIC_SCOPES

    def check_project(self, project: "Project") -> Iterator[Finding]:
        symbols = project.symbols
        for info in symbols.functions.values():
            if not _in_perimeter(info.module):
                continue
            ctx = project.by_module[info.module]
            for site in project.callgraph.calls_from(info.qualname):
                if site.callee is None:
                    continue
                callee = symbols.function(site.callee)
                if callee is None or _in_perimeter(callee.module):
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
