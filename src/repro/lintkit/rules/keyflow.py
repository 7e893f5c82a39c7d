"""Key completeness: every result-affecting input must be keyed.

The repo's caching layers all hinge on content-addressed keys: the
pipeline stage keys (``plan_key``/``replay_key``/``work_key``) and the
job-service result key.  A knob that affects the result but is *not*
folded into the key silently serves stale entries — the classic "added
a parameter, forgot to key it" bug (an unkeyed ``translator`` once
shipped in exactly this shape).

These rules machine-check that invariant against the table below
(:data:`KEYED_COMPUTATIONS`).  Each entry names one key-building
function and, per input, either *requires* flow into the key
expression (possibly through helper calls, per the flow summaries) or
carries a **written exemption justification**.  Three failure modes
produce findings:

* a non-exempt parameter/field that does not reach the key
  (``REPRO601``/``602`` proper);
* a table entry pointing at a function that no longer exists
  (table rot — the mapping must move with the code);
* an exemption naming an input the function no longer has
  (stale justification).

Entries whose *module* is absent from the analyzed tree are skipped,
so fixture-sized projects don't trip over the real table.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator, List, Mapping, Tuple

from repro.lintkit.findings import Finding
from repro.lintkit.flow.summaries import FIELD, PARAM, analyze_function
from repro.lintkit.registry import Rule, register

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.lintkit.flow import Project
    from repro.lintkit.flow.symbols import FunctionInfo


@dataclass(frozen=True)
class KeyedComputation:
    """One keyed function and the contract its inputs must meet."""

    rule: str
    #: Project qualname of the key-building function.
    function: str
    #: Local names holding the key; empty means the return value.
    key_variables: Tuple[str, ...] = ()
    #: Also require the enclosing class's dataclass fields.
    use_fields: bool = False
    #: input name -> why it is legitimately not part of the key.
    exempt: Mapping[str, str] = field(default_factory=dict)


#: The machine-checked mapping: every keyed computation in the repo.
#: Adding a result-affecting knob to one of these functions without
#: keying it (or exempting it here, with a reason) fails lint.
KEYED_COMPUTATIONS: Tuple[KeyedComputation, ...] = (
    KeyedComputation(
        rule="REPRO601",
        function="repro.pipeline.stages.routed_work",
        key_variables=("plan_key", "replay_key", "work_key"),
        exempt={
            "fragments": (
                "an explicit fragment-stream override disables caching "
                "entirely (the cacheable gate), so it never reaches a key"
            ),
        },
    ),
    KeyedComputation(
        rule="REPRO602",
        function="repro.service.jobs.JobSpec.result_key",
        use_fields=True,
        exempt={
            "kind": (
                "selects which key family is emitted; every branch keys "
                "its own result-affecting fields"
            ),
        },
    ),
)


def _module_prefix_present(project: "Project", qualname: str) -> bool:
    """Whether the entry's defining module is part of this analysis."""
    parts = qualname.split(".")
    return any(
        ".".join(parts[:cut]) in project.by_module for cut in range(len(parts), 0, -1)
    )


class _KeyCompletenessRule(Rule):
    """Shared driver; subclasses only narrow the table by rule id."""

    def check_project(self, project: "Project") -> Iterator[Finding]:
        for entry in KEYED_COMPUTATIONS:
            if entry.rule != self.id:
                continue
            yield from self._check_entry(project, entry)

    def _check_entry(
        self, project: "Project", entry: KeyedComputation
    ) -> Iterator[Finding]:
        info = project.symbols.function(entry.function)
        if info is None:
            if _module_prefix_present(project, entry.function):
                yield from self._table_rot(project, entry)
            return
        ctx = project.by_module[info.module]
        required, stale_exempt = self._inputs(project, info, entry)
        for name in stale_exempt:
            yield self.finding(
                ctx,
                info.node,
                f"KEYED_COMPUTATIONS exempts {name!r} on {entry.function}, "
                "which has no such parameter or field — drop or update the "
                "stale justification",
            )
        reached = self._reached_labels(project, info, entry)
        if reached is None:
            yield self.finding(
                ctx,
                info.node,
                f"KEYED_COMPUTATIONS expects {entry.function} to build its "
                f"key in {self._target_description(entry)}, but no such "
                "expression exists — update the mapping table",
            )
            return
        for kind, name in required:
            label = (PARAM if kind == "parameter" else FIELD) + name
            if label not in reached:
                yield self.finding(
                    ctx,
                    info.node,
                    f"{kind} {name!r} of {entry.function} does not flow into "
                    f"{self._target_description(entry)} — key every "
                    "result-affecting input, or exempt it in "
                    "KEYED_COMPUTATIONS with a justification",
                )

    def _inputs(
        self, project: "Project", info: "FunctionInfo", entry: KeyedComputation
    ) -> Tuple[List[Tuple[str, str]], List[str]]:
        names = {name: "parameter" for name in info.params}
        if entry.use_fields:
            cls = project.symbols.class_of(info)
            if cls is not None:
                for field_name in cls.fields:
                    names.setdefault(field_name, "field")
        required = [
            (kind, name) for name, kind in names.items() if name not in entry.exempt
        ]
        stale = [name for name in entry.exempt if name not in names]
        return required, stale

    def _reached_labels(
        self, project: "Project", info: "FunctionInfo", entry: KeyedComputation
    ):
        result = analyze_function(project, info, seed_fields=entry.use_fields)
        if entry.key_variables:
            missing = [
                name for name in entry.key_variables if name not in result.env
            ]
            if len(missing) == len(entry.key_variables):
                return None
            return result.reaching(entry.key_variables)
        return result.returns

    def _table_rot(
        self, project: "Project", entry: KeyedComputation
    ) -> Iterator[Finding]:
        parts = entry.function.split(".")
        for cut in range(len(parts), 0, -1):
            ctx = project.by_module.get(".".join(parts[:cut]))
            if ctx is not None:
                yield self.finding(
                    ctx,
                    ctx.tree,
                    f"KEYED_COMPUTATIONS names {entry.function}, which no "
                    "longer exists — the mapping table must move with the "
                    "code it protects",
                )
                return

    @staticmethod
    def _target_description(entry: KeyedComputation) -> str:
        if entry.key_variables:
            return "/".join(entry.key_variables)
        return "the returned key"


@register
class PipelineKeyCompleteness(_KeyCompletenessRule):
    id = "REPRO601"
    title = (
        "every result-affecting routed_work parameter must flow into the "
        "plan/replay/work keys (or carry a written exemption)"
    )


@register
class JobResultKeyCompleteness(_KeyCompletenessRule):
    id = "REPRO602"
    title = (
        "every JobSpec field must flow into result_key (or carry a written "
        "exemption) — unkeyed knobs silently collide result-store entries"
    )

