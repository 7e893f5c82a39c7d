"""Observability-hygiene rules (REPRO3xx).

The instrumentation contract (DESIGN.md §8): hot paths hold one
recorder reference resolved *once* — either the null object or a live
recorder — so an event site costs a single attribute check, and every
metric name follows the ``dotted.lower`` grammar so ``/metrics`` dumps
group and diff cleanly.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator, List

from repro.lintkit.context import ModuleContext
from repro.lintkit.findings import Finding
from repro.lintkit.registry import Rule, register

#: Qualified names of the process-wide recorder accessor.
_RECORDER_ACCESSORS = frozenset(
    {
        "repro.obs.recorder",
        "repro.obs.recorder.recorder",
    }
)

#: Metric name grammar: at least two dotted lowercase segments.
METRIC_NAME = re.compile(r"^[a-z][a-z0-9_]*(\.[a-z][a-z0-9_]*)+$")

#: Characters allowed in the literal fragments of an f-string name.
_FSTRING_FRAGMENT = re.compile(r"^[a-z0-9_.]*$")

#: Registry methods whose first argument is a metric name.
_INSTRUMENT_METHODS = frozenset({"counter", "gauge", "histogram"})


def _is_recorder_accessor(ctx: ModuleContext, node: ast.expr) -> bool:
    if not isinstance(node, ast.Call):
        return False
    name = ctx.qualname(node.func)
    return name in _RECORDER_ACCESSORS


@register
class RecorderAccessRule(Rule):
    id = "REPRO301"
    title = "hot paths resolve the recorder once (null-object pattern)"
    perimeter = True

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        yield from self._walk(ctx, ctx.tree, loop_depth=0)

    def _walk(
        self, ctx: ModuleContext, node: ast.AST, loop_depth: int
    ) -> Iterator[Finding]:
        for child in ast.iter_child_nodes(node):
            # Chained use: ``obs.recorder().span(...)`` re-resolves the
            # global per event instead of dispatching on a held
            # null-object/None reference.
            if (
                isinstance(child, ast.Call)
                and isinstance(child.func, ast.Attribute)
                and _is_recorder_accessor(ctx, child.func.value)
            ):
                yield self.finding(
                    ctx,
                    child,
                    "recorder accessor chained per call site; resolve the "
                    "recorder once outside the hot path and dispatch on the "
                    "held reference (NULL_RECORDER / None)",
                )
            elif _is_recorder_accessor(ctx, child) and loop_depth > 0:
                yield self.finding(
                    ctx,
                    child,
                    "recorder accessor called inside a loop; hoist the lookup "
                    "out of the hot path",
                )
            deeper = loop_depth + (1 if isinstance(child, (ast.For, ast.While)) else 0)
            yield from self._walk(ctx, child, deeper)


def _name_fragments(node: ast.expr) -> List[str]:
    """Literal fragments of a metric-name argument (may be empty)."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return [node.value]
    if isinstance(node, ast.JoinedStr):
        return [
            value.value
            for value in node.values
            if isinstance(value, ast.Constant) and isinstance(value.value, str)
        ]
    return []


@register
class MetricNameRule(Rule):
    id = "REPRO302"
    title = "metric names follow the dotted.lower grammar"
    scopes = ("repro",)

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call) or not node.args:
                continue
            func = node.func
            if not isinstance(func, ast.Attribute):
                continue
            if func.attr not in _INSTRUMENT_METHODS:
                continue
            name_arg = node.args[0]
            if isinstance(name_arg, ast.Constant):
                if not isinstance(name_arg.value, str):
                    continue
                if not METRIC_NAME.match(name_arg.value):
                    yield self.finding(
                        ctx,
                        name_arg,
                        f"metric name {name_arg.value!r} does not match the "
                        "`dotted.lower` grammar (e.g. `cache.misses`)",
                    )
            elif isinstance(name_arg, ast.JoinedStr):
                for fragment in _name_fragments(name_arg):
                    if not _FSTRING_FRAGMENT.match(fragment):
                        yield self.finding(
                            ctx,
                            name_arg,
                            f"metric name fragment {fragment!r} contains "
                            "characters outside the `dotted.lower` grammar",
                        )
                        break
