"""Cycle-accounting rules (REPRO2xx).

Cycle and latency quantities are logically integers (one unit == one
engine clock) even where the implementation stores them as floats.
Exact ``==``/``!=`` on derived float cycle values drifts the moment an
optimisation reassociates an addition, and true division silently
turns a cycle count into a fraction — both corrupt golden cycle counts
without failing loudly.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator, Optional

from repro.lintkit.context import ModuleContext
from repro.lintkit.findings import Finding
from repro.lintkit.registry import Rule, register

#: Identifier fragments that mark a value as cycle/latency-valued.
_CYCLE_NAME = re.compile(
    r"(?:^|_)(?:cycle|cycles|latency|latencies|deadline)(?:$|_)|"
    r"^(?:finish|free_at|stall|busy)(?:$|_)"
)


def _terminal_name(node: ast.expr) -> Optional[str]:
    """The rightmost identifier of a ``Name``/``Attribute`` chain."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def names_cycle_value(node: ast.expr) -> bool:
    """Whether ``node`` is named like a cycle/latency quantity."""
    name = _terminal_name(node)
    return bool(name and _CYCLE_NAME.search(name))


def _is_exempt_operand(node: ast.expr) -> bool:
    """Operands whose comparison can never be a float-drift bug."""
    return isinstance(node, ast.Constant) and isinstance(
        node.value, (str, bytes, bool, type(None))
    )


@register
class CycleEqualityRule(Rule):
    id = "REPRO201"
    title = "no float ==/!= on cycle or latency values"
    perimeter = True

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left, *node.comparators]
            for op, left, right in zip(node.ops, operands, operands[1:]):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                if _is_exempt_operand(left) or _is_exempt_operand(right):
                    continue
                if names_cycle_value(left) or names_cycle_value(right):
                    yield self.finding(
                        ctx,
                        node,
                        "exact ==/!= on a cycle/latency value drifts under float "
                        "reassociation; compare integers or use an ordering test",
                    )
                    break


def _contains_true_division(node: ast.AST) -> bool:
    """Whether ``node`` contains a ``/``, not descending into lambdas."""
    if isinstance(node, ast.Lambda):
        return False
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div):
        return True
    return any(_contains_true_division(child) for child in ast.iter_child_nodes(node))


@register
class CycleDivisionRule(Rule):
    id = "REPRO202"
    title = "no true division assigned into cycle-valued names"
    perimeter = True

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            targets = []
            value: Optional[ast.expr] = None
            divides = False
            if isinstance(node, ast.Assign):
                targets = node.targets
                value = node.value
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
                value = node.value
                # ``x /= n``: the division is the operator, not the value.
                divides = isinstance(node, ast.AugAssign) and isinstance(
                    node.op, ast.Div
                )
            if not divides and (value is None or not _contains_true_division(value)):
                continue
            for target in targets:
                if isinstance(target, ast.expr) and names_cycle_value(target):
                    yield self.finding(
                        ctx,
                        node,
                        "true division assigned into a cycle-valued name makes "
                        "the count fractional; use // or account in texels/bytes",
                    )
                    break
