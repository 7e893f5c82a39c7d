"""Determinism rules (REPRO101, REPRO104).

The golden-value tests pin exact cycle counts; the simulation must
therefore be a pure function of its inputs.  Wall-clock reads and
global PRNG state inside the determinism perimeter are REPRO111's
(:mod:`repro.lintkit.rules.taintflow`), at any call depth.  This
module holds the two checks that are not taint: REPRO104 forbids
iteration whose order depends on a ``set``'s hash layout inside the
perimeter, and REPRO101 forbids duration arithmetic on an adjustable
clock in the service layer.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from repro.lintkit.context import ModuleContext
from repro.lintkit.findings import Finding
from repro.lintkit.registry import Rule, register
from repro.lintkit.scopes import SERVICE

#: Clock sources that step under adjustment (unlike the monotonic family).
ADJUSTABLE_CLOCK_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)


@register
class WallClockDurationRule(Rule):
    id = "REPRO101"
    title = "no wall-clock duration arithmetic in the service layer"
    #: The service layer legitimately stamps display timestamps with
    #: ``time.time()``, but subtracting two of them measures a duration
    #: that jumps with every NTP step — durations must be monotonic.
    scopes = SERVICE

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        """Flag adjustable-clock reads used as arithmetic operands.

        ``time.time()`` alone (a display timestamp) is fine; the bug is
        ``time.time() - started`` — a duration that steps whenever the
        wall clock is adjusted.  Comparisons against deadlines built
        from wall time are the same bug in disguise, so comparison
        operands are flagged too.
        """
        for node in ast.walk(ctx.tree):
            operands = []
            if isinstance(node, ast.BinOp):
                operands = [node.left, node.right]
            elif isinstance(node, ast.AugAssign):
                operands = [node.value]
            elif isinstance(node, ast.Compare):
                operands = [node.left, *node.comparators]
            for operand in operands:
                if not isinstance(operand, ast.Call):
                    continue
                name = ctx.qualname(operand.func)
                if name in ADJUSTABLE_CLOCK_CALLS:
                    yield self.finding(
                        ctx,
                        operand,
                        f"duration arithmetic on the adjustable clock "
                        f"`{name}()` steps with every clock adjustment; "
                        "use `time.monotonic()` for durations and keep "
                        "wall time for display timestamps only",
                    )


def _set_expression(node: ast.expr) -> Optional[str]:
    """Describe ``node`` if iterating it depends on set hash order."""
    if isinstance(node, ast.Set):
        return "a set literal"
    if isinstance(node, ast.SetComp):
        return "a set comprehension"
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Name) and func.id in ("set", "frozenset"):
            return f"`{func.id}(...)`"
    return None


#: Wrappers that preserve the (undefined) order of a set argument.
_ORDER_PRESERVING_WRAPPERS = frozenset({"enumerate", "list", "tuple", "iter", "reversed"})


@register
class SetIterationRule(Rule):
    id = "REPRO104"
    title = "no iteration-order dependence on sets in the determinism perimeter"
    perimeter = True

    def _iter_target(self, node: ast.expr) -> Optional[str]:
        described = _set_expression(node)
        if described is not None:
            return described
        # One unwrap through order-preserving wrappers: list(set(...)).
        if isinstance(node, ast.Call):
            func = node.func
            if (
                isinstance(func, ast.Name)
                and func.id in _ORDER_PRESERVING_WRAPPERS
                and node.args
            ):
                inner = _set_expression(node.args[0])
                if inner is not None:
                    return f"{inner} (via `{func.id}`)"
        return None

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            iters = []
            if isinstance(node, ast.For):
                iters.append(node.iter)
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
                iters.extend(gen.iter for gen in node.generators)
            for target in iters:
                described = self._iter_target(target)
                if described is not None:
                    yield self.finding(
                        ctx,
                        target,
                        f"iterating {described} visits elements in hash order; "
                        "wrap it in `sorted(...)` to fix the order",
                    )
