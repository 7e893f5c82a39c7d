"""Determinism rules (REPRO1xx).

The golden-value tests pin exact cycle counts; the simulation core
must therefore be a pure function of its inputs.  These rules forbid
the classic nondeterminism sources inside the hot packages: wall-clock
reads, global PRNG state, and iteration whose order depends on a
``set``'s hash layout.  REPRO101–103 classify calls through
:func:`repro.lintkit.flow.taint.source_category`, the same source
vocabulary REPRO111 propagates across helper calls; they are its
zero-hop case, kept per file so the core perimeter is checked without
``--project``.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional, Tuple

from repro.lintkit.context import ModuleContext
from repro.lintkit.findings import Finding
from repro.lintkit.flow.taint import (
    RNG,
    SEEDABLE_CONSTRUCTORS,
    WALL_CLOCK,
    source_category,
)
from repro.lintkit.registry import Rule, register

#: Packages whose results must be bit-exact across runs.  The VT page
#: table and workload driver join the core: the golden points pin the
#: whole residency trajectory, frame by frame.
DETERMINISTIC_SCOPES: Tuple[str, ...] = (
    "repro.core",
    "repro.cache",
    "repro.raster",
    "repro.texture.pages",
    "repro.workloads.vt",
)

#: Scopes where only *duration arithmetic* on the wall clock is banned:
#: the service layer legitimately stamps display timestamps with
#: ``time.time()``, but subtracting two of them measures a duration
#: that jumps with every NTP step — durations must be monotonic.
DURATION_SCOPES: Tuple[str, ...] = ("repro.service",)

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


def _in_scope(module: str, scopes: Tuple[str, ...]) -> bool:
    return any(
        module == scope or module.startswith(scope + ".") for scope in scopes
    )


@register
class WallClockRule(Rule):
    id = "REPRO101"
    title = (
        "no wall-clock reads in the deterministic core; no wall-clock "
        "duration arithmetic in the service layer"
    )
    scopes = DETERMINISTIC_SCOPES + DURATION_SCOPES

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        if _in_scope(ctx.module, DETERMINISTIC_SCOPES):
            yield from self._check_core(ctx)
        elif _in_scope(ctx.module, DURATION_SCOPES):
            yield from self._check_durations(ctx)

    def _check_core(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            name = ctx.qualname(node.func)
            if source_category(name, node) == WALL_CLOCK:
                yield self.finding(
                    ctx,
                    node,
                    f"wall-clock read `{name}()` makes simulation output "
                    "run-dependent; derive times from the simulation clock",
                )

    def _check_durations(self, ctx: ModuleContext) -> Iterator[Finding]:
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


@register
class StdlibRandomRule(Rule):
    id = "REPRO102"
    title = "no global `random` module state in the deterministic core"
    scopes = DETERMINISTIC_SCOPES

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            name = ctx.qualname(node.func)
            if name is None or not name.startswith("random."):
                continue
            if source_category(name, node) != RNG:
                continue  # a locally seeded Random(seed) is reproducible
            if name in SEEDABLE_CONSTRUCTORS:
                message = f"`{name}()` without a seed is nondeterministic"
            else:
                message = (
                    f"`{name}()` uses the process-global PRNG; thread a seeded "
                    "generator through instead"
                )
            yield self.finding(ctx, node, message)


@register
class NumpyRandomRule(Rule):
    id = "REPRO103"
    title = "no unseeded numpy.random in the deterministic core"
    scopes = DETERMINISTIC_SCOPES

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            name = ctx.qualname(node.func)
            if name is None or not name.startswith("numpy.random."):
                continue
            if source_category(name, node) != RNG:
                continue  # a seeded constructor is reproducible
            if name in SEEDABLE_CONSTRUCTORS:
                message = f"`{name}()` without an explicit seed draws OS entropy"
            else:
                message = (
                    f"`{name}()` mutates numpy's global PRNG state; use a seeded "
                    "`numpy.random.default_rng(seed)` generator"
                )
            yield self.finding(ctx, node, message)


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
    title = "no iteration-order dependence on sets in the deterministic core"
    scopes = DETERMINISTIC_SCOPES

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
