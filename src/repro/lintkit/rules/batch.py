"""Batch-core rules (REPRO5xx).

The fragment→texel→cache hot path is vectorized end to end: raster
emits :class:`~repro.raster.fragments.FragmentBuffer` columns with
array passes, the trilinear filter translates whole columns at once,
and the LRU replay runs as chunked array phases.  A Python-level
``for``/``while`` loop over those columns reintroduces exactly the
per-fragment interpreter cost the batch core removed — silently, since
the result stays bit-identical.  These rules make that regression loud
inside the determinism perimeter (:mod:`repro.lintkit.scopes`).
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from repro.lintkit.context import ModuleContext
from repro.lintkit.findings import Finding
from repro.lintkit.registry import Rule, register
from repro.raster.fragments import FragmentBuffer

#: The per-fragment column names, taken from the buffer itself so the
#: rule tracks schema changes.
_COLUMN_NAMES = frozenset(FragmentBuffer.COLUMNS)


def _column_mention(node: ast.expr) -> Optional[str]:
    """Describe ``node`` if it names a FragmentBuffer column.

    Both spellings used by the batch modules are recognised: attribute
    access on a buffer (``fragments.u_half``) and string-keyed subscripts on
    a column dict (``piece["u_half"]``).
    """
    if isinstance(node, ast.Attribute) and node.attr in _COLUMN_NAMES:
        return f"`.{node.attr}`"
    if isinstance(node, ast.Subscript):
        key = node.slice
        if (
            isinstance(key, ast.Constant)
            and isinstance(key.value, str)
            and key.value in _COLUMN_NAMES
        ):
            return f'`["{key.value}"]`'
    return None


def _first_column_mention(node: ast.expr) -> Optional[str]:
    """First column reference anywhere inside an expression, if any."""
    for child in ast.walk(node):
        if isinstance(child, ast.expr):
            described = _column_mention(child)
            if described is not None:
                return described
    return None


@register
class FragmentColumnLoopRule(Rule):
    id = "REPRO501"
    title = "no Python loops over FragmentBuffer columns in the determinism perimeter"
    perimeter = True

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            suspects = []
            if isinstance(node, ast.For):
                suspects.append(("for", node.iter))
            elif isinstance(node, ast.While):
                suspects.append(("while", node.test))
            elif isinstance(
                node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
            ):
                suspects.extend(("comprehension", gen.iter) for gen in node.generators)
            for kind, expr in suspects:
                described = _first_column_mention(expr)
                if described is None:
                    continue
                where = "condition" if kind == "while" else "iterable"
                yield self.finding(
                    ctx,
                    expr,
                    f"Python-level {kind} loop whose {where} touches the "
                    f"fragment column {described}; this path is vectorized — "
                    "express the work as whole-column array ops instead",
                )
                break
