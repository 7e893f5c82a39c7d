"""Concurrency-discipline rules (REPRO4xx) for the service layer.

The scheduler and its helpers are the only truly multi-threaded code
in the tree.  REPRO401 (per file) bans bare ``except:`` there.  Lock
discipline — state shared between threads is touched only inside
``with self.<lock>:`` — needs a whole class at once and is checked
over the project by REPRO411/412 (:mod:`repro.lintkit.rules.lockflow`),
which share this module's scope, mutation vocabulary and
caller-holds-the-lock convention.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from repro.lintkit.context import ModuleContext
from repro.lintkit.findings import Finding
from repro.lintkit.registry import Rule, register
from repro.lintkit.scopes import SERVICE

#: Method names that mutate their receiver in place.
_MUTATING_METHODS = frozenset(
    {
        "append",
        "appendleft",
        "add",
        "clear",
        "discard",
        "extend",
        "insert",
        "pop",
        "popleft",
        "popitem",
        "remove",
        "setdefault",
        "update",
    }
)


@register
class BareExceptRule(Rule):
    id = "REPRO401"
    title = "no bare `except:` in the service layer"
    scopes = SERVICE

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ExceptHandler) and node.type is None:
                yield self.finding(
                    ctx,
                    node,
                    "bare `except:` swallows KeyboardInterrupt/SystemExit and "
                    "hides worker crashes; catch `Exception` (or narrower)",
                )


def _self_attribute(node: ast.expr) -> Optional[str]:
    """``X`` when ``node`` is exactly ``self.X``."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def _caller_holds_lock(method: ast.FunctionDef) -> bool:
    """Methods exempt by the documented caller-holds-the-lock convention."""
    if method.name.endswith("_locked"):
        return True
    doc = ast.get_docstring(method) or ""
    return "holds the lock" in doc.lower()
