"""Project call graph: resolved call sites, by caller.

Built once per :class:`~repro.lintkit.flow.Project` from the symbol
table.  Every syntactic call inside every indexed function is recorded
as a :class:`CallSite`, with its callee's project qualname when it
resolves to a project function.  Unresolved sites (builtins, stdlib, method calls on values) keep their dotted
name when the import table can produce one, so rules can still match
them against vocabularies like the wall-clock call set.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.lintkit.flow import Project


@dataclass
class CallSite:
    """One syntactic call inside one project function."""

    caller: str
    node: ast.Call
    path: str
    line: int
    #: Project qualname of the callee when resolved, else ``None``.
    callee: Optional[str]
    #: Best-effort dotted name (``time.monotonic``) even when the
    #: callee is not a project function; ``None`` for value-rooted
    #: chains (``obj.method()``).
    dotted: Optional[str]


class CallGraph:
    """Call sites indexed by caller."""

    def __init__(self) -> None:
        self.sites: List[CallSite] = []
        self._by_caller: Dict[str, List[CallSite]] = {}

    @classmethod
    def build(cls, project: "Project") -> "CallGraph":
        graph = cls()
        symbols = project.symbols
        for info in symbols.functions.values():
            ctx = project.by_module.get(info.module)
            if ctx is None:
                continue
            enclosing = symbols.class_of(info)
            for node in ast.walk(info.node):
                if not isinstance(node, ast.Call):
                    continue
                resolved = symbols.resolve_call(ctx, node, enclosing)
                graph._add(
                    CallSite(
                        caller=info.qualname,
                        node=node,
                        path=info.path,
                        line=getattr(node, "lineno", info.node.lineno),
                        callee=resolved.qualname if resolved is not None else None,
                        dotted=ctx.qualname(node.func),
                    )
                )
        return graph

    def _add(self, site: CallSite) -> None:
        self.sites.append(site)
        self._by_caller.setdefault(site.caller, []).append(site)

    def calls_from(self, qualname: str) -> List[CallSite]:
        """Every call site inside ``qualname``."""
        return list(self._by_caller.get(qualname, ()))
