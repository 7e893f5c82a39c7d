"""Pluggable rule registry.

A rule is a class with an ``id`` (``REPROnnn``), a one-line ``title``,
the modules it applies to (a tuple of ``scopes``, or the determinism
``perimeter``) and either a per-module ``check(ctx)`` or a whole-tree
``check_project(project)`` generator yielding :class:`Finding` objects.
Rules self-register at import time via the :func:`register` decorator;
the engine asks :func:`all_rules` for the active set, so adding a rule
is one new module in :mod:`repro.lintkit.rules` — no engine changes.
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Dict, Iterable, Iterator, List, Optional, Tuple, Type

from repro.errors import ConfigurationError
from repro.lintkit.context import ModuleContext
from repro.lintkit.findings import Finding, normalize_snippet
from repro.lintkit.scopes import PERIMETER_LABEL, in_package, in_perimeter

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.lintkit.flow import Project


class Rule:
    """Base class every lint rule derives from."""

    #: Stable identifier (``REPROnnn``); baseline entries key on it.
    id: str = ""
    #: One-line summary shown by ``repro-lint --list-rules``.
    title: str = ""
    #: Module packages the rule applies to; ``None`` means every module.
    scopes: Optional[Tuple[str, ...]] = None
    #: Apply to the determinism perimeter instead of ``scopes``.
    perimeter: bool = False

    def applies_to(self, module: str) -> bool:
        if self.perimeter:
            return in_perimeter(module)
        return self.scopes is None or in_package(module, self.scopes)

    def scope_label(self) -> str:
        """Where the rule applies, as ``repro-lint --list-rules`` prints it."""
        if self.perimeter:
            return PERIMETER_LABEL
        return ", ".join(self.scopes) if self.scopes else "all modules"

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        """Findings in one module the rule applies to."""
        raise NotImplementedError

    def check_project(self, project: "Project") -> Iterator[Finding]:
        """Findings over the whole project.

        By default, :meth:`check` on every module the rule applies to.
        Rules that follow definitions across files (key completeness,
        lock discipline, interprocedural taint) override this and see
        the symbol table, call graph and flow summaries.
        """
        for ctx in project.contexts:
            if self.applies_to(ctx.module):
                yield from self.check(ctx)

    def finding(self, ctx: ModuleContext, node: ast.AST, message: str) -> Finding:
        """Build a finding anchored at ``node``."""
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        return Finding(
            rule=self.id,
            path=ctx.path,
            line=line,
            col=col,
            message=message,
            snippet=normalize_snippet(ctx.line(line)),
        )


_REGISTRY: Dict[str, Rule] = {}


def register(cls: Type[Rule]) -> Type[Rule]:
    """Class decorator adding one instance of ``cls`` to the registry."""
    if not cls.id:
        raise ConfigurationError(f"rule {cls.__name__} has no id")
    if cls.id in _REGISTRY:
        raise ConfigurationError(f"duplicate rule id {cls.id}")
    _REGISTRY[cls.id] = cls()
    return cls


def all_rules() -> List[Rule]:
    """Every registered rule, sorted by id (imports the built-ins)."""
    import repro.lintkit.rules  # noqa: F401  (registers the built-in rules)

    return [rule for _id, rule in sorted(_REGISTRY.items())]


def select_rules(select: Optional[Iterable[str]] = None) -> List[Rule]:
    """The active rule set, optionally narrowed to ``select`` ids."""
    rules = all_rules()
    if select is None:
        return rules
    wanted = set(select)
    unknown = wanted - {rule.id for rule in rules}
    if unknown:
        raise ConfigurationError(
            f"unknown rule id(s): {', '.join(sorted(unknown))}"
        )
    return [rule for rule in rules if rule.id in wanted]
