"""Per-module analysis context shared by every rule.

One :class:`ModuleContext` is built per analyzed file: the parsed AST,
the source lines (for snippets and inline suppressions) and an import
table that lets rules resolve a ``Name``/``Attribute`` chain to the
qualified name it refers to (``pc(...)`` -> ``time.perf_counter`` after
``from time import perf_counter as pc``).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional


def module_name_for_path(path: str) -> str:
    """Dotted module name for a source path.

    The name anchors on the last ``src`` component (the project
    layout) or, failing that, the first ``repro`` component, so rules
    can scope themselves to packages (``repro.core``) regardless of
    where the tree is checked out.
    """
    parts = list(Path(path).parts)
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][: -len(".py")]
    if parts and parts[-1] == "__init__":
        parts.pop()
    anchor = 0
    for index, part in enumerate(parts):
        if part == "src":
            anchor = index + 1
    if anchor == 0 and "repro" in parts:
        anchor = parts.index("repro")
    dotted = ".".join(parts[anchor:])
    return dotted or "__main__"


def _base_package(module: str, level: int) -> str:
    """Package a ``from ... import`` with ``level`` dots resolves against."""
    parts = module.split(".")
    # Drop the module's own name, then one more package per extra dot.
    drop = max(level, 1)
    if drop >= len(parts):
        return ""
    return ".".join(parts[: len(parts) - drop])


def build_import_table(tree: ast.AST, module: str) -> Dict[str, str]:
    """Map local names to the qualified names they import."""
    table: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    table[alias.asname] = alias.name
                else:
                    # ``import a.b`` binds ``a``; attribute chains then
                    # resolve ``a.b.c`` naturally from the root.
                    root = alias.name.split(".")[0]
                    table[root] = root
        elif isinstance(node, ast.ImportFrom):
            source = node.module or ""
            if node.level:
                base = _base_package(module, node.level)
                source = f"{base}.{source}" if base and source else (base or source)
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                table[local] = f"{source}.{alias.name}" if source else alias.name
    return table


@dataclass
class ModuleContext:
    """Everything a rule needs to inspect one module."""

    path: str
    module: str
    tree: ast.AST
    lines: List[str] = field(default_factory=list)
    imports: Dict[str, str] = field(default_factory=dict)

    @classmethod
    def from_source(
        cls, source: str, path: str = "<source>", module: Optional[str] = None
    ) -> "ModuleContext":
        name = module if module is not None else module_name_for_path(path)
        tree = ast.parse(source, filename=path)
        return cls(
            path=path,
            module=name,
            tree=tree,
            lines=source.splitlines(),
            imports=build_import_table(tree, name),
        )

    @classmethod
    def from_path(cls, path: str, module: Optional[str] = None) -> "ModuleContext":
        source = Path(path).read_text(encoding="utf-8")
        return cls.from_source(source, path=path, module=module)

    def line(self, lineno: int) -> str:
        """Source text of 1-based ``lineno`` (empty when out of range)."""
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1]
        return ""

    def qualname(self, node: ast.AST) -> Optional[str]:
        """Qualified dotted name a ``Name``/``Attribute`` chain refers to.

        Resolution goes through the import table, so ``np.random.rand``
        comes back as ``numpy.random.rand``.  Bare names that were
        never imported resolve to themselves (builtins like ``set``).
        Chains rooted in anything else (a call result, a subscript)
        resolve to ``None``.
        """
        chain: List[str] = []
        current = node
        while isinstance(current, ast.Attribute):
            chain.append(current.attr)
            current = current.value
        if not isinstance(current, ast.Name):
            return None
        root = self.imports.get(current.id, current.id)
        chain.append(root)
        return ".".join(reversed(chain))
