"""``repro.lintkit.flow`` — project-wide dataflow analysis.

Most rules (REPRO1xx-5xx) look at one module at a time; the flow
engine builds three layers on top of the same
:class:`~repro.lintkit.context.ModuleContext` objects, for the rules
that follow definitions across files:

* a **symbol table** (:mod:`repro.lintkit.flow.symbols`) — every
  top-level function, class and method, addressable by project
  qualname (``repro.pipeline.keys.cache_key``,
  ``repro.service.jobs.JobSpec.result_key``);
* a **call graph** (:mod:`repro.lintkit.flow.callgraph`) — resolved
  call sites, queryable by caller;
* per-function **flow summaries**
  (:mod:`repro.lintkit.flow.summaries`) — which parameters reach the
  return value, and which taint sources (wall clock, PRNGs) do,
  propagated through helper calls to a fixpoint.

:mod:`repro.lintkit.flow.taint` defines the taint-source vocabulary
REPRO111 checks, directly and through the summaries.

Everything hangs off a :class:`Project`: one parse of the tree,
lazily-built layers, and a process-wide cache keyed on file stats so
repeated runs (the CLI, the meta-tests) never re-parse an unchanged
tree.  The known imprecision of the engine — flow-insensitive joins,
generous propagation through unresolved calls, no alias tracking — is
documented in DESIGN.md §14 along with what it means for each rule
family built on top.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.lintkit.context import ModuleContext
from repro.lintkit.flow.callgraph import CallGraph, CallSite
from repro.lintkit.flow.summaries import FunctionSummary, SummaryIndex
from repro.lintkit.flow.symbols import ClassInfo, FunctionInfo, SymbolTable


class Project:
    """One parsed project: contexts plus the lazily-built flow layers."""

    def __init__(self, contexts: Iterable[ModuleContext]) -> None:
        self.contexts: List[ModuleContext] = list(contexts)
        #: module name -> context (last one wins on duplicates).
        self.by_module: Dict[str, ModuleContext] = {
            ctx.module: ctx for ctx in self.contexts
        }
        self._symbols: Optional[SymbolTable] = None
        self._callgraph: Optional[CallGraph] = None
        self._summaries: Optional[SummaryIndex] = None

    @property
    def symbols(self) -> SymbolTable:
        if self._symbols is None:
            self._symbols = SymbolTable.build(self.contexts)
        return self._symbols

    @property
    def callgraph(self) -> CallGraph:
        if self._callgraph is None:
            self._callgraph = CallGraph.build(self)
        return self._callgraph

    @property
    def summaries(self) -> SummaryIndex:
        if self._summaries is None:
            self._summaries = SummaryIndex(self)
        return self._summaries


#: Process-wide parse cache: file-stat signature -> Project.
_CACHE: Dict[Tuple[Tuple[str, int, int], ...], Project] = {}
#: Bounded so pathological fixture churn cannot grow without limit.
_CACHE_LIMIT = 8


def _signature(files: Sequence[Union[str, Path]]) -> Tuple[Tuple[str, int, int], ...]:
    out = []
    for raw in files:
        path = str(raw)
        stat = os.stat(path)
        out.append((path, stat.st_mtime_ns, stat.st_size))
    return tuple(sorted(out))


def project_for(files: Sequence[Union[str, Path]]) -> Project:
    """The (cached) :class:`Project` over ``files``.

    The cache key is every file's ``(path, mtime, size)``: an edit, an
    added file or a removed file all miss, so a stale analysis can
    never be served.  Within one process, repeated runs over an
    unchanged tree — the common case for the CLI and the test suite —
    parse and summarize exactly once.
    """
    key = _signature(files)
    project = _CACHE.get(key)
    if project is None:
        if len(_CACHE) >= _CACHE_LIMIT:
            _CACHE.clear()
        project = Project(ModuleContext.from_path(str(path)) for path in files)
        _CACHE[key] = project
    return project


__all__ = [
    "CallGraph",
    "CallSite",
    "ClassInfo",
    "FunctionInfo",
    "FunctionSummary",
    "Project",
    "SummaryIndex",
    "SymbolTable",
    "project_for",
]
