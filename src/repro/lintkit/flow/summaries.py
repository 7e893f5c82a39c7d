"""Per-function label flow: which inputs reach the return value.

The evaluator is a flow-insensitive abstract interpreter over one
function body.  Values are *label sets*; labels name where a value
came from:

* ``param:<name>`` — the function's own parameter;
* ``field:<name>`` — a ``self.<name>`` read (methods, opt-in);
* ``source:<category>`` — a taint source (wall clock, global PRNG).

Propagation is deliberately **generous** — the engine answers "could
this input plausibly reach that expression?", and the rules built on
it (key completeness, determinism taint) treat *absence* of flow as
the defect.  Over-approximating keeps those rules quiet on legitimate
code; the cost is that the engine cannot prove flow *doesn't* happen,
which is documented imprecision (DESIGN.md §14):

* joins are unions: both branches of an ``if`` contribute, every
  assignment accumulates onto the name's previous labels;
* unresolved calls (builtins, stdlib, methods on values) propagate
  every argument — and the callee expression itself — into the result;
* resolved project calls propagate exactly the arguments whose
  parameters reach the callee's return, per its (fixpoint) summary;
* container mutations (``parts.append(x)``) flow into the receiver;
* a ``yield`` counts as a return (generators "return" their stream).

:class:`SummaryIndex` memoizes one :class:`FunctionSummary` per
project function, computed on demand with a recursion guard (cycles
see a partial, empty summary and re-iterate to a fixpoint).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Optional, Sequence, Set

from repro.lintkit.flow.symbols import ClassInfo, FunctionInfo
from repro.lintkit.flow.taint import source_category

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.lintkit.flow import Project

#: In-place container mutations whose arguments flow into the receiver.
_MUTATING_METHODS = frozenset(
    {"append", "appendleft", "add", "extend", "insert", "setdefault", "update"}
)

#: Maximum body passes; two suffice for loop-carried flow, the third
#: only confirms stability on pathological bodies.
_MAX_PASSES = 3

PARAM = "param:"
FIELD = "field:"
SOURCE = "source:"


@dataclass
class FlowResult:
    """Outcome of evaluating one function body."""

    #: Labels reaching any ``return`` (or ``yield``) expression.
    returns: Set[str] = field(default_factory=set)
    #: Final label environment, by local name.
    env: Dict[str, Set[str]] = field(default_factory=dict)

    def reaching(self, names: Sequence[str]) -> Set[str]:
        """Union of labels reaching any of the named locals."""
        out: Set[str] = set()
        for name in names:
            out |= self.env.get(name, set())
        return out


@dataclass
class FunctionSummary:
    """Interprocedural digest of one function."""

    qualname: str
    #: Parameter names whose value reaches the return.
    params_to_return: Set[str] = field(default_factory=set)
    #: Taint categories reaching the return.
    sources_to_return: Set[str] = field(default_factory=set)


def analyze_function(
    project: "Project",
    info: FunctionInfo,
    seed_params: bool = True,
    seed_fields: bool = False,
    track_sources: bool = False,
) -> FlowResult:
    """Evaluate one function body into a :class:`FlowResult`."""
    return _Evaluator(project, info, seed_params, seed_fields, track_sources).run()


class SummaryIndex:
    """Memoized per-function summaries with a recursion guard."""

    def __init__(self, project: "Project") -> None:
        self._project = project
        self._cache: Dict[str, FunctionSummary] = {}
        self._in_progress: Set[str] = set()
        self._recursed: Set[str] = set()

    def summary(self, qualname: str) -> Optional[FunctionSummary]:
        """The summary for a project function, or ``None`` if unknown.

        Recursive cycles see the (empty) partial summary of the
        function being computed; once the outermost computation
        finishes, members of a cycle are recomputed until stable so
        mutual recursion still converges to the generous fixpoint.
        """
        if qualname in self._cache:
            return self._cache[qualname]
        info = self._project.symbols.function(qualname)
        if info is None:
            return None
        if qualname in self._in_progress:
            self._recursed.add(qualname)
            return FunctionSummary(qualname=qualname)
        self._in_progress.add(qualname)
        try:
            summary = self._compute(info)
            self._cache[qualname] = summary
            while qualname in self._recursed:
                self._recursed.discard(qualname)
                again = self._compute(info)
                if (
                    again.params_to_return == summary.params_to_return
                    and again.sources_to_return == summary.sources_to_return
                ):
                    break
                summary = again
                self._cache[qualname] = summary
        finally:
            self._in_progress.discard(qualname)
        return self._cache[qualname]

    def _compute(self, info: FunctionInfo) -> FunctionSummary:
        result = analyze_function(
            self._project, info, seed_params=True, track_sources=True
        )
        return FunctionSummary(
            qualname=info.qualname,
            params_to_return={
                label[len(PARAM):] for label in result.returns if label.startswith(PARAM)
            },
            sources_to_return={
                label[len(SOURCE):]
                for label in result.returns
                if label.startswith(SOURCE)
            },
        )


class _Evaluator:
    """One function body's label propagation (see module docstring)."""

    def __init__(
        self,
        project: "Project",
        info: FunctionInfo,
        seed_params: bool,
        seed_fields: bool,
        track_sources: bool,
    ) -> None:
        self.project = project
        self.info = info
        self.ctx = project.by_module[info.module]
        self.enclosing: Optional[ClassInfo] = project.symbols.class_of(info)
        self.seed_fields = seed_fields
        self.track_sources = track_sources
        self.returns: Set[str] = set()
        self.env: Dict[str, Set[str]] = {}
        if seed_params:
            for name in info.params:
                self.env[name] = {PARAM + name}

    def run(self) -> FlowResult:
        for _ in range(_MAX_PASSES):
            before = sum(len(labels) for labels in self.env.values()) + len(
                self.returns
            )
            self._exec(self.info.node.body)
            after = sum(len(labels) for labels in self.env.values()) + len(
                self.returns
            )
            if after == before:
                break
        return FlowResult(returns=self.returns, env=self.env)

    # -- statements --------------------------------------------------

    def _exec(self, stmts: Sequence[ast.stmt]) -> None:
        for stmt in stmts:
            self._stmt(stmt)

    def _stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.Assign):
            labels = self._eval(stmt.value)
            for target in stmt.targets:
                self._bind(target, labels)
        elif isinstance(stmt, ast.AugAssign):
            self._bind(stmt.target, self._eval(stmt.value))
        elif isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                self._bind(stmt.target, self._eval(stmt.value))
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                self.returns |= self._eval(stmt.value)
        elif isinstance(stmt, ast.If):
            self._eval(stmt.test)
            self._exec(stmt.body)
            self._exec(stmt.orelse)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._bind(stmt.target, self._eval(stmt.iter))
            self._exec(stmt.body)
            self._exec(stmt.orelse)
        elif isinstance(stmt, ast.While):
            self._eval(stmt.test)
            self._exec(stmt.body)
            self._exec(stmt.orelse)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                labels = self._eval(item.context_expr)
                if item.optional_vars is not None:
                    self._bind(item.optional_vars, labels)
            self._exec(stmt.body)
        elif isinstance(stmt, ast.Try):
            self._exec(stmt.body)
            for handler in stmt.handlers:
                self._exec(handler.body)
            self._exec(stmt.orelse)
            self._exec(stmt.finalbody)
        elif isinstance(stmt, ast.Expr):
            self._eval(stmt.value)
            self._container_mutation(stmt.value)
        # Nested defs/classes keep their own flow; imports, raises,
        # asserts and pass contribute nothing.

    def _container_mutation(self, expr: ast.expr) -> None:
        """``parts.append(x)``: argument labels flow into ``parts``."""
        if not isinstance(expr, ast.Call):
            return
        func = expr.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr in _MUTATING_METHODS
            and isinstance(func.value, ast.Name)
        ):
            labels: Set[str] = set()
            for arg in expr.args:
                labels |= self._eval(arg)
            for keyword in expr.keywords:
                labels |= self._eval(keyword.value)
            if labels:
                self.env.setdefault(func.value.id, set()).update(labels)

    def _bind(self, target: ast.expr, labels: Set[str]) -> None:
        if isinstance(target, ast.Name):
            self.env.setdefault(target.id, set()).update(labels)
        elif isinstance(target, ast.Starred):
            self._bind(target.value, labels)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._bind(element, labels)
        elif isinstance(target, (ast.Attribute, ast.Subscript)):
            # Writing through an attribute/element taints the base
            # object — ``record["key"] = spec`` makes record carry spec.
            base = target.value
            if isinstance(base, ast.Name):
                self.env.setdefault(base.id, set()).update(labels)

    # -- expressions -------------------------------------------------

    def _eval_all(self, exprs: Sequence[Optional[ast.expr]]) -> Set[str]:
        labels: Set[str] = set()
        for expr in exprs:
            if expr is not None:
                labels |= self._eval(expr)
        return labels

    def _eval(self, expr: ast.expr) -> Set[str]:
        if isinstance(expr, ast.Name):
            return set(self.env.get(expr.id, ()))
        if isinstance(expr, ast.Constant):
            return set()
        if isinstance(expr, ast.Attribute):
            if (
                self.seed_fields
                and isinstance(expr.value, ast.Name)
                and expr.value.id == "self"
            ):
                return {FIELD + expr.attr}
            return self._eval(expr.value)
        if isinstance(expr, ast.Call):
            return self._call(expr)
        if isinstance(expr, ast.BinOp):
            return self._eval(expr.left) | self._eval(expr.right)
        if isinstance(expr, ast.BoolOp):
            return self._eval_all(expr.values)
        if isinstance(expr, ast.UnaryOp):
            return self._eval(expr.operand)
        if isinstance(expr, ast.Compare):
            return self._eval(expr.left) | self._eval_all(expr.comparators)
        if isinstance(expr, ast.IfExp):
            return self._eval_all([expr.test, expr.body, expr.orelse])
        if isinstance(expr, ast.JoinedStr):
            return self._eval_all(expr.values)
        if isinstance(expr, ast.FormattedValue):
            return self._eval(expr.value) | (
                self._eval(expr.format_spec) if expr.format_spec is not None else set()
            )
        if isinstance(expr, ast.Subscript):
            return self._eval(expr.value) | self._eval(expr.slice)
        if isinstance(expr, ast.Slice):
            return self._eval_all([expr.lower, expr.upper, expr.step])
        if isinstance(expr, (ast.Tuple, ast.List, ast.Set)):
            return self._eval_all(expr.elts)
        if isinstance(expr, ast.Dict):
            return self._eval_all(list(expr.keys) + list(expr.values))
        if isinstance(expr, ast.Starred):
            return self._eval(expr.value)
        if isinstance(expr, ast.Lambda):
            return set()
        if isinstance(expr, (ast.ListComp, ast.SetComp, ast.GeneratorExp)):
            self._comprehension_bindings(expr.generators)
            return self._eval(expr.elt)
        if isinstance(expr, ast.DictComp):
            self._comprehension_bindings(expr.generators)
            return self._eval(expr.key) | self._eval(expr.value)
        if isinstance(expr, ast.NamedExpr):
            labels = self._eval(expr.value)
            self._bind(expr.target, labels)
            return labels
        if isinstance(expr, ast.Await):
            return self._eval(expr.value)
        if isinstance(expr, (ast.Yield, ast.YieldFrom)):
            if expr.value is not None:
                self.returns |= self._eval(expr.value)
            return set()
        # Anything exotic: union over child expressions, generously.
        return self._eval_all(
            [child for child in ast.iter_child_nodes(expr) if isinstance(child, ast.expr)]
        )

    def _comprehension_bindings(self, generators: Sequence[ast.comprehension]) -> None:
        for gen in generators:
            self._bind(gen.target, self._eval(gen.iter))
            for condition in gen.ifs:
                self._eval(condition)

    def _call(self, call: ast.Call) -> Set[str]:
        labels: Set[str] = set()
        dotted = self.ctx.qualname(call.func)
        if self.track_sources:
            category = source_category(dotted, call)
            if category is not None:
                labels.add(SOURCE + category)
        resolved = self.project.symbols.resolve_call(self.ctx, call, self.enclosing)
        summary = (
            self.project.summaries.summary(resolved.qualname)
            if resolved is not None
            else None
        )
        labels |= self._eval(call.func)
        if summary is None:
            # Unresolved (or unknown) callee: every argument could
            # plausibly reach the result.
            for arg in call.args:
                labels |= self._eval(arg)
            for keyword in call.keywords:
                labels |= self._eval(keyword.value)
            return labels
        assert resolved is not None
        flows = summary.params_to_return
        for index, arg in enumerate(call.args):
            if isinstance(arg, ast.Starred):
                labels |= self._eval(arg)
                continue
            name = resolved.params[index] if index < len(resolved.params) else None
            if name is None or name in flows:
                labels |= self._eval(arg)
        for keyword in call.keywords:
            if (
                keyword.arg is None
                or keyword.arg not in resolved.params
                or keyword.arg in flows
            ):
                labels |= self._eval(keyword.value)
        if self.track_sources:
            labels |= {SOURCE + category for category in summary.sources_to_return}
        return labels
