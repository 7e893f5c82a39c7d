"""Flow-sensitive lock discipline for the service layer (REPRO411/412).

The one lock-discipline check; it reads the whole project, because
it needs whole classes and their private-helper call sites.  For each
class in ``repro.service``:

* **locks are found by type or by use** — any attribute assigned a
  ``threading.Lock``/``RLock``/``Condition`` in ``__init__``
  (``JobQueue._condition`` guards state but fails a name heuristic),
  and any ``self.<…lock…>`` entered by a ``with`` statement (a lock
  injected through ``__init__`` has no visible constructor);
* **guarded attributes are inferred** — an attribute written after
  ``__init__`` whose accesses are *mostly* lock-held is presumed
  guarded; for writes (REPRO411) so is one written under a lock
  anywhere after ``__init__``.  Immutable config read both inside and
  outside the lock never qualifies (no post-init write);
* **lock context flows through private helpers** — a method whose
  every in-class call site is lock-held inherits the lock context, to
  a fixpoint, alongside the explicit ``*_locked`` suffix and
  "caller holds the lock" docstring conventions.

An access to a guarded attribute reachable outside the inferred lock
is then flagged: writes as ``REPRO411``, reads as ``REPRO412`` (a
racy read of scheduler state is how the reaper once double-requeued
leases).  ``__init__`` is exempt (no concurrent access yet).
Thread-safe *sub-objects* (queues, stores) are naturally exempt:
calling their methods is a read of the attribute, and such attributes
are rebound at most in ``__init__`` — no post-init write, never
guarded.
"""

from __future__ import annotations

import ast
from collections import Counter
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Set, Tuple

from repro.lintkit.findings import Finding
from repro.lintkit.registry import Rule, register
from repro.lintkit.rules.concurrency import (
    _MUTATING_METHODS,
    _caller_holds_lock,
    _self_attribute,
)
from repro.lintkit.scopes import SERVICE

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.lintkit.context import ModuleContext
    from repro.lintkit.flow import Project
    from repro.lintkit.flow.symbols import ClassInfo

#: Constructors whose instances serialize access to other attributes.
_LOCK_TYPES = frozenset(
    {"threading.Lock", "threading.RLock", "threading.Condition"}
)


@dataclass
class _Access:
    """One ``self.<attr>`` touch inside one method."""

    attr: str
    write: bool
    node: ast.AST
    method: str
    #: Lexically inside a ``with self.<lock>:`` block?
    locked: bool
    #: The lock attribute lexically held, when ``locked``.
    guard: Optional[str] = None


@dataclass
class _SelfCall:
    """One ``self.method(...)`` site, for lock-context inheritance."""

    callee: str
    caller: str
    locked: bool


def _lock_attributes(ctx: "ModuleContext", cls: ast.ClassDef) -> Set[str]:
    """Attributes holding a lock: by ``__init__`` assignment type, or
    entered by a ``with self.<…lock…>:`` anywhere in the class."""
    locks: Set[str] = set()
    for method in cls.body:
        if not isinstance(method, ast.FunctionDef):
            continue
        for node in ast.walk(method):
            if isinstance(node, (ast.With, ast.AsyncWith)):
                for item in node.items:
                    attr = _self_attribute(item.context_expr)
                    if attr is not None and "lock" in attr.lower():
                        locks.add(attr)
            elif (
                method.name == "__init__"
                and isinstance(node, ast.Assign)
                and isinstance(node.value, ast.Call)
                and ctx.qualname(node.value.func) in _LOCK_TYPES
            ):
                for target in node.targets:
                    attr = _self_attribute(target)
                    if attr is not None:
                        locks.add(attr)
    return locks


class _MethodAccessScan:
    """Lexical lock-held classification of one method's accesses."""

    def __init__(
        self,
        method: ast.FunctionDef,
        lock_attrs: Set[str],
        method_names: Set[str],
    ) -> None:
        self.method = method
        self._locks = lock_attrs
        self._methods = method_names
        self.accesses: List[_Access] = []
        self.calls: List[_SelfCall] = []
        self._consumed: Set[int] = set()
        self._statements(method.body, locked=False, guard=None)

    def _statements(
        self, body: List[ast.stmt], locked: bool, guard: Optional[str]
    ) -> None:
        for stmt in body:
            self._node(stmt, locked, guard)

    def _node(self, node: ast.AST, locked: bool, guard: Optional[str]) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            return  # nested scopes have their own discipline
        if isinstance(node, (ast.With, ast.AsyncWith)):
            held = guard
            now_locked = locked
            for item in node.items:
                attr = _self_attribute(item.context_expr)
                if attr is not None and attr in self._locks:
                    now_locked, held = True, attr
                self._node(item.context_expr, locked, guard)
            self._statements(node.body, now_locked, held)
            return
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                self._target(target, locked, guard)
            if node.value is not None:
                self._node(node.value, locked, guard)
            return
        if isinstance(node, ast.Delete):
            for target in node.targets:
                self._target(target, locked, guard)
            return
        if isinstance(node, ast.Call):
            self._call(node, locked, guard)
            return
        if isinstance(node, ast.Attribute):
            self._attribute(node, locked, guard)
            return
        for child in ast.iter_child_nodes(node):
            self._node(child, locked, guard)

    def _target(self, target: ast.expr, locked: bool, guard: Optional[str]) -> None:
        """Assignment/deletion targets: ``self.x``, ``self.x[k]``,
        ``self.x.y`` and tuple unpacking all write through ``x``."""
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._target(element, locked, guard)
            return
        if isinstance(target, ast.Starred):
            self._target(target.value, locked, guard)
            return
        attr_node: Optional[ast.Attribute] = None
        if isinstance(target, ast.Attribute):
            attr_node = target if _self_attribute(target) else None
            if attr_node is None and isinstance(target.value, ast.Attribute):
                attr_node = target.value if _self_attribute(target.value) else None
        elif isinstance(target, ast.Subscript):
            if isinstance(target.value, ast.Attribute) and _self_attribute(
                target.value
            ):
                attr_node = target.value
        if attr_node is not None:
            attr = _self_attribute(attr_node)
            assert attr is not None
            self._record(attr_node, attr, write=True, locked=locked, guard=guard)
            self._consumed.add(id(attr_node))
        # Anything else (locals, subscripts of locals) carries no
        # class state; still scan it for embedded self reads.
        for child in ast.iter_child_nodes(target):
            self._node(child, locked, guard)

    def _call(self, call: ast.Call, locked: bool, guard: Optional[str]) -> None:
        func = call.func
        if isinstance(func, ast.Attribute):
            method_name = _self_attribute(func)
            if method_name is not None and method_name in self._methods:
                # self.helper(...): lock context may flow into the callee.
                self.calls.append(
                    _SelfCall(
                        callee=method_name, caller=self.method.name, locked=locked
                    )
                )
                self._consumed.add(id(func))
            elif func.attr in _MUTATING_METHODS:
                inner = _self_attribute(func.value)
                if inner is not None:
                    # self.attr.append(...): a write to the container.
                    self._record(func.value, inner, write=True, locked=locked, guard=guard)
                    self._consumed.add(id(func.value))
        for child in ast.iter_child_nodes(call):
            self._node(child, locked, guard)

    def _attribute(self, node: ast.Attribute, locked: bool, guard: Optional[str]) -> None:
        if id(node) not in self._consumed:
            attr = _self_attribute(node)
            if attr is not None and attr not in self._methods:
                write = isinstance(node.ctx, (ast.Store, ast.Del))
                self._record(node, attr, write=write, locked=locked, guard=guard)
        for child in ast.iter_child_nodes(node):
            self._node(child, locked, guard)

    def _record(
        self,
        node: ast.AST,
        attr: str,
        write: bool,
        locked: bool,
        guard: Optional[str],
    ) -> None:
        if attr in self._locks:
            return  # the lock itself is not guarded state
        self.accesses.append(
            _Access(
                attr=attr,
                write=write,
                node=node,
                method=self.method.name,
                locked=locked,
                guard=guard,
            )
        )


def _locked_method_fixpoint(
    methods: Dict[str, ast.FunctionDef], scans: List[_MethodAccessScan]
) -> Set[str]:
    """Methods whose whole body runs with the lock held.

    Seeds: the explicit conventions (``*_locked`` suffix, "holds the
    lock" docstring).  Growth: a private method is lock-held if it has
    in-class call sites and *every* one is lock-held — lexically, or
    inside an already lock-held method — iterated to a fixpoint.
    """
    held = {
        name
        for name, node in methods.items()
        if name != "__init__" and _caller_holds_lock(node)
    }
    sites: Dict[str, List[_SelfCall]] = {}
    for scan in scans:
        for call in scan.calls:
            sites.setdefault(call.callee, []).append(call)
    changed = True
    while changed:
        changed = False
        for name in methods:
            if name in held or not name.startswith("_") or name.startswith("__"):
                continue
            calls = sites.get(name)
            if calls and all(c.locked or c.caller in held for c in calls):
                held.add(name)
                changed = True
    return held


class _LockFlowRule(Rule):
    """Shared inference; subclasses pick writes (411) or reads (412)."""

    scopes = SERVICE
    flag_writes = True

    def check_project(self, project: "Project") -> Iterator[Finding]:
        for cls in project.symbols.classes.values():
            if not self.applies_to(cls.module):
                continue
            yield from self._check_class(project, cls)

    def _check_class(self, project: "Project", cls: "ClassInfo") -> Iterator[Finding]:
        ctx = project.by_module[cls.module]
        lock_attrs = _lock_attributes(ctx, cls.node)
        if not lock_attrs:
            return
        methods = {
            stmt.name: stmt
            for stmt in cls.node.body
            if isinstance(stmt, ast.FunctionDef)
        }
        scans = [
            _MethodAccessScan(node, lock_attrs, set(methods))
            for name, node in methods.items()
            if name != "__init__"
        ]
        held_methods = _locked_method_fixpoint(methods, scans)
        accesses = [access for scan in scans for access in scan.accesses]
        for access in accesses:
            if access.method in held_methods and not access.locked:
                access.locked = True  # inherited lock context
        guarded = self._guarded_attributes(accesses, cls.node.name)
        for access in accesses:
            if access.attr not in guarded or access.locked:
                continue
            if access.write != self.flag_writes:
                continue
            guard, evidence = guarded[access.attr]
            verb = "write to" if access.write else "read of"
            yield self.finding(
                ctx,
                access.node,
                f"{verb} `self.{access.attr}` outside `self.{guard}`, which "
                f"is inferred to guard it ({evidence}); take the lock or "
                "document the caller-holds-the-lock convention",
            )

    def _guarded_attributes(
        self, accesses: List[_Access], class_name: str
    ) -> Dict[str, Tuple[str, str]]:
        """attr -> (guarding lock, the evidence for it).

        Guarded means: written at least once after ``__init__`` *and*
        either lock-held accesses strictly outnumber unlocked ones, or
        — when writes are flagged — some write holds a lock.
        """
        by_attr: Dict[str, List[_Access]] = {}
        for access in accesses:
            by_attr.setdefault(access.attr, []).append(access)
        guarded: Dict[str, Tuple[str, str]] = {}
        for attr, touches in by_attr.items():
            if not any(t.write for t in touches):
                continue
            locked = [t for t in touches if t.locked]
            locked_writes = [t for t in locked if t.write]
            if len(locked) > len(touches) - len(locked):
                evidence = (
                    f"{len(locked)}/{len(touches)} accesses in `{class_name}` "
                    "are lock-held"
                )
            elif self.flag_writes and locked_writes:
                evidence = f"`{class_name}.{locked_writes[0].method}` writes it locked"
            else:
                continue
            guards = Counter(t.guard for t in locked if t.guard is not None)
            guard = guards.most_common(1)[0][0] if guards else "_lock"
            guarded[attr] = (guard, evidence)
        return guarded


@register
class UnlockedWriteRule(_LockFlowRule):
    id = "REPRO411"
    title = "no writes to lock-guarded service state outside the inferred lock"
    flag_writes = True


@register
class UnlockedReadRule(_LockFlowRule):
    id = "REPRO412"
    title = (
        "no reads of lock-guarded service state outside the inferred lock — "
        "racy reads double-dispatch and double-requeue"
    )
    flag_writes = False
