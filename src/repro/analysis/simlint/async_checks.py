"""Async / fork-safety pass for the experiment service.

The service stack (PR 7) mixes three execution domains that each
punish a different mistake:

* the **asyncio event loop** — a blocking call anywhere in a
  coroutine stalls heartbeat supervision for *every* in-flight job;
* **forked seed workers** — locks / loops created at import time are
  inherited through ``fork`` and are poison in the child;
* **module-level state** — mutations go to a per-process
  copy-on-write page, so "shared" module globals silently diverge
  across workers.

Rules: ``async-blocking-call`` and ``unawaited-coroutine`` fire in
any file (they are only reachable in async code);
``fork-unsafe-module-state`` and ``mutable-module-state`` are scoped
to the service tree.  The un-awaited check resolves callees through
the project symbol table: local ``async def``, ``from X import y``
where ``y`` is async in project module ``X``, ``self.method`` where
the method is async on the enclosing class, and ``asyncio.sleep``.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Set, Tuple

from .checkers import Violation
from .rules import rule_applies

__all__ = ["check_async"]

#: ``module.attr`` calls that block the event loop.
_BLOCKING_ATTR_CALLS: Dict[str, frozenset] = {
    "time": frozenset({"sleep"}),
    "subprocess": frozenset(
        {"run", "call", "check_call", "check_output", "Popen"}
    ),
    "os": frozenset({"system", "popen", "waitpid"}),
    "socket": frozenset({"socket", "create_connection"}),
}

#: Bare-name calls that block (``from time import sleep``; builtin
#: ``open`` — file IO has no async fast path in CPython).
_BLOCKING_NAME_CALLS = frozenset({"sleep", "open"})

#: ``asyncio``/``threading`` constructions that must not happen at
#: import time in service modules (pre-fork, inherited by children).
_FORK_UNSAFE_ATTR_CALLS: Dict[str, frozenset] = {
    "asyncio": frozenset(
        {
            "Lock",
            "Event",
            "Condition",
            "Semaphore",
            "BoundedSemaphore",
            "Queue",
            "get_event_loop",
            "new_event_loop",
        }
    ),
    "threading": frozenset(
        {"Lock", "RLock", "Event", "Condition", "Semaphore", "BoundedSemaphore"}
    ),
    "multiprocessing": frozenset({"Lock", "RLock", "Event", "Queue"}),
}

#: Methods that mutate a list/set/dict in place.
_MUTATING_METHODS = frozenset(
    {
        "append",
        "extend",
        "insert",
        "add",
        "update",
        "setdefault",
        "pop",
        "popitem",
        "remove",
        "discard",
        "clear",
        "appendleft",
        "extendleft",
    }
)

#: Stdlib coroutine functions (called bare -> never runs).
_STDLIB_COROUTINES = frozenset({"sleep", "wait_for", "gather", "wait"})


def _call_base_attr(node: ast.Call) -> Optional[Tuple[str, str]]:
    """``module.attr(...)`` -> ``(module_name, attr)``."""
    func = node.func
    if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
        return func.value.id, func.attr
    return None


def _is_mutable_literal(node: ast.AST) -> bool:
    if isinstance(
        node, (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)
    ):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in (
            "dict",
            "list",
            "set",
            "defaultdict",
            "Counter",
            "OrderedDict",
            "deque",
        )
    return False


class _AsyncChecker:
    def __init__(self, module, project) -> None:
        self.module = module
        self.project = project
        self.violations: List[Violation] = []
        #: Names bound by ``from time import sleep``-style imports that
        #: are blocking.
        self.blocking_names: Set[str] = set()
        for imported in module.imports:
            root = imported.source_module.split(".")[0]
            blockers = _BLOCKING_ATTR_CALLS.get(root)
            if blockers and imported.original_name in blockers:
                self.blocking_names.add(imported.local_name)

    def _report(self, rule: str, node: ast.AST, message: str) -> None:
        if not rule_applies(rule, self.module.posix_path):
            return
        self.violations.append(
            Violation(
                path=self.module.path,
                line=getattr(node, "lineno", 1),
                col=getattr(node, "col_offset", 0),
                rule=rule,
                message=message,
            )
        )

    # -- blocking calls inside coroutines ------------------------------

    def _blocking_reason(self, node: ast.Call) -> Optional[str]:
        base_attr = _call_base_attr(node)
        if base_attr is not None:
            base, attr = base_attr
            if attr in _BLOCKING_ATTR_CALLS.get(base, frozenset()):
                return f"{base}.{attr}"
        if isinstance(node.func, ast.Name):
            name = node.func.id
            if name == "open" or (
                name in _BLOCKING_NAME_CALLS
                and name in self.blocking_names
            ):
                return name
        return None

    def _walk_coroutine_body(self, func: ast.AsyncFunctionDef) -> None:
        """Visit the coroutine's own statements, not nested ``def``s
        (a sync helper defined inside is executed elsewhere)."""
        stack: List[ast.AST] = list(func.body)
        while stack:
            node = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if isinstance(node, ast.Call):
                reason = self._blocking_reason(node)
                if reason is not None:
                    self._report(
                        "async-blocking-call",
                        node,
                        f"blocking call '{reason}' inside 'async def "
                        f"{func.name}' stalls the event loop — use "
                        "the async equivalent or asyncio.to_thread",
                    )
            stack.extend(ast.iter_child_nodes(node))

    # -- un-awaited coroutines -----------------------------------------

    def _is_known_coroutine(
        self, call: ast.Call, enclosing_class: Optional[ast.ClassDef]
    ) -> Optional[str]:
        func = call.func
        if isinstance(func, ast.Name):
            if self.project.is_async_function(self.module, func.id):
                return func.id
            return None
        if isinstance(func, ast.Attribute) and isinstance(
            func.value, ast.Name
        ):
            base = func.value.id
            if base == "asyncio" and func.attr in _STDLIB_COROUTINES:
                return f"asyncio.{func.attr}"
            if (
                base == "self"
                and enclosing_class is not None
                and f"{enclosing_class.name}.{func.attr}"
                in self.module.async_defs
            ):
                return f"self.{func.attr}"
        return None

    def _check_unawaited(
        self,
        func: ast.AST,
        enclosing_class: Optional[ast.ClassDef],
    ) -> None:
        for node in ast.walk(func):
            if not isinstance(node, ast.Expr) or not isinstance(
                node.value, ast.Call
            ):
                continue
            name = self._is_known_coroutine(node.value, enclosing_class)
            if name is not None:
                self._report(
                    "unawaited-coroutine",
                    node,
                    f"coroutine '{name}(...)' is never awaited — the "
                    "body never runs; await it or wrap it in "
                    "asyncio.create_task",
                )

    # -- module-level fork hazards -------------------------------------

    def _check_module_level(self) -> None:
        tree = self.module.tree
        mutable_globals: Dict[str, ast.Assign] = {}
        for stmt in tree.body:
            values: List[Tuple[ast.AST, ast.AST]] = []
            if isinstance(stmt, ast.Assign):
                values = [(t, stmt.value) for t in stmt.targets]
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                values = [(stmt.target, stmt.value)]
            for target, value in values:
                if not isinstance(target, ast.Name):
                    continue
                if isinstance(value, ast.Call):
                    base_attr = _call_base_attr(value)
                    if base_attr is not None:
                        base, attr = base_attr
                        if attr in _FORK_UNSAFE_ATTR_CALLS.get(
                            base, frozenset()
                        ):
                            self._report(
                                "fork-unsafe-module-state",
                                stmt,
                                f"'{base}.{attr}()' created at import "
                                "time — it is inherited by forked seed "
                                "workers, where a held lock deadlocks "
                                "and an event loop is unusable; create "
                                "it per-process after the fork",
                            )
                            continue
                if (
                    _is_mutable_literal(value)
                    and target.id != "__all__"
                ):
                    mutable_globals[target.id] = stmt
        if not mutable_globals:
            return
        reported: Set[str] = set()
        for node in ast.walk(tree):
            if not isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                continue
            for name, line in self._mutations_of(node, mutable_globals):
                if name in reported:
                    continue
                reported.add(name)
                self._report(
                    "mutable-module-state",
                    mutable_globals[name],
                    f"module-level '{name}' is mutated by "
                    f"'{node.name}' (line {line}) — forked workers "
                    "each get a diverging copy-on-write copy; hang "
                    "state off the service object instead",
                )

    @staticmethod
    def _mutations_of(
        func: ast.AST, candidates: Dict[str, ast.Assign]
    ) -> List[Tuple[str, int]]:
        #: Names rebound locally shadow the global of the same name.
        shadowed: Set[str] = set()
        args = getattr(func, "args", None)
        if args is not None:
            shadowed.update(
                arg.arg
                for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]
            )
        globals_decl: Set[str] = set()
        hits: List[Tuple[str, int]] = []
        for node in ast.walk(func):
            if isinstance(node, ast.Global):
                globals_decl.update(node.names)
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        shadowed.add(target.id)
                    elif isinstance(target, ast.Subscript) and isinstance(
                        target.value, ast.Name
                    ):
                        name = target.value.id
                        if name in candidates:
                            hits.append((name, node.lineno))
            elif isinstance(node, ast.Delete):
                for target in node.targets:
                    if isinstance(target, ast.Subscript) and isinstance(
                        target.value, ast.Name
                    ):
                        name = target.value.id
                        if name in candidates:
                            hits.append((name, node.lineno))
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _MUTATING_METHODS
                and isinstance(node.func.value, ast.Name)
            ):
                name = node.func.value.id
                if name in candidates:
                    hits.append((name, node.lineno))
        return [
            (name, line)
            for name, line in hits
            if name in globals_decl or name not in shadowed
        ]

    # -- driver ---------------------------------------------------------

    def run(self) -> List[Violation]:
        self._check_module_level()
        for node in self.module.tree.body:
            if isinstance(node, ast.AsyncFunctionDef):
                self._walk_coroutine_body(node)
                self._check_unawaited(node, None)
            elif isinstance(node, ast.FunctionDef):
                self._check_unawaited(node, None)
            elif isinstance(node, ast.ClassDef):
                for stmt in node.body:
                    if isinstance(stmt, ast.AsyncFunctionDef):
                        self._walk_coroutine_body(stmt)
                        self._check_unawaited(stmt, node)
                    elif isinstance(stmt, ast.FunctionDef):
                        self._check_unawaited(stmt, node)
        return self.violations


def check_async(module, project) -> List[Violation]:
    """Run the async / fork-safety pass over one module."""
    return _AsyncChecker(module, project).run()
