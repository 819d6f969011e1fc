"""Numpy hot-path pass for the vectorized batch engine.

The vector engine's contract (PR 6) is *bit-identity with the scalar
engines at vector speed*.  Both halves of that contract have static
failure modes this pass catches in ``engine/``-scoped files:

* speed — ``numpy-object-dtype`` (per-element Python dispatch),
  ``numpy-python-loop`` (interpreter iteration inside a registered
  hot-path class), ``numpy-append-loop`` (quadratic reallocation);
* bit-identity — ``numpy-dtype-mixing``: the energy-replay paths are
  defined as a **float64 left fold** (``np.add.accumulate``) matching
  the scalar engine add-for-add, so a float32 operand anywhere on an
  accumulate path, or float32/float64 arithmetic mixing, changes
  results in the last ulp and breaks the cross-engine fingerprint.

Array and dtype facts are tracked per file: a name (or ``self.attr``)
assigned from a numpy constructor is an *array binding*, and its
``dtype=`` keyword / ``astype`` argument classifies it float32 or
float64.  Unknown dtypes are never flagged.
"""

from __future__ import annotations

import ast
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from .checkers import Violation
from .rules import registered_hot_path, rule_applies

__all__ = ["check_numpy"]

#: numpy constructors whose result is an ndarray.
_ARRAY_CTORS = frozenset(
    {
        "zeros",
        "ones",
        "empty",
        "full",
        "array",
        "asarray",
        "arange",
        "linspace",
        "zeros_like",
        "ones_like",
        "empty_like",
        "full_like",
        "frombuffer",
        "fromiter",
        "where",
        "concatenate",
        "stack",
        "hstack",
        "vstack",
        "copy",
    }
)

#: Calls that reallocate-and-copy; quadratic when looped.
_APPEND_CALLS = frozenset(
    {"append", "concatenate", "hstack", "vstack", "stack", "insert", "delete"}
)

#: Left folds on the energy-replay path that must run in float64.
_ACCUMULATE_CALLS = frozenset({"accumulate", "reduce"})

Key = Tuple[str, ...]


def _key(node: ast.AST) -> Optional[Key]:
    if isinstance(node, ast.Name):
        return ("name", node.id)
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
        return ("attr", node.value.id, node.attr)
    return None


def _dtype_category(node: Optional[ast.AST]) -> Optional[str]:
    """``"f32"`` / ``"f64"`` for a dtype expression, else ``None``."""
    if node is None:
        return None
    if isinstance(node, ast.Attribute):
        if node.attr in ("float32", "single"):
            return "f32"
        if node.attr in ("float64", "double", "float_"):
            return "f64"
        return None
    if isinstance(node, ast.Name):
        if node.id == "float":
            return "f64"
        return None
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        if node.value in ("float32", "f4", "<f4", "single"):
            return "f32"
        if node.value in ("float64", "f8", "<f8", "double", "float"):
            return "f64"
    return None


def _is_object_dtype(node: Optional[ast.AST]) -> bool:
    if node is None:
        return False
    if isinstance(node, ast.Name) and node.id == "object":
        return True
    if isinstance(node, ast.Attribute) and node.attr in (
        "object_",
        "object",
    ):
        return True
    if isinstance(node, ast.Constant) and node.value in ("object", "O"):
        return True
    return False


class _NumpyChecker(ast.NodeVisitor):
    def __init__(
        self,
        path: str,
        posix_path: str,
        tree: ast.Module,
        hot_path_lines: FrozenSet[int],
    ) -> None:
        self.path = path
        self.posix_path = posix_path
        self.tree = tree
        self.hot_path_lines = hot_path_lines
        self.violations: List[Violation] = []
        self.np_aliases: Set[str] = set()
        #: References known to be numpy arrays.
        self.arrays: Set[Key] = set()
        #: Array reference -> "f32" / "f64" when statically known.
        self.dtypes: Dict[Key, str] = {}
        self._loop_depth = 0
        self._hot_class_depth = 0

    # -- helpers --------------------------------------------------------

    def _report(self, rule: str, node: ast.AST, message: str) -> None:
        if not rule_applies(rule, self.posix_path):
            return
        self.violations.append(
            Violation(
                path=self.path,
                line=getattr(node, "lineno", 1),
                col=getattr(node, "col_offset", 0),
                rule=rule,
                message=message,
            )
        )

    def _is_np(self, node: ast.AST) -> bool:
        return isinstance(node, ast.Name) and node.id in self.np_aliases

    def _array_call_dtype(
        self, node: ast.AST
    ) -> Tuple[bool, Optional[str]]:
        """``(is_array_expr, dtype_category)`` for an expression."""
        if isinstance(node, ast.Call):
            func = node.func
            # np.<ctor>(...) and arr.astype(...)
            if isinstance(func, ast.Attribute):
                if self._is_np(func.value) and func.attr in _ARRAY_CTORS:
                    dtype = None
                    for kw in node.keywords:
                        if kw.arg == "dtype":
                            dtype = _dtype_category(kw.value)
                    # np.zeros(n, np.float64) positional dtype.
                    if dtype is None and len(node.args) >= 2:
                        dtype = _dtype_category(node.args[1])
                    return True, dtype
                if func.attr == "astype":
                    arg = node.args[0] if node.args else None
                    return True, _dtype_category(arg)
        key = _key(node)
        if key is not None and key in self.arrays:
            return True, self.dtypes.get(key)
        return False, None

    # -- binding collection (first pass) --------------------------------

    def _collect_bindings(self) -> None:
        for _ in range(2):  # one re-pass: __init__ attrs used earlier
            for node in ast.walk(self.tree):
                value: Optional[ast.AST] = None
                targets: Tuple[ast.AST, ...] = ()
                if isinstance(node, ast.Assign):
                    value, targets = node.value, tuple(node.targets)
                elif (
                    isinstance(node, ast.AnnAssign)
                    and node.value is not None
                ):
                    value, targets = node.value, (node.target,)
                if value is None:
                    continue
                is_array, dtype = self._array_call_dtype(value)
                if not is_array:
                    continue
                for target in targets:
                    key = _key(target)
                    if key is None:
                        continue
                    self.arrays.add(key)
                    if dtype is not None:
                        self.dtypes[key] = dtype

    # -- visitors --------------------------------------------------------

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            if alias.name.split(".")[0] == "numpy":
                self.np_aliases.add(alias.asname or "numpy")
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        # dtype=object anywhere (constructors or astype).
        for kw in node.keywords:
            if kw.arg == "dtype" and _is_object_dtype(kw.value):
                self._report(
                    "numpy-object-dtype",
                    node,
                    "object-dtype array — every element is a Python "
                    "pointer, so all vector ops fall back to "
                    "per-element dispatch",
                )
        if (
            isinstance(func, ast.Attribute)
            and func.attr == "astype"
            and node.args
            and _is_object_dtype(node.args[0])
        ):
            self._report(
                "numpy-object-dtype",
                node,
                "astype(object) — converts a packed array into a "
                "Python pointer table",
            )
        if isinstance(func, ast.Attribute):
            # np.append(...) / np.concatenate(...) inside a loop.
            if (
                self._is_np(func.value)
                and func.attr in _APPEND_CALLS
                and self._loop_depth > 0
            ):
                self._report(
                    "numpy-append-loop",
                    node,
                    f"np.{func.attr} inside a loop reallocates and "
                    "copies the whole array every iteration — "
                    "preallocate the slab and fill by slice",
                )
            # np.add.accumulate(x) / np.add.reduce(x) over float32.
            if (
                func.attr in _ACCUMULATE_CALLS
                and isinstance(func.value, ast.Attribute)
                and self._is_np(func.value.value)
                and node.args
            ):
                _, dtype = self._array_call_dtype(node.args[0])
                if dtype == "f32":
                    self._report(
                        "numpy-dtype-mixing",
                        node,
                        "accumulate over a float32 array — the "
                        "energy-replay contract is a float64 left "
                        "fold matching the scalar engine "
                        "add-for-add",
                    )
            if (
                func.attr == "cumsum"
                and self._is_np(func.value)
                and node.args
            ):
                _, dtype = self._array_call_dtype(node.args[0])
                if dtype == "f32":
                    self._report(
                        "numpy-dtype-mixing",
                        node,
                        "cumsum over a float32 array — accumulation "
                        "paths must run in float64 for bit-identity",
                    )
        self.generic_visit(node)

    def visit_BinOp(self, node: ast.BinOp) -> None:
        dtypes = set()
        for operand in (node.left, node.right):
            _, dtype = self._array_call_dtype(operand)
            if dtype is not None:
                dtypes.add(dtype)
        if dtypes == {"f32", "f64"}:
            self._report(
                "numpy-dtype-mixing",
                node,
                "float32/float64 arithmetic mixing — the implicit "
                "upcast changes results in the last ulp and breaks "
                "the cross-engine fingerprint",
            )
        self.generic_visit(node)

    # -- loops / classes -------------------------------------------------

    def _is_hot_class(self, node: ast.ClassDef) -> bool:
        if node.name in registered_hot_path(self.posix_path):
            return True
        lines = {node.lineno}
        lines.update(dec.lineno for dec in node.decorator_list)
        return bool(lines & self.hot_path_lines)

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        hot = self._is_hot_class(node)
        self._hot_class_depth += 1 if hot else 0
        self.generic_visit(node)
        self._hot_class_depth -= 1 if hot else 0

    def _loop_iter_is_array(self, iter_expr: ast.AST) -> bool:
        key = _key(iter_expr)
        if key is not None and key in self.arrays:
            return True
        is_array, _ = self._array_call_dtype(iter_expr)
        # Direct numpy-call iterables (np.nditer, np.where(...)[0], ...)
        if is_array and isinstance(iter_expr, ast.Call):
            return True
        return False

    def visit_For(self, node: ast.For) -> None:
        if self._hot_class_depth > 0 and self._loop_iter_is_array(
            node.iter
        ):
            self._report(
                "numpy-python-loop",
                node,
                "Python-level for over a numpy array in a hot-path "
                "class — per-element interpreter iteration on the "
                "whole-mesh pass; restructure as an array operation",
            )
        self._loop_depth += 1
        self.generic_visit(node)
        self._loop_depth -= 1

    def visit_AsyncFor(self, node: ast.AsyncFor) -> None:
        self._loop_depth += 1
        self.generic_visit(node)
        self._loop_depth -= 1

    def visit_While(self, node: ast.While) -> None:
        self._loop_depth += 1
        self.generic_visit(node)
        self._loop_depth -= 1

    def run(self) -> List[Violation]:
        # Aliases first: binding collection needs to recognise np.*
        # constructors before the visitor pass reaches the imports.
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".")[0] == "numpy":
                        self.np_aliases.add(alias.asname or "numpy")
        self._collect_bindings()
        self.visit(self.tree)
        return self.violations


def check_numpy(
    path: str,
    posix_path: str,
    tree: ast.Module,
    hot_path_lines: FrozenSet[int],
) -> List[Violation]:
    """Run the numpy hot-path pass over one parsed file."""
    return _NumpyChecker(path, posix_path, tree, hot_path_lines).run()
