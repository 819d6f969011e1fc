"""The ``simlint`` project pass: whole-tree parse and the module
symbol table.

Where the original simlint linted one file at a time, the project
pass parses every file **once** up front and derives the cross-file
context the async pass needs: per module, the top-level function /
class / ``async def`` names plus the import map (which local name
binds which symbol of which project module), so a call to a coroutine
imported from a sibling module is still recognised as one.

Import resolution is deliberately path-based and best-effort: a
``from .jobs import f`` resolves to the sibling ``jobs.py``; an
absolute ``from repro.service.jobs import f`` resolves to any project
module whose posix path ends in ``repro/service/jobs.py``.  Anything
unresolved (stdlib, third-party, files outside the linted set) is
simply unknown — the passes stay conservative.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

__all__ = ["ImportedName", "ModuleInfo", "Project"]


@dataclass(frozen=True)
class ImportedName:
    """One ``from X import y [as z]`` binding in a module."""

    local_name: str
    source_module: str  #: dotted module text as written
    level: int  #: relative-import level (0 = absolute)
    original_name: str


@dataclass
class ModuleInfo:
    """Per-module slice of the project symbol table."""

    path: str
    posix_path: str
    source: str
    tree: ast.Module
    #: Top-level ``def`` / ``async def`` nodes by name.
    functions: Dict[str, ast.AST] = field(default_factory=dict)
    #: Top-level class nodes by name.
    classes: Dict[str, ast.ClassDef] = field(default_factory=dict)
    #: Names of every ``async def`` in the file, at any nesting; method
    #: names are recorded both bare and as ``Class.method``.
    async_defs: Set[str] = field(default_factory=set)
    #: ``from X import y`` bindings (for cross-module resolution).
    imports: List[ImportedName] = field(default_factory=list)

    @classmethod
    def from_source(
        cls, path: str, posix_path: str, source: str, tree: ast.Module
    ) -> "ModuleInfo":
        info = cls(path=path, posix_path=posix_path, source=source, tree=tree)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                info.functions[node.name] = node
            elif isinstance(node, ast.ClassDef):
                info.classes[node.name] = node
        for node in ast.walk(tree):
            if isinstance(node, ast.AsyncFunctionDef):
                info.async_defs.add(node.name)
            elif isinstance(node, ast.ImportFrom) and node.module is not None:
                for alias in node.names:
                    info.imports.append(
                        ImportedName(
                            local_name=alias.asname or alias.name,
                            source_module=node.module,
                            level=node.level,
                            original_name=alias.name,
                        )
                    )
        for klass in info.classes.values():
            for stmt in klass.body:
                if isinstance(stmt, ast.AsyncFunctionDef):
                    info.async_defs.add(f"{klass.name}.{stmt.name}")
        return info


class Project:
    """Parsed project tree plus the cross-file symbol table."""

    def __init__(self, modules: Sequence[ModuleInfo]) -> None:
        self.modules: List[ModuleInfo] = list(modules)
        self._by_posix: Dict[str, ModuleInfo] = {
            m.posix_path: m for m in self.modules
        }

    # -- construction --------------------------------------------------

    @classmethod
    def from_sources(
        cls, sources: Sequence[Tuple[str, str, str, ast.Module]]
    ) -> "Project":
        """Build from pre-parsed ``(path, posix_path, source, tree)``."""
        return cls(
            [ModuleInfo.from_source(*entry) for entry in sources]
        )

    def module_for(self, posix_path: str) -> Optional[ModuleInfo]:
        return self._by_posix.get(posix_path)

    # -- import resolution ---------------------------------------------

    def resolve_import(
        self, importer: ModuleInfo, imported: ImportedName
    ) -> Optional[ModuleInfo]:
        """The project module an ``ImportedName`` refers to, if any."""
        if imported.level > 0:
            # Relative import: walk up from the importer's package.
            parts = importer.posix_path.split("/")[:-1]
            if imported.level > 1:
                parts = parts[: len(parts) - (imported.level - 1)]
            parts.extend(imported.source_module.split("."))
            candidate = "/".join(parts) + ".py"
            module = self._by_posix.get(candidate)
            if module is not None:
                return module
            # ``from .pkg import name`` may mean pkg/__init__.py.
            return self._by_posix.get("/".join(parts) + "/__init__.py")
        suffix = imported.source_module.replace(".", "/") + ".py"
        for module in self.modules:
            if module.posix_path.endswith(suffix):
                return module
        return None

    def imported_symbol(
        self, importer: ModuleInfo, local_name: str
    ) -> Optional[Tuple[ModuleInfo, str]]:
        """Resolve a local name bound by ``from X import y`` to its
        defining project module and original name."""
        for imported in importer.imports:
            if imported.local_name != local_name:
                continue
            module = self.resolve_import(importer, imported)
            if module is not None:
                return module, imported.original_name
        return None

    # -- async lookup ---------------------------------------------------

    def is_async_function(
        self, module: ModuleInfo, name: str
    ) -> bool:
        """Is the plain name ``name``, used in ``module``, a known
        ``async def`` (local or imported from a project module)?"""
        node = module.functions.get(name)
        if isinstance(node, ast.AsyncFunctionDef):
            return True
        resolved = self.imported_symbol(module, name)
        if resolved is not None:
            target, original = resolved
            return isinstance(
                target.functions.get(original), ast.AsyncFunctionDef
            )
        return False
