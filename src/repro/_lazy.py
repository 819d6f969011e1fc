"""Lazy package exports (PEP 562).

A package lists which of its names live in which submodule; the
submodule is imported the first time one of its names is read, so a
process imports only the layers it runs (docs/PERFORMANCE.md,
"Start-up").  ``from package import name`` goes through the same hook.
"""

from __future__ import annotations

from importlib import import_module
from typing import Any, Callable, List, Mapping, MutableMapping, Tuple


def lazy_exports(
    namespace: MutableMapping[str, Any], exports: Mapping[str, str]
) -> Tuple[Callable[[str], Any], Callable[[], List[str]]]:
    """The module ``__getattr__`` and ``__dir__`` of the package whose
    globals are ``namespace``: ``exports`` maps each lazy name to the
    submodule that defines it.  A resolved name is cached in
    ``namespace``, so the hook runs once per name."""
    package = namespace["__name__"]

    def __getattr__(name: str) -> Any:
        try:
            submodule = exports[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        value = getattr(import_module(f".{submodule}", package), name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted({*namespace, *exports})

    return __getattr__, __dir__
