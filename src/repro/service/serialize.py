"""Exact dict codecs for harness samples and results.

The store persists two shapes of payload:

* per-seed **samples** (:class:`~repro.harness.experiment.
  ClosedLoopSample` and friends) — the crash-recovery checkpoints;
* aggregated **results** (:class:`~repro.harness.experiment.
  ClosedLoopResult` and friends) — the cached experiment outputs.

Both round-trip *exactly* through JSON: every field is an int, str,
bool, None, float (JSON uses shortest round-trip ``repr``, which is
exact for IEEE-754 doubles), or a container of those.  :func:`encode`
flattens a dataclass with :func:`~repro.service.canonical.canonicalize`
(nested dataclasses field by field, enums by value, tuples as arrays);
:func:`decode` is its inverse, driven by the dataclass field types from
one per-class plan, and restores the precise dataclass
— including tuple-vs-list shapes — so ``result_from_dict(result_to_dict(r))
== r`` field-for-field and a result recovered from the store is
bit-identical to a fresh one (test-pinned in
``tests/test_service_store.py``).  Which dataclasses a ``"kind"``
discriminator names comes from :data:`repro.harness.experiment.KINDS`.

:func:`result_to_dict` is the one JSON shape of a result: the store,
``repro result`` and the ``run`` / ``compare`` / ``faults`` ``--json``
outputs all emit it (the CLI adds ``config_hash`` / ``version`` next to
it).
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import typing
from typing import Any, Callable, Dict, Iterable, Mapping, Optional

from ..harness.experiment import KIND, KINDS
from .canonical import canonicalize

__all__ = [
    "decode",
    "encode",
    "result_to_dict",
    "result_from_dict",
    "sample_to_dict",
    "sample_from_dict",
]


def _decoder(hint: Any) -> Optional[Callable[[Any], Any]]:
    """JSON value -> field value for one field type, or ``None`` when
    the JSON value *is* the field value (numbers, strings, dicts)."""
    if isinstance(hint, type) and issubclass(hint, enum.Enum):
        return hint
    if dataclasses.is_dataclass(hint):
        return functools.partial(decode, hint)
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is typing.Union and type(None) in args and len(args) == 2:
        inner = _decoder(args[0] if args[1] is type(None) else args[1])
        if inner is None:
            return None
        return lambda value: None if value is None else inner(value)
    if origin is tuple:
        # ``Tuple[X, ...]`` decodes its items; a fixed-shape tuple such
        # as a ``(name, value)`` pair holds plain values.
        item = _decoder(args[0]) if args[1:] == (Ellipsis,) else None
        if item is None:
            return tuple
        return lambda value: tuple(item(entry) for entry in value)
    return None


@functools.lru_cache(maxsize=None)
def _decoders(cls: type) -> Dict[str, Optional[Callable[[Any], Any]]]:
    """Every field of the dataclass ``cls`` -> its decoder."""
    hints = typing.get_type_hints(cls)
    return {
        f.name: _decoder(hints[f.name]) for f in dataclasses.fields(cls)
    }


def encode(obj: Any, only: Optional[Iterable[str]] = None) -> dict:
    """The dataclass ``obj`` (its ``only`` fields) as a JSON-ready dict:
    the fields :func:`decode` must rebuild are canonicalized, the rest —
    observability payloads included — pass through untouched."""
    decoders = _decoders(type(obj))
    return {
        name: getattr(obj, name)
        if decoders[name] is None
        else canonicalize(getattr(obj, name))
        for name in (decoders if only is None else only)
    }


def decode(cls: type, data: Mapping[str, Any]) -> Any:
    """The exact ``cls`` instance that :func:`encode` flattened into
    ``data``.  Absent fields take the dataclass default; unknown ones
    are an error (the data comes from disk or from a client)."""
    decoders = _decoders(cls)
    unknown = set(data) - set(decoders)
    if unknown:
        raise ValueError(
            f"unknown {cls.__name__} fields: {sorted(unknown)}"
        )
    return cls(
        **{
            name: value if decoders[name] is None else decoders[name](value)
            for name, value in data.items()
        }
    )


#: Sample / result class -> the ``"kind"`` discriminator stored with it.
_KIND_OF = {
    cls: name
    for name, entry in KINDS.items()
    for cls in (entry.sample, entry.result)
}
# Planned at import so an unresolvable field type fails here, not at a
# worker's first checkpoint.
for _cls in _KIND_OF:
    _decoders(_cls)


def _tagged(obj: Any) -> dict:
    out = encode(obj)
    out["kind"] = _KIND_OF[type(obj)]
    return out


def sample_to_dict(sample: Any) -> dict:
    """A JSON-ready dict for any kind's per-seed sample."""
    return _tagged(sample)


def sample_from_dict(data: Mapping[str, Any]) -> Any:
    """The exact sample dataclass encoded by :func:`sample_to_dict`."""
    payload = dict(data)
    entry = KINDS[KIND.check("kind", payload.pop("kind"))]
    return decode(entry.sample, payload)


def result_to_dict(result: Any) -> dict:
    """A JSON-ready dict for any kind's result."""
    return _tagged(result)


def result_from_dict(data: Mapping[str, Any]) -> Any:
    """The exact result dataclass encoded by :func:`result_to_dict`."""
    payload = dict(data)
    entry = KINDS[KIND.check("kind", payload.pop("kind"))]
    return decode(entry.result, payload)
