"""Legal domains of configuration fields, declared once per field.

A dataclass field states what it admits in its metadata
(``width: int = Integer(2).field(3)``) and ``__post_init__`` calls
:func:`validate`, which checks every declared field, normalises
integers through ``operator.index``, and raises ``ValueError`` naming
the field and the value.  Only rules relating two fields stay
hand-written.  The CLI types a flag from the same object
(:meth:`Domain.parse`) and :func:`domain_of` reads it back, so neither
can drift from what construction accepts.  Stdlib only.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import numbers
import operator
from enum import Enum
from typing import Any, Iterable

#: The field-metadata key a :class:`Domain` is stored under.
KEY = "domain"


def _reject(name: str, problem: str) -> ValueError:
    return ValueError(f"{name} {problem}" if name else problem)


class Domain:
    """What one field admits.  ``check(name, value)`` returns the value
    (an integer as an ``int``) or raises ``ValueError`` naming ``name``;
    :meth:`parse` does the same for command-line text, unnamed."""

    #: How command-line text becomes a value.
    convert: Any = str

    def parse(self, text: str) -> Any:
        try:
            text = self.convert(text)
        except ValueError:
            pass  # rejected as the text itself
        return self.check("", text)

    def field(self, default: Any = dataclasses.MISSING, checked: bool = True):
        """A ``dataclasses.field`` carrying this domain.  With
        ``checked=False`` :func:`validate` skips it: its domain applies
        only when another field says so, which ``__post_init__`` checks."""
        return dataclasses.field(
            default=default, metadata={KEY: self, "checked": checked}
        )


class Integer(Domain):
    """An integer of at least ``least`` (unbounded when ``None``):
    what ``operator.index`` takes except ``bool`` — a count is never a
    flag, and ``1.5`` or ``"4"`` is never a count.  The bound reads
    ``> 0`` for a positive count, else ``>= least``; a ``rule`` with a
    subject of its own replaces it and names the field with the value.
    ``optional`` admits ``None`` too (an unset limit)."""

    convert = int

    def __init__(self, least: Any = None, optional: bool = False, rule=""):
        self.least, self.optional, self.rule = least, optional, rule

    def check(self, name: str, value: Any) -> Any:
        if type(value) is not int:
            if value is None and self.optional:
                return value
            try:
                number = operator.index(value)
            except TypeError:
                number = None
            if number is None or isinstance(value, bool):
                raise _reject(name, f"must be an integer, got {value!r}")
            value = number
        if self.least is not None and value < self.least:
            if self.rule:
                got = f"{name}={value!r}" if name else repr(value)
                raise ValueError(f"{self.rule}, got {got}")
            bound = "> 0" if self.least == 1 else f">= {self.least}"
            raise _reject(name, f"must be {bound}, got {value!r}")
        return value


class Only(Integer):
    """The one integer the simulator models (no router reads another)."""

    def __init__(self, value: int):
        super().__init__()
        self.value = value

    def check(self, name: str, value: Any) -> Any:
        number = super().check(name, value)
        if number != self.value:
            raise _reject(
                name, f"other than {self.value} is not modelled, got {value!r}"
            )
        return number


class Real(Domain):
    """A finite real number in ``[low, high]``, an end open when its flag
    says so (an infinite end always is).  Kept as given: an ``int``
    stays an ``int``, so a job key stays what it was."""

    convert = float

    def __init__(
        self,
        low: float = -math.inf,
        high: float = math.inf,
        *,
        open_low: bool = False,
        open_high: bool = False,
    ):
        self.low, self.high = low, high
        self.open_low = open_low or math.isinf(low)
        self.open_high = open_high or math.isinf(high)
        if math.isinf(high):
            bound = f"{'>' if self.open_low else '>='} {low:g}"
        else:
            bound = (
                f"in {'(' if self.open_low else '['}{low:g}, "
                f"{high:g}{')' if self.open_high else ']'}"
            )
        self.rule = f"must be a finite number {bound}"

    def check(self, name: str, value: Any) -> Any:
        if type(value) is not float and (
            isinstance(value, bool) or not isinstance(value, numbers.Real)
        ):
            raise _reject(name, f"{self.rule}, got {value!r}")
        if not (
            (value > self.low if self.open_low else value >= self.low)
            and (value < self.high if self.open_high else value <= self.high)
        ):
            raise _reject(name, f"{self.rule}, got {value!r}")
        return value


class OneOf(Domain):
    """One of ``options``; an ``Enum`` class admits its members, not
    their values."""

    def __init__(self, options: Iterable[Any]):
        self.options = tuple(options)

    def check(self, name: str, value: Any) -> Any:
        if value not in self.options:
            shown = ", ".join(
                str(o) if isinstance(o, Enum) else repr(o)
                for o in self.options
            )
            raise _reject(name, f"must be one of {shown}, got {value!r}")
        return value


class Each(Domain):
    """A sequence of ``entry`` values, as a ``tuple``; entry ``i`` is
    named ``name[i]``.  A tuple no entry of which changes is kept, so a
    config goes on sharing the default rather than owning a copy."""

    def __init__(self, entry: Domain):
        self.entry = entry

    def check(self, name: str, value: Any) -> Any:
        if type(value) is tuple:
            try:
                if all(self.entry.check(name, item) is item for item in value):
                    return value
            except ValueError:
                pass  # named below, by index
        try:
            items = enumerate(value)
        except TypeError:
            raise _reject(name, f"must be a sequence, got {value!r}") from None
        return tuple(
            self.entry.check(f"{name}[{i}]", item) for i, item in items
        )


@functools.lru_cache(maxsize=None)
def _plan(cls: type) -> tuple:
    """``(name, check)`` of every field of ``cls`` :func:`validate` checks."""
    return tuple(
        (f.name, f.metadata[KEY].check)
        for f in dataclasses.fields(cls)
        if f.metadata.get("checked")
    )


def validate(obj: Any) -> None:
    """Check the declared fields of the dataclass ``obj`` in field order,
    storing normalised values back (frozen classes included)."""
    for name, check in _plan(type(obj)):
        value = getattr(obj, name)
        admitted = check(name, value)
        if admitted is not value:
            object.__setattr__(obj, name, admitted)


def domain_of(cls: type, name: str) -> Domain:
    """The :class:`Domain` the dataclass ``cls`` declares for ``name``."""
    (found,) = (f for f in dataclasses.fields(cls) if f.name == name)
    return found.metadata[KEY]
