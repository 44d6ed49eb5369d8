"""One JSON codec for every report dataclass.

A report inherits :class:`Record`.  ``to_dict`` emits the dataclass fields
in declaration order: enums as their values, tuples and lists as lists,
nested records through their own ``to_dict``.  ``from_dict`` follows the
type hints: None for ``Optional``, ``Cls(value)`` for enums, ``float()``
and ``int()`` coercion (a boolean or a string is never a number:
:func:`as_float` and :func:`as_int` refuse both, and :func:`as_int` a
fractional float too), typed tuples and records element by element, and
lists to tuples for untyped values.  A missing key takes the field's
default.  A number a field refuses raises ValueError naming the field, in
the words of :func:`int_arg` and :func:`real_arg`.  A non-finite float is
written as the string ``"Infinity"``, ``"-Infinity"`` or ``"NaN"``, so the
output is strict JSON; a float field reads back exactly these three
strings.  :class:`ValueEnum` and :class:`ArrayEq` state the text of an
enum and the equality of arrays.

:func:`int_arg` (with a least value) and :func:`real_arg` hold a library
argument to the same rules and raise DomainError naming the argument.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import typing
from enum import Enum

import numpy as np

from .errors import DomainError


class ValueEnum(Enum):
    """An enum whose text is its value, as :class:`Record` encodes it."""

    def __str__(self):
        return self.value


class ArrayEq:
    """Field-wise ``==`` and hash for a ``@dataclass(frozen=True, eq=False)`` holding arrays.

    Arrays compare by ``np.array_equal`` and hash as ``(v + 0).tobytes()``:
    + 0 turns -0.0 into 0.0, which ``np.array_equal`` already equates.
    """

    def __eq__(self, other):
        pairs = ((getattr(self, f.name), getattr(other, f.name)) for f in dataclasses.fields(self))
        return isinstance(other, type(self)) and all(
            np.array_equal(a, b) if isinstance(a, np.ndarray) or isinstance(b, np.ndarray) else a == b for a, b in pairs
        )

    def __hash__(self):
        values = (getattr(self, f.name) for f in dataclasses.fields(self))
        return hash(tuple((v + 0).tobytes() if isinstance(v, np.ndarray) else v for v in values))


class Record:
    """Mixin for frozen report dataclasses: field-driven ``to_dict``/``from_dict``."""

    def to_dict(self) -> dict:
        return {name: _encode(getattr(self, name)) for name, _, _ in _fields(type(self))}

    @classmethod
    def from_dict(cls, d: dict):
        # a required field is looked up even when absent, raising KeyError
        fields = _fields(cls)
        return cls(**{name: _decode(hint, d[name], name) for name, hint, required in fields if required or name in d})


@functools.cache
def _fields(cls) -> tuple:
    """(name, type hint, required) per dataclass field, in declaration order."""
    hints = typing.get_type_hints(cls)
    return tuple(
        (f.name, hints[f.name], f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING)
        for f in dataclasses.fields(cls)
    )


def _encode(value):
    if isinstance(value, Record):
        return value.to_dict()
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, (tuple, list)):
        return [_encode(v) for v in value]
    if isinstance(value, dict):
        return {k: _encode(v) for k, v in value.items()}
    if isinstance(value, float) and not math.isfinite(value):
        return "NaN" if math.isnan(value) else "Infinity" if value > 0 else "-Infinity"
    return value


def _plain(value):
    """Lists to tuples, recursively, for values whose hint names no structure."""
    if isinstance(value, (list, tuple)):
        return tuple(_plain(v) for v in value)
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    return value


def _decode(hint, value, name: str):
    """``value`` read by ``hint`` for the field ``name``, which a refused number names."""
    origin = typing.get_origin(hint)
    if origin is typing.Union:
        args = typing.get_args(hint)
        if value is None and type(None) in args:
            return None
        rest = [a for a in args if a is not type(None)]
        return _decode(rest[0], value, name) if len(rest) == 1 else _plain(value)
    if origin is tuple:
        args = typing.get_args(hint)
        if len(args) == 2 and args[1] is Ellipsis:
            return tuple(_decode(args[0], v, name) for v in value)
        if len(args) != len(value):
            raise ValueError(f"expected {len(args)} entries, got {len(value)}")
        return tuple(_decode(a, v, name) for a, v in zip(args, value))
    if isinstance(hint, type):
        if issubclass(hint, Record):
            return hint.from_dict(value)
        if issubclass(hint, Enum):
            return hint(value)
        if hint is int:
            return _read(as_int, "an integer", name, value)
        if hint is float:
            # the one place a string reads as a number: the three that _encode writes
            return float(value) if value in ("Infinity", "-Infinity", "NaN") else _read(as_float, "a number", name, value)
    return _plain(value)


def as_float(value) -> float:
    """``float(value)``, except that a bool or a string is refused, not converted."""
    if isinstance(value, (bool, np.bool_, str)):
        raise ValueError(f"{value!r} is not a number")
    return float(value)


def as_int(value) -> int:
    """``int(value)``, except that a bool, a string, or a float (numpy's too) with a fractional part is refused."""
    if isinstance(value, (bool, np.bool_, str)) or isinstance(value, (float, np.floating)) and not value.is_integer():
        raise ValueError(f"{value!r} is not an integer")
    return int(value)


def _read(read, kind: str, name: str, value, error=ValueError):
    """``read(value)``; what it refuses raises ``error``: "<name> must be <kind>, got <value>"."""
    try:
        return read(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise error(f"{name} must be {kind}, got {value!r}") from exc


def int_arg(name: str, value, least: typing.Optional[int] = None) -> int:
    """:func:`as_int` for a library argument, at least ``least`` if given; a refusal raises DomainError naming ``name``."""
    value = _read(as_int, "an integer", name, value, DomainError)
    if least is not None and value < least:
        raise DomainError(f"{name} must be at least {least}, got {value}")
    return value


def real_arg(name: str, value) -> float:
    """:func:`as_float` for a library argument: what it refuses raises DomainError naming ``name``."""
    return _read(as_float, "a number", name, value, DomainError)
