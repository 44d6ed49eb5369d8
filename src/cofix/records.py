"""One JSON codec for every report dataclass.

A report inherits :class:`Record`.  ``to_dict`` emits the dataclass fields
in declaration order: enums as their values, tuples and lists as lists,
nested records through their own ``to_dict``.  ``from_dict`` follows the
type hints: None for ``Optional``, ``Cls(value)`` for enums, ``float()``
and ``int()`` coercion (:func:`as_int` refuses a fractional float), typed
tuples and records element by element, and lists to tuples for untyped
values.  A missing key takes the field's default.
"""

from __future__ import annotations

import dataclasses
import functools
import typing
from enum import Enum

from .errors import DomainError


class Record:
    """Mixin for frozen report dataclasses: field-driven ``to_dict``/``from_dict``."""

    def to_dict(self) -> dict:
        return {name: _encode(getattr(self, name)) for name, _, _ in _fields(type(self))}

    @classmethod
    def from_dict(cls, d: dict):
        # a required field is looked up even when absent, raising KeyError
        fields = _fields(cls)
        return cls(**{name: _decode(hint, d[name]) for name, hint, required in fields if required or name in d})


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
    return value


def _plain(value):
    """Lists to tuples, recursively, for values whose hint names no structure."""
    if isinstance(value, (list, tuple)):
        return tuple(_plain(v) for v in value)
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    return value


def _decode(hint, value):
    origin = typing.get_origin(hint)
    if origin is typing.Union:
        args = typing.get_args(hint)
        if value is None and type(None) in args:
            return None
        rest = [a for a in args if a is not type(None)]
        return _decode(rest[0], value) if len(rest) == 1 else _plain(value)
    if origin is tuple:
        args = typing.get_args(hint)
        if len(args) == 2 and args[1] is Ellipsis:
            return tuple(_decode(args[0], v) for v in value)
        if len(args) != len(value):
            raise ValueError(f"expected {len(args)} entries, got {len(value)}")
        return tuple(_decode(a, v) for a, v in zip(args, value))
    if isinstance(hint, type):
        if issubclass(hint, Record):
            return hint.from_dict(value)
        if issubclass(hint, Enum):
            return hint(value)
        if hint is int:
            return as_int(value)
        if hint is float:
            return float(value)
    return _plain(value)


def as_int(value) -> int:
    """``int(value)``, except that a float with a fractional part is refused, not truncated."""
    if isinstance(value, float) and not value.is_integer():
        raise ValueError(f"{value!r} is not an integer")
    return int(value)


def int_arg(name: str, value) -> int:
    """:func:`as_int` for a library argument: what it refuses raises DomainError naming ``name``."""
    try:
        return as_int(value)
    except (TypeError, ValueError) as exc:
        raise DomainError(f"{name} must be an integer, got {value!r}") from exc
