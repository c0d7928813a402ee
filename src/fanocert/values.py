"""Value semantics shared by the package's value types.

A value equals only a value of its own type with equal fields, never a plain
tuple or a value of another type, and its fields are read-only.  Every value
type is a plain ``__slots__`` class deriving from :class:`SlotValue`.  None is a
named tuple or a frozen dataclass: both generate methods by ``exec`` at
import, which every cold ``fanocert verify`` run pays.  Timed in fresh
CPython 3.11 interpreters (Linux, Intel Xeon), a named tuple cost about
0.06 ms and a frozen dataclass of 11 fields about 1 ms.
``catalog.CaseRecord``'s ``dataclass(init=False, repr=False, eq=False)``
writes no method; it only registers the fields that the benchmark reads
with ``dataclasses.asdict``.

:class:`SlotValue` supplies the read-only ``__setattr__``/``__delattr__``
and ``repr`` and ``==`` over the class's own ``__slots__``.  Since it
defines ``__eq__``, Python sets its ``__hash__`` to ``None``: a value hashes
only if its class derives from :class:`HashableValue`, and no value type
defines an equality or a hash of its own.  Each class's ``__init__`` fills
each slot through the slot descriptor's setter, bound once at module level
from :func:`slot_setters`, because ``read_only`` is in the way and
``object.__setattr__`` would look each field up by name.

Standard library only; nothing here imports from the package.
"""
from __future__ import annotations


def read_only(self, name, *value):
    raise AttributeError(f"cannot set or delete field {name!r} of a {type(self).__name__}")


def slot_setters(cls) -> tuple:
    """The ``__set__`` of each of ``cls``'s own slots, in ``__slots__`` order."""
    return tuple(getattr(cls, name).__set__ for name in cls.__slots__)


class SlotValue:
    """Base of the value types: read-only fields, ``repr`` and ``==`` over ``__slots__``."""

    __slots__ = ()
    __setattr__ = __delattr__ = read_only

    def _fields(self) -> tuple:
        return tuple(getattr(self, field) for field in type(self).__slots__)

    def __repr__(self) -> str:
        fields = ", ".join(f"{field}={getattr(self, field)!r}" for field in type(self).__slots__)
        return f"{type(self).__name__}({fields})"

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._fields() == other._fields()


class HashableValue(SlotValue):
    """A :class:`SlotValue` that hashes over its fields, as it compares."""

    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._fields())
