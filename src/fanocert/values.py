"""Value semantics shared by the package's value types.

A value equals only a value of its own type with equal fields, never a plain
tuple or a value of another type, and its fields are read-only.  The types
are named tuples or plain ``__slots__`` classes, not frozen dataclasses: a
frozen dataclass generates its methods by ``exec`` at import, about half a
millisecond a class, which every cold ``fanocert verify`` run pays.

* A named-tuple value derives from :class:`ValueTuple` and its
  ``namedtuple(...)`` base.  Since ``ValueTuple`` defines ``__eq__``, Python
  sets its ``__hash__`` to ``None``: a value hashes only if its class says
  ``__hash__ = tuple.__hash__``.
* A slot class derives from :class:`SlotValue`, which supplies the read-only
  ``__setattr__``/``__delattr__`` and ``repr`` and ``==`` over the class's
  own ``__slots__``; it hashes only if it defines ``__hash__``.  Its
  ``__init__`` fills each slot through the slot descriptor's setter, bound
  once at module level from :func:`slot_setters`, because ``read_only`` is
  in the way and ``object.__setattr__`` would look each field up by name.

Standard library only; nothing here imports from the package.
"""
from __future__ import annotations


def read_only(self, name, *value):
    raise AttributeError(f"cannot set or delete field {name!r} of a {type(self).__name__}")


def slot_setters(cls) -> tuple:
    """The ``__set__`` of each of ``cls``'s own slots, in ``__slots__`` order."""
    return tuple(getattr(cls, name).__set__ for name in cls.__slots__)


class ValueTuple(tuple):
    """Base of the named-tuple values: ``==`` only with its own type."""

    __slots__ = ()

    def __eq__(self, other):
        return type(other) is type(self) and tuple.__eq__(self, other)

    def __ne__(self, other):
        return not self == other


class SlotValue:
    """Base of the slot classes: read-only fields, ``repr`` and ``==`` over ``__slots__``."""

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
