"""Bases for the package's classes, which are defined without
``dataclasses``.

``dataclasses`` writes and ``exec``s the source of every method it adds,
about 1 ms a class at every start-up.  Only the compile record keeps the
decorator: ``CompiledCombinator`` and its subclass ``CompiledMachine``,
for ``dataclasses.replace``, their fields kept out of ``==``, and the
round memo, a field that a replaced record starts empty.  Value records
are ``NamedTuple``s.  A
class on ``Frozen`` or ``Fields`` lists its fields, in order, in
``__match_args__``, and gets the methods that need only that list:

- ``Fields``: ``repr`` and ``==`` (same class, equal fields) over the
  fields, as a dataclass's are.  A class right on it is a mutable
  helper: it declares no ``__slots__``, so it has a ``__dict__``, and
  it is unhashable, as a mutable dataclass is.
- ``Frozen``: an immutable ``__slots__`` node whose class is part of
  ``==``, which a ``NamedTuple``'s is not.  Assigning or deleting any
  attribute raises ``dataclasses.FrozenInstanceError``; hash and
  pickling go over the fields, as a frozen dataclass's do.
  Constructors write their slots through the slot descriptors, since
  ``__setattr__`` refuses.
- ``Checked``: the first base of a ``NamedTuple`` record that checks its
  fields in ``_check``, where a dataclass had ``__post_init__``.
"""
from __future__ import annotations

from dataclasses import FrozenInstanceError
from operator import attrgetter


def _getter(fields: tuple[str, ...]):
    """A function from an instance to the tuple of its ``fields``, read
    by ``operator.attrgetter`` where it can: ``normalize`` compares
    instructions and conditions by ``==`` in its inner loop."""
    if len(fields) > 1:
        return attrgetter(*fields)
    if fields:
        get = attrgetter(fields[0])
        return lambda self: (get(self),)
    return lambda self: ()


class Fields:
    __slots__ = ()
    __match_args__: tuple[str, ...] = ()
    __hash__ = None

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._values = staticmethod(_getter(cls.__match_args__))

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__match_args__)
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            values = self._values
            return values(self) == values(other)
        return NotImplemented


class Frozen(Fields):
    __slots__ = ()

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __hash__(self):
        return hash(self._values(self))

    def __reduce__(self):
        return type(self), self._values(self)


class Checked:
    """First base of a ``NamedTuple`` record that validates its fields:
    ``_check`` runs on every instance built by calling the class, by
    ``_make`` or ``_replace``, and by unpickling or copying."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        self._check()
        return self

    @classmethod
    def _make(cls, iterable):
        self = super()._make(iterable)
        self._check()
        return self
