"""Bases of the engine's records: plain slotted classes with a hand-written
`__init__`, compared field by field as dataclasses are.

A record's fields are its slots, in order (`__dict__` and `__weakref__`
excepted).  Its `__init__` sets them through the slots' setters, `_set`,
as `terms` sets a node's fields: a frozen record's `__setattr__` raises,
and a setter call is cheaper than `object.__setattr__`.  A record class,
like a term node class, costs no generated code, so the engine imports
without `dataclasses`.
"""

from operator import attrgetter


class Record:
    """Two records are equal when they are of one class and their compared
    fields are equal: every field, unless the class statement names the
    compared ones (`compare=(...)`).  A record is mutable and unhashable."""
    __slots__ = ()
    __hash__ = None

    def __init_subclass__(cls, compare=None):
        if "__slots__" not in cls.__dict__:
            return  # no slots of its own: the parent's fields stand
        fields = [n for n in cls.__slots__ if n not in ("__dict__", "__weakref__")]
        cls._set = tuple(cls.__dict__[n].__set__ for n in fields)
        compare = fields if compare is None else compare
        cls._key = staticmethod(
            attrgetter(*compare) if len(compare) > 1
            else lambda r: tuple(getattr(r, n) for n in compare))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == self._key(other)
        return NotImplemented


class Frozen(Record):
    """A record whose fields are set once, by `__init__`, and hashed over
    the compared fields."""
    __slots__ = ()

    def __hash__(self):
        return hash(self._key(self))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
