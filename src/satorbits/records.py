"""The base of the library's immutable value records.

A record type subclasses `Record` and a `collections.namedtuple` of its
fields, and sets empty `__slots__` so that its instances have no `__dict__`:

    class AgentState(Record, namedtuple("AgentState", "x v")):
        __slots__ = ()

Construction, field access, hashing and `repr` are then a tuple's, and
declaring the type costs one namedtuple, with no class machinery to import.
Unlike a plain namedtuple, a record equals only a record of its own class,
and records are not ordered.  `_replace` builds the copy through the
constructor, so a record that validates its fields in `__new__` validates
the copy too.
"""

from __future__ import annotations


class Record(tuple):
    __slots__ = ()

    def __eq__(self, other: object) -> bool:
        # False, not NotImplemented: a plain tuple would then compare its
        # items with the record's
        return other.__class__ is self.__class__ and tuple.__eq__(self, other)

    # tuple's own != and ordering would compare with any tuple
    __ne__ = object.__ne__
    __lt__ = __le__ = __gt__ = __ge__ = object.__lt__
    __hash__ = tuple.__hash__

    @classmethod
    def _make(cls, iterable):
        """The record of `iterable`'s field values, built by the constructor."""
        return cls(*iterable)
