"""Value classes as plain __slots__ classes.

Record and FrozenRecord give a class the ==, hash, repr and frozenness
that @dataclass and @dataclass(frozen=True) generate, field by field in
the order of its __slots__, without importing dataclasses (and through
it inspect, ast and dis) when the package starts.  Each class writes
its own __init__; a frozen one stores its fields with object.__setattr__.
"""

from __future__ import annotations

__all__ = ['Record', 'FrozenRecord']


class Record:
    """A mutable record: the fields are the subclass's __slots__.

    == compares the tuples of fields and only against the same class
    (NotImplemented otherwise), so the class is unhashable; repr is
    Name(field=value, ...).  A class whose __slots__ also hold a
    __dict__ (for cached_property) overrides _astuple.
    """

    __slots__ = ()

    def _astuple(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._astuple() == other._astuple()
        return NotImplemented

    def __repr__(self) -> str:
        body = ', '.join(f'{name}={getattr(self, name)!r}' for name in self.__slots__)
        return f'{self.__class__.__qualname__}({body})'

    def __reduce__(self):
        return self.__class__, self._astuple()


class FrozenRecord(Record):
    """An immutable record: hash is the hash of the tuple of fields, and
    assigning or deleting any attribute raises AttributeError."""

    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._astuple())

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f'cannot assign to field {name!r}')

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f'cannot delete field {name!r}')
