"""The base of the package's read-only value records.

A record class names its fields in __slots__, in constructor order, and
inherits a positional constructor, equality and hashing by field values,
and a repr.  Fields are set once, by the constructor; assigning or deleting
one afterwards raises AttributeError.  A class with defaults, keyword
arguments or checks writes its own __init__ around Record.__init__, and a
class with a cached_property lists "__dict__" among its slots, where the
cached values go.  Unlike a dataclass, whose methods are generated through
exec and whose module imports inspect, a record class costs no more to
define than any class statement, which a fresh process pays on import.
"""

from __future__ import annotations

_set = object.__setattr__


class Record:
    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls):
        cls._fields = tuple(name for name in cls.__slots__ if name != "__dict__")

    def __init__(self, *values):
        if len(values) != len(self._fields):
            raise TypeError(f"{type(self).__name__} takes {len(self._fields)} "
                            f"fields {self._fields}, got {len(values)}")
        for name, value in zip(self._fields, values):
            _set(self, name, value)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"{type(self).__name__} is read-only")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"{type(self).__name__} is read-only")

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"
