"""How the package builds its records, without code generation.

An immutable record is a typing.NamedTuple passed through tagged.  A
record that checks its fields, caches a property, has a length or is
changed after it is built is a plain class with a written __init__;
Record is the base of those that refuse assignment, as sizes.SizeVal
does.  README's module map says why records are built so.
"""

from __future__ import annotations

_tuple_eq, _tuple_hash = tuple.__eq__, tuple.__hash__


def tagged(cls: type) -> type:
    """cls, a NamedTuple, equal and hashed as a record of its class.  A
    tuple ignores its class: Pi(b, A, B) would equal Sigma(b, A, B),
    Var("x") would equal TVar("x"), and SetParam() would equal () and be
    falsy.  Records of one class compare as their field tuples, records
    of two classes are unequal and hash apart, and every record is
    truthy."""
    cls.__eq__ = _eq
    cls.__ne__ = _ne
    cls.__hash__ = _hash
    cls.__bool__ = _truthy
    return cls


def _eq(self, other) -> bool:
    return self.__class__ is other.__class__ and _tuple_eq(self, other)


def _ne(self, other) -> bool:
    return not _eq(self, other)


def _hash(self) -> int:
    return _tuple_hash(self) ^ hash(self.__class__)


def _truthy(self) -> bool:
    return True


class Record:
    """A plain-class record: __init__ checks what it must and stores the
    fields named in _fields with _set.  It refuses assignment, and it
    compares, hashes and shows as its class and those fields.  A
    subclass may cache properties: cached_property writes the instance
    dict directly."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _set(self, **fields) -> None:
        self.__dict__.update(fields)

    def _values(self) -> tuple:
        return tuple(map(self.__dict__.__getitem__, self._fields))

    def __eq__(self, other) -> bool:
        return self.__class__ is other.__class__ and self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values()) ^ hash(self.__class__)

    def __repr__(self) -> str:
        shown = ", ".join(f"{f}={v!r}" for f, v in zip(self._fields, self._values()))
        return f"{self.__class__.__name__}({shown})"

    def __setattr__(self, name, value):
        raise AttributeError(f"{self.__class__.__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{self.__class__.__name__} is immutable")
