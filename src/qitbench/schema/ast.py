"""Declaration syntax: parameters, constructor types, terms in types.

The shape mirrors what the surface language can say: a declaration
names the new type Q, binds parameters, and lists element constructors
followed by equality constructors.  Types are built from references to
Q (optionally indexed), constant types, dependent functions and pairs,
and equations between terms; terms are variables, numerals, and
applications.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Union

from ..errors import NameClash
from ..records import Record, tagged


# --- parameters ---


@tagged
class SetParam(NamedTuple):
    """An abstract set; runs instantiate it with a finite carrier."""


@tagged
class FinParam(NamedTuple):
    values: tuple[str, ...]


@tagged
class NatParam(NamedTuple):
    pass


@tagged
class FamilyParam(NamedTuple):
    """Type-family data beyond the surface grammar (library entries only)."""

    desc: str


ParamKind = Union[SetParam, FinParam, NatParam, FamilyParam]


@tagged
class Param(NamedTuple):
    name: str
    kind: ParamKind


# --- terms appearing inside types ---


@tagged
class TVar(NamedTuple):
    name: str


@tagged
class TNum(NamedTuple):
    value: int


@tagged
class TApp(NamedTuple):
    head: str
    args: tuple["TermAst", ...]


TermAst = Union[TVar, TNum, TApp]


# --- constructor types ---


@tagged
class QRef(NamedTuple):
    index: Optional[TermAst] = None


@tagged
class ConstT(NamedTuple):
    name: str
    args: tuple[TermAst, ...] = ()


@tagged
class Pi(NamedTuple):
    binder: str
    domain: "TypeAst"
    codomain: "TypeAst"


@tagged
class Sigma(NamedTuple):
    binder: str
    left: "TypeAst"
    right: "TypeAst"


@tagged
class EqT(NamedTuple):
    lhs: TermAst
    rhs: TermAst


TypeAst = Union[QRef, ConstT, Pi, Sigma, EqT]


@tagged
class Ctor(NamedTuple):
    name: str
    type: TypeAst
    line: int = 0
    col: int = 0


class QitDecl(Record):
    """index_sort is "Nat" for indexed declarations, None otherwise."""

    _fields = ("name", "params", "element_ctors", "equality_ctors", "index_sort")

    def __init__(
        self,
        name: str,
        params: tuple[Param, ...],
        element_ctors: tuple[Ctor, ...],
        equality_ctors: tuple[Ctor, ...],
        index_sort: Optional[str] = None,
    ):
        if any(p.name == name for p in params):
            raise NameClash(f"{name} shadows one of its own parameters")
        names = [c.name for c in element_ctors + equality_ctors]
        if len(set(names)) != len(names):
            raise NameClash(f"duplicate constructor name in {name}")
        self._set(name=name, params=params, element_ctors=element_ctors,
                  equality_ctors=equality_ctors, index_sort=index_sort)

    def param(self, name: str) -> Optional[Param]:
        for p in self.params:
            if p.name == name:
                return p
        return None

    def element(self, name: str) -> Optional[Ctor]:
        for c in self.element_ctors:
            if c.name == name:
                return c
        return None


# --- rendering (diagnostics and derivation subjects) ---


def show_term_ast(t: TermAst) -> str:
    match t:
        case TVar(name):
            return name
        case TNum(value):
            return str(value)
        case TApp(head, args):
            if not args:
                return head
            return f"({head} {' '.join(show_term_ast(a) for a in args)})"
    raise TypeError(f"not a term: {t!r}")


def show_type(t: TypeAst) -> str:
    match t:
        case QRef(None):
            return "Q"
        case QRef(index):
            return f"(Q {show_term_ast(index)})"
        case ConstT(name, ()):
            return name
        case ConstT(name, args):
            return f"({name} {' '.join(show_term_ast(a) for a in args)})"
        case Pi("_", dom, cod):
            return f"{_grouped(dom, (Pi, Sigma, EqT))} -> {show_type(cod)}"
        case Pi(binder, dom, cod):
            return f"({binder} : {show_type(dom)}) -> {show_type(cod)}"
        case Sigma("_", left, right):
            return f"{_grouped(left, (Pi, Sigma, EqT))} * {_grouped(right, (Pi, EqT))}"
        case Sigma(binder, left, right):
            return f"({binder} : {show_type(left)}) * {_grouped(right, (Pi, EqT))}"
        case EqT(lhs, rhs):
            return f"{show_term_ast(lhs)} = {show_term_ast(rhs)}"
    raise TypeError(f"not a type: {t!r}")


def _grouped(t: TypeAst, wrap: tuple) -> str:
    s = show_type(t)
    return f"({s})" if isinstance(t, wrap) else s
