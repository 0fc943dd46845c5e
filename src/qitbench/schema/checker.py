"""Constructor checking.

Argument types are admitted by exactly four strict-positivity rules:

* ``InductiveArgument``        the type is Q itself (with its index);
* ``ConstantParameter``        the type never mentions Q;
* ``StrictlyPositiveFunction`` a function whose domain never mentions Q;
* ``StrictlyPositiveProduct``  a pair whose second component may use the
  first only through its unit erasure.

Element constructors chain ``ElArgument`` steps down to a ``Target``;
equality constructors chain ``EqArg`` steps down to an ``EqTarget``
whose two endpoints must be well-typed terms of Q at the same index.
Each acceptance carries a Derivation tree (tests/oracles.py replays it
against the rule grammar); each rejection names the violated rule, the
source position, and the offending subterm.

Outside the rules, three walks answer every question about the terms
inside a type: ``_type_terms`` yields each term with the binder names
in scope at it (the Q-mention, variable-use and scope checks read it),
``_term_names`` yields a term's names, marking application heads, and
``_map_terms`` rebuilds a type with a function applied to its terms,
leaving alone the codomain of a binder with a given name
(normalisation and substitution).  ``erase_q`` alone rewrites Q itself.
The walks dispatch with ``isinstance``: a class pattern costs several
times as much per node, and they run on every argument type checked.
The walks are module functions, not closures: a recursive closure is a
reference cycle, left to the cyclic collector on every check.
"""

from __future__ import annotations

from typing import Mapping, NamedTuple, Optional, Union

from ..errors import NameClash
from ..records import tagged
from .ast import (
    ConstT,
    Ctor,
    EqT,
    FinParam,
    Pi,
    QRef,
    QitDecl,
    Sigma,
    TApp,
    TNum,
    TVar,
    TermAst,
    TypeAst,
    show_term_ast,
    show_type,
)

Env = Mapping[str, TypeAst]


@tagged
class Derivation(NamedTuple):
    """One rule application; ``displayed`` controls rule_sequence only.

    ``about`` is the type the rule judged, or the constructor for the
    ElCon and EqCon roots; ``subject`` renders it only when read.
    """

    rule: str
    about: Union[TypeAst, Ctor]
    premises: tuple["Derivation", ...] = ()
    displayed: bool = True

    @property
    def subject(self) -> str:
        if isinstance(self.about, Ctor):
            return f"{self.about.name} : {show_type(self.about.type)}"
        return show_type(self.about)


@tagged
class Accept(NamedTuple):
    derivation: Derivation


@tagged
class Reject(NamedTuple):
    rule: str
    position: tuple[int, int]
    message: str


Judgement = Union[Accept, Reject]


class _Fail(Exception):
    def __init__(self, rule: str, message: str):
        super().__init__(message)
        self.rule = rule
        self.message = message


# --- the type walks ---


def _type_terms(t: TypeAst, bound: frozenset[str] = frozenset()):
    """Each term inside t, left to right, with the binder names in scope at it."""
    if isinstance(t, ConstT):
        for a in t.args:
            yield a, bound
    elif isinstance(t, QRef):
        if t.index is not None:
            yield t.index, bound
    elif isinstance(t, (Pi, Sigma)):
        b, dom, cod = t
        yield from _type_terms(dom, bound)
        yield from _type_terms(cod, bound if b == "_" else bound | {b})
    elif isinstance(t, EqT):
        yield t.lhs, bound
        yield t.rhs, bound


def _term_names(t: TermAst):
    """Each name in t, left to right, with whether it heads an application."""
    if isinstance(t, TVar):
        yield t.name, False
    elif isinstance(t, TApp):
        yield t.head, True
        for a in t.args:
            yield from _term_names(a)


def _map_terms(t: TypeAst, f, shadow: Optional[str] = None) -> TypeAst:
    """t with f applied to each term inside it, except in the codomain of
    a binder named shadow."""
    if isinstance(t, ConstT):
        return ConstT(t.name, tuple(map(f, t.args)))
    if isinstance(t, QRef):
        return t if t.index is None else QRef(f(t.index))
    if isinstance(t, (Pi, Sigma)):
        b, dom, cod = t
        return t.__class__(b, _map_terms(dom, f, shadow), cod if b == shadow else _map_terms(cod, f, shadow))
    if isinstance(t, EqT):
        return EqT(f(t.lhs), f(t.rhs))
    return t


def erase_q(t: TypeAst) -> TypeAst:
    """Unit erasure: replace every occurrence of Q by the unit type."""
    if isinstance(t, QRef):
        return ConstT("Unit")
    if isinstance(t, (Pi, Sigma)):
        b, dom, cod = t
        return t.__class__(b, erase_q(dom), erase_q(cod))
    return t


def _mentions_q(t: TypeAst, qname: str) -> bool:
    """Whether Q occurs in t as a type (erasure changes t) or as a name
    in one of its terms, under any binder."""
    return erase_q(t) != t or any(n == qname for u, _ in _type_terms(t) for n, _ in _term_names(u))


def _uses_var(t: TypeAst, name: str) -> bool:
    """Whether name occurs in t outside the codomain of a binder named
    name; ``_`` binds nothing."""
    return any(name not in bound and any(n == name for n, _ in _term_names(u)) for u, bound in _type_terms(t))


def _scope_check(t: TypeAst, env: Env, decl: QitDecl, rule: str) -> None:
    """Every term variable inside t must be bound by an earlier argument."""
    for u, bound in _type_terms(t, frozenset(env)):
        for n, head in _term_names(u):
            if not head and n not in bound and decl.element(n) is None and _fin_owner(decl, n) is None:
                raise _Fail(rule, f"unknown name {n} in {show_type(t)}")


def _fin_owner(decl: QitDecl, name: str):
    for p in decl.params:
        if isinstance(p.kind, FinParam) and name in p.kind.values:
            return p
    return None


# --- term typing (equation endpoints and Q indices) ---


def _norm_term(t: TermAst) -> TermAst:
    if isinstance(t, TApp):
        args = tuple(map(_norm_term, t.args))
        if t.head == "suc" and len(args) == 1 and isinstance(args[0], TNum):
            return TNum(args[0].value + 1)
        return TApp(t.head, args)
    return t


def _norm_type(t: TypeAst) -> TypeAst:
    return _map_terms(t, _norm_term)


def _type_eq(a: TypeAst, b: TypeAst) -> bool:
    return a == b or _norm_type(a) == _norm_type(b)


def _subst_term(t: TermAst, name: str, value: TermAst) -> TermAst:
    if isinstance(t, TVar):
        return value if t.name == name else t
    if isinstance(t, TApp):
        return TApp(t.head, tuple(_subst_term(a, name, value) for a in t.args))
    return t


def _subst_type(t: TypeAst, name: str, value: TermAst) -> TypeAst:
    return _map_terms(t, lambda u: _subst_term(u, name, value), name)


def _infer(t: TermAst, env: Env, decl: QitDecl) -> TypeAst:
    match t:
        case TNum(_):
            return ConstT("Nat")
        case TVar(name):
            if name in env:
                return env[name]
            ctor = decl.element(name)
            if ctor is not None:
                return ctor.type
            p = _fin_owner(decl, name)
            if p is not None:
                return ConstT(p.name)
            raise _Fail("EqTarget", f"unknown name {name}")
        case TApp("suc", args):
            if len(args) != 1:
                raise _Fail("EqTarget", "suc takes one argument")
            if not _type_eq(_infer(args[0], env, decl), ConstT("Nat")):
                raise _Fail("EqTarget", f"suc applied to non-Nat {show_term_ast(args[0])}")
            return ConstT("Nat")
        case TApp("comp", args):
            if len(args) != 2:
                raise _Fail("EqTarget", "comp takes two arguments")
            fty = _infer(args[0], env, decl)
            gty = _infer(args[1], env, decl)
            if not (isinstance(fty, Pi) and isinstance(gty, Pi)):
                raise _Fail("EqTarget", f"comp needs two functions in {show_term_ast(t)}")
            if not _type_eq(fty.domain, gty.codomain):
                raise _Fail("EqTarget", f"comp domains disagree in {show_term_ast(t)}")
            return Pi("_", gty.domain, fty.codomain)
        case TApp(head, args):
            fty = _infer(TVar(head), env, decl)
            for a in args:
                if not isinstance(fty, Pi):
                    raise _Fail("EqTarget", f"{head} is applied to too many arguments")
                at = _infer(a, env, decl)
                if not _type_eq(at, fty.domain):
                    raise _Fail(
                        "EqTarget",
                        f"argument {show_term_ast(a)} has type {show_type(at)}, expected {show_type(fty.domain)}",
                    )
                fty = fty.codomain if fty.binder == "_" else _subst_type(fty.codomain, fty.binder, a)
            return fty
    raise _Fail("EqTarget", f"cannot type {t!r}")


def _check_qref(t: QRef, decl: QitDecl, env: Env, rule: str) -> None:
    if decl.index_sort is None:
        if t.index is not None:
            raise _Fail(rule, f"{decl.name} takes no index")
        return
    if t.index is None:
        raise _Fail(rule, f"{decl.name} needs a Nat index")
    if not _type_eq(_infer(t.index, env, decl), ConstT("Nat")):
        raise _Fail(rule, f"index {show_term_ast(t.index)} is not a Nat")


# --- the rules ---


def _strpstv(t: TypeAst, decl: QitDecl, env: Env) -> Derivation:
    match t:
        case QRef(_):
            _check_qref(t, decl, env, "InductiveArgument")
            return Derivation("InductiveArgument", t)
        case EqT(_, _):
            raise _Fail("ConditionalEquation", f"equation type {show_type(t)} cannot be an argument")
        case Pi(b, dom, cod):
            if _mentions_q(dom, decl.name):
                raise _Fail(
                    "StrictlyPositiveFunction",
                    f"{decl.name} occurs on the left of an arrow in {show_type(t)}",
                )
            _scope_check(dom, env, decl, "StrictlyPositiveFunction")
            inner = _strpstv(cod, decl, env if b == "_" else {**env, b: dom})
            return Derivation("StrictlyPositiveFunction", t, (inner,))
        case Sigma(b, left, right):
            first = _strpstv(left, decl, env)
            if b != "_" and _mentions_q(left, decl.name) and _uses_var(right, b):
                raise _Fail(
                    "StrictlyPositiveProduct",
                    f"{show_type(right)} depends on {b}, whose type mentions {decl.name}",
                )
            env2 = env if b == "_" else {**env, b: erase_q(left)}
            second = _strpstv(right, decl, env2)
            return Derivation("StrictlyPositiveProduct", t, (first, second))
        case _:
            if _mentions_q(t, decl.name):
                raise _Fail(
                    "ConstantParameter",
                    f"{decl.name} occurs in the parameter type {show_type(t)}",
                )
            _scope_check(t, env, decl, "ConstantParameter")
            return Derivation("ConstantParameter", t)


def _element_spine(t: TypeAst, decl: QitDecl, env: Env) -> Derivation:
    match t:
        case QRef(_):
            _check_qref(t, decl, env, "Target")
            return Derivation("Target", t)
        case Pi(b, dom, cod):
            arg = _strpstv(dom, decl, env)
            rest = _element_spine(cod, decl, env if b == "_" else {**env, b: dom})
            return Derivation("ElArgument", t, (arg, rest))
        case _:
            raise _Fail("Target", f"constructor must target {decl.name}, found {show_type(t)}")


def check_element_ctor(ctor: Ctor, decl: QitDecl) -> Judgement:
    try:
        spine = _element_spine(ctor.type, decl, {})
    except _Fail as f:
        return Reject(f.rule, (ctor.line, ctor.col), f.message)
    return Accept(Derivation("ElCon", ctor, (spine,)))


def _hide(d: Derivation) -> Derivation:
    return Derivation(d.rule, d.about, tuple(_hide(p) for p in d.premises), displayed=False)


def _equality_spine(t: TypeAst, decl: QitDecl, env: Env) -> Derivation:
    match t:
        case EqT(lhs, rhs):
            lt = _infer(lhs, env, decl)
            rt = _infer(rhs, env, decl)
            for side, ty in (("left", lt), ("right", rt)):
                if not isinstance(ty, QRef):
                    raise _Fail("EqTarget", f"the {side} endpoint has type {show_type(ty)}, not {decl.name}")
            if not _type_eq(lt, rt):
                raise _Fail("EqTarget", f"endpoint types disagree: {show_type(lt)} vs {show_type(rt)}")
            return Derivation("EqTarget", t)
        case Pi(b, dom, cod):
            if isinstance(dom, EqT):
                raise _Fail("ConditionalEquation", f"argument {show_type(dom)} makes the equation conditional")
            arg = _hide(_strpstv(dom, decl, env))
            rest = _equality_spine(cod, decl, env if b == "_" else {**env, b: dom})
            return Derivation("EqArg", t, (arg, rest))
        case _:
            raise _Fail("EqTarget", f"an equality constructor must end in an equation, found {show_type(t)}")


def check_equality_ctor(ctor: Ctor, decl: QitDecl) -> Judgement:
    try:
        spine = _equality_spine(ctor.type, decl, {})
    except _Fail as f:
        return Reject(f.rule, (ctor.line, ctor.col), f.message)
    return Accept(Derivation("EqCon", ctor, (spine,)))


@tagged
class DeclReport(NamedTuple):
    decl: QitDecl
    element: tuple[tuple[str, Judgement], ...]
    equality: tuple[tuple[str, Judgement], ...]

    @property
    def ok(self) -> bool:
        return all(isinstance(j, Accept) for _, j in self.element + self.equality)

    def first_reject(self) -> Optional[tuple[str, Reject]]:
        for name, j in self.element + self.equality:
            if isinstance(j, Reject):
                return name, j
        return None


def check_decl(decl: QitDecl) -> DeclReport:
    pnames = [p.name for p in decl.params]
    if len(set(pnames)) != len(pnames):
        raise NameClash(f"duplicate parameter name in {decl.name}")
    element = tuple((c.name, check_element_ctor(c, decl)) for c in decl.element_ctors)
    equality = tuple((c.name, check_equality_ctor(c, decl)) for c in decl.equality_ctors)
    return DeclReport(decl, element, equality)


# --- derivation display ---


def rule_sequence(d: Derivation) -> tuple[str, ...]:
    """Rule names of the displayed nodes, premises first."""
    out: list[str] = []
    _displayed_rules(d, out)
    return tuple(out)


def _displayed_rules(n: Derivation, out: list[str]) -> None:
    for p in n.premises:
        _displayed_rules(p, out)
    if n.displayed:
        out.append(n.rule)
