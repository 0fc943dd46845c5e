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
Each acceptance carries a Derivation tree that can be replayed; each
rejection names the violated rule, the source position, and the
offending subterm.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Union

from ..errors import NameClash, QitError
from .ast import (
    ConstT,
    Ctor,
    EqT,
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


@dataclass(frozen=True)
class Derivation:
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


@dataclass(frozen=True)
class Accept:
    derivation: Derivation

    @property
    def accepted(self) -> bool:
        return True


@dataclass(frozen=True)
class Reject:
    rule: str
    position: tuple[int, int]
    message: str

    @property
    def accepted(self) -> bool:
        return False


Judgement = Union[Accept, Reject]


class _Fail(Exception):
    def __init__(self, rule: str, message: str):
        super().__init__(message)
        self.rule = rule
        self.message = message


# --- syntactic helpers ---


def _term_mentions(t: TermAst, name: str) -> bool:
    match t:
        case TVar(n):
            return n == name
        case TNum(_):
            return False
        case TApp(head, args):
            return head == name or any(_term_mentions(a, name) for a in args)
    return False


def _mentions_q(t: TypeAst, qname: str) -> bool:
    match t:
        case QRef(_):
            return True
        case ConstT(_, args):
            return any(_term_mentions(a, qname) for a in args)
        case Pi(_, dom, cod):
            return _mentions_q(dom, qname) or _mentions_q(cod, qname)
        case Sigma(_, left, right):
            return _mentions_q(left, qname) or _mentions_q(right, qname)
        case EqT(lhs, rhs):
            return _term_mentions(lhs, qname) or _term_mentions(rhs, qname)
    return False


def erase_q(t: TypeAst) -> TypeAst:
    """Unit erasure: replace every occurrence of Q by the unit type."""
    match t:
        case QRef(_):
            return ConstT("Unit")
        case Pi(b, dom, cod):
            return Pi(b, erase_q(dom), erase_q(cod))
        case Sigma(b, left, right):
            return Sigma(b, erase_q(left), erase_q(right))
    return t


def _uses_var(t: TypeAst, name: str) -> bool:
    match t:
        case QRef(None):
            return False
        case QRef(ix):
            return _term_mentions(ix, name)
        case ConstT(_, args):
            return any(_term_mentions(a, name) for a in args)
        case Pi(b, dom, cod):
            return _uses_var(dom, name) or (b != name and _uses_var(cod, name))
        case Sigma(b, left, right):
            return _uses_var(left, name) or (b != name and _uses_var(right, name))
        case EqT(lhs, rhs):
            return _term_mentions(lhs, name) or _term_mentions(rhs, name)
    return False


def _scope_check(t: TypeAst, env: Env, decl: QitDecl, rule: str) -> None:
    # every term variable inside a type must be bound by an earlier argument
    def chk_term(u: TermAst, bound: frozenset[str]) -> None:
        match u:
            case TVar(n):
                if n not in bound and decl.element(n) is None and _fin_owner(decl, n) is None:
                    raise _Fail(rule, f"unknown name {n} in {show_type(t)}")
            case TApp(_, args):
                for a in args:
                    chk_term(a, bound)

    def walk(u: TypeAst, bound: frozenset[str]) -> None:
        match u:
            case QRef(None):
                pass
            case QRef(ix):
                chk_term(ix, bound)
            case ConstT(_, args):
                for a in args:
                    chk_term(a, bound)
            case Pi(b, dom, cod) | Sigma(b, dom, cod):
                walk(dom, bound)
                walk(cod, bound if b == "_" else bound | {b})
            case EqT(lhs, rhs):
                chk_term(lhs, bound)
                chk_term(rhs, bound)

    walk(t, frozenset(env))


def _fin_owner(decl: QitDecl, name: str):
    from .ast import FinParam

    for p in decl.params:
        if isinstance(p.kind, FinParam) and name in p.kind.values:
            return p
    return None


# --- term typing (equation endpoints and Q indices) ---


def _norm_term(t: TermAst) -> TermAst:
    match t:
        case TApp("suc", (arg,)):
            inner = _norm_term(arg)
            if isinstance(inner, TNum):
                return TNum(inner.value + 1)
            return TApp("suc", (inner,))
        case TApp(head, args):
            return TApp(head, tuple(_norm_term(a) for a in args))
    return t


def _norm_type(t: TypeAst) -> TypeAst:
    match t:
        case QRef(None):
            return t
        case QRef(ix):
            return QRef(_norm_term(ix))
        case ConstT(name, args):
            return ConstT(name, tuple(_norm_term(a) for a in args))
        case Pi(b, dom, cod):
            return Pi(b, _norm_type(dom), _norm_type(cod))
        case Sigma(b, left, right):
            return Sigma(b, _norm_type(left), _norm_type(right))
        case EqT(lhs, rhs):
            return EqT(_norm_term(lhs), _norm_term(rhs))
    return t


def _type_eq(a: TypeAst, b: TypeAst) -> bool:
    return a == b or _norm_type(a) == _norm_type(b)


def _subst_term(t: TermAst, name: str, value: TermAst) -> TermAst:
    match t:
        case TVar(n):
            return value if n == name else t
        case TApp(head, args):
            return TApp(head, tuple(_subst_term(a, name, value) for a in args))
    return t


def _subst_type(t: TypeAst, name: str, value: TermAst) -> TypeAst:
    match t:
        case QRef(None):
            return t
        case QRef(ix):
            return QRef(_subst_term(ix, name, value))
        case ConstT(cname, args):
            return ConstT(cname, tuple(_subst_term(a, name, value) for a in args))
        case Pi(b, dom, cod):
            return Pi(b, _subst_type(dom, name, value), cod if b == name else _subst_type(cod, name, value))
        case Sigma(b, left, right):
            return Sigma(b, _subst_type(left, name, value), right if b == name else _subst_type(right, name, value))
        case EqT(lhs, rhs):
            return EqT(_subst_term(lhs, name, value), _subst_term(rhs, name, value))
    return t


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


def check_strictly_positive(
    t: TypeAst, decl: QitDecl, env: Optional[Env] = None, position: tuple[int, int] = (0, 0)
) -> Judgement:
    try:
        return Accept(_strpstv(t, decl, dict(env or {})))
    except _Fail as f:
        return Reject(f.rule, position, f.message)


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


@dataclass(frozen=True)
class DeclReport:
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

    def judgement(self, name: str) -> Judgement:
        for n, j in self.element + self.equality:
            if n == name:
                return j
        raise KeyError(name)


def check_decl(decl: QitDecl) -> DeclReport:
    pnames = [p.name for p in decl.params]
    if len(set(pnames)) != len(pnames):
        raise NameClash(f"duplicate parameter name in {decl.name}")
    element = tuple((c.name, check_element_ctor(c, decl)) for c in decl.element_ctors)
    equality = tuple((c.name, check_equality_ctor(c, decl)) for c in decl.equality_ctors)
    return DeclReport(decl, element, equality)


# --- derivation replay ---


def rule_sequence(d: Derivation) -> tuple[str, ...]:
    """Rule names of the displayed nodes, premises first."""
    out: list[str] = []

    def walk(n: Derivation) -> None:
        for p in n.premises:
            walk(p)
        if n.displayed:
            out.append(n.rule)

    walk(d)
    return tuple(out)


_STR = "S"
_ELT = "E"
_EQN = "Q"

_RULE_CLASS = {
    "ConstantParameter": _STR,
    "InductiveArgument": _STR,
    "StrictlyPositiveFunction": _STR,
    "StrictlyPositiveProduct": _STR,
    "Target": _ELT,
    "ElArgument": _ELT,
    "ElCon": _ELT,
    "EqTarget": _EQN,
    "EqArg": _EQN,
    "EqCon": _EQN,
}

_PREMISE_SHAPE = {
    "ConstantParameter": (),
    "InductiveArgument": (),
    "StrictlyPositiveFunction": (_STR,),
    "StrictlyPositiveProduct": (_STR, _STR),
    "Target": (),
    "ElArgument": (_STR, _ELT),
    "ElCon": (_ELT,),
    "EqTarget": (),
    "EqArg": (_STR, _EQN),
    "EqCon": (_EQN,),
}


def _validate_tree(d: Derivation) -> None:
    if d.rule not in _RULE_CLASS:
        raise QitError(f"unknown rule {d.rule}")
    shape = _PREMISE_SHAPE[d.rule]
    if len(d.premises) != len(shape):
        raise QitError(f"{d.rule} expects {len(shape)} premises, found {len(d.premises)}")
    for want, p in zip(shape, d.premises):
        if _RULE_CLASS[p.rule] != want:
            raise QitError(f"{d.rule} premise {p.rule} is in the wrong rule family")
        _validate_tree(p)


def replay(decl: QitDecl, report: DeclReport) -> bool:
    """Re-run the checker and confirm the recorded derivations survive.

    Every recorded Accept must be a well-formed tree under the rule
    grammar (malformed trees raise), and re-checking the declaration
    must reproduce the report exactly.
    """
    for _, j in report.element + report.equality:
        if isinstance(j, Accept):
            _validate_tree(j.derivation)
    return check_decl(decl) == report
