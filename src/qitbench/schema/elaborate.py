"""Declarations to signatures and equational systems.

Set parameters are materialized at a finite carrier: every assignment
of constant arguments yields one operator, tagged with the chosen
values, and every assignment of an equality constructor's parameters
yields one named equation.  Nat-indexed declarations materialize over
an index prefix 0..prefix; function arguments out of Nat stay symbolic
(countable arities, comprehension children, index maps).

symbolic_table renders the signature and equation data of a checked
declaration without materializing anything, as one line per component:
A and B from the element constructors, E, V, l, r from the equality
constructors.
"""

from __future__ import annotations

import itertools
from typing import Mapping, NamedTuple, Optional, Sequence, Union

from ..errors import QitError, UnsupportedParameterType
from ..records import tagged
from ..terms import (
    NAT,
    Arity,
    Comp,
    Equation,
    IndexExpr,
    IndexMap,
    IndexedOpDecl,
    IndexedSignature,
    IxApp,
    IxV,
    IxVar,
    Node,
    OpDecl,
    OpSym,
    Signature,
    SystemOfEquations,
    Tab,
    Term,
    Var,
    fin,
    validate_system,
)
from .ast import (
    ConstT,
    Ctor,
    EqT,
    FamilyParam,
    FinParam,
    NatParam,
    Pi,
    QRef,
    QitDecl,
    SetParam,
    TApp,
    TNum,
    TVar,
    TermAst,
    TypeAst,
    show_term_ast,
    show_type,
)
from .checker import _fin_owner, _subst_term, _term_mentions, _uses_var, check_decl

DEFAULT_BIJECTIONS = (IndexMap("id"), IndexMap("tr01", ((0, 1), (1, 0))))

_NAT = ConstT("Nat")


@tagged
class _Arg(NamedTuple):
    binder: str
    dom: TypeAst
    kind: str  # const | index | q | natfam | map | erased


class _SkipInstance(Exception):
    """Index assignment falls outside the materialized prefix."""


def _spine(t: TypeAst) -> tuple[tuple[tuple[str, TypeAst], ...], TypeAst]:
    args: list[tuple[str, TypeAst]] = []
    while isinstance(t, Pi):
        args.append((t.binder, t.domain))
        t = t.codomain
    return tuple(args), t


def _carrier_values(dom: TypeAst, decl: QitDecl, carriers: Mapping[str, tuple[str, ...]]):
    if not (isinstance(dom, ConstT) and not dom.args):
        return None
    p = decl.param(dom.name)
    if p is None:
        return None
    if isinstance(p.kind, FinParam):
        return p.kind.values
    if isinstance(p.kind, SetParam):
        return carriers.get(p.name)
    return None


def _classify(binder: str, dom: TypeAst, decl: QitDecl) -> _Arg:
    indexed = decl.index_sort is not None
    if isinstance(dom, QRef):
        return _Arg(binder, dom, "q")
    if isinstance(dom, Pi) and dom.domain == _NAT and isinstance(dom.codomain, QRef):
        return _Arg(binder, dom, "natfam")
    if isinstance(dom, Pi) and dom.domain == _NAT and dom.codomain == _NAT:
        return _Arg(binder, dom, "map")
    if dom == _NAT and indexed:
        return _Arg(binder, dom, "index")
    return _Arg(binder, dom, "const")


def _ixval(t: TermAst, ienv: Mapping[str, int]) -> int:
    # isinstance tests: a class pattern costs several times as much, and
    # this runs at every index of every constructor application
    if isinstance(t, TVar):
        if t.name in ienv:
            return ienv[t.name]
        raise UnsupportedParameterType(f"index expression uses unknown name {t.name}")
    if isinstance(t, TNum):
        return t.value
    if isinstance(t, TApp) and t.head == "suc" and len(t.args) == 1:
        return 1 + _ixval(t.args[0], ienv)
    raise UnsupportedParameterType(f"cannot evaluate index expression {t!r}")


def _check_params(decl: QitDecl, carriers: Mapping[str, tuple[str, ...]]) -> None:
    for p in decl.params:
        if isinstance(p.kind, FamilyParam):
            raise UnsupportedParameterType(
                f"parameter {p.name} is a type family ({p.kind.desc}); build its encoding directly"
            )
        if isinstance(p.kind, NatParam):
            raise UnsupportedParameterType(f"parameter {p.name} : Nat has no finite carrier")
        if isinstance(p.kind, SetParam) and p.name not in carriers:
            raise UnsupportedParameterType(f"parameter {p.name} : Set needs a carrier")


def elaborate(
    decl: QitDecl,
    carriers: Optional[Mapping[str, Sequence[str]]] = None,
    *,
    prefix: Optional[int] = None,
) -> tuple[Union[Signature, IndexedSignature], SystemOfEquations]:
    report = check_decl(decl)
    if not report.ok:
        name, reject = report.first_reject()
        raise QitError(f"{decl.name}.{name} violates {reject.rule}: {reject.message}")
    carrier_map = {k: tuple(v) for k, v in (carriers or {}).items()}
    _check_params(decl, carrier_map)

    indexed = decl.index_sort is not None
    pfx = (2 if prefix is None else prefix) if indexed else 0
    if indexed and pfx < 0:
        raise QitError("index prefix must be at least 0")

    # each element constructor's classified spine, read by the ops and
    # by every constructor application in an equation endpoint
    spines: dict[str, tuple[tuple[_Arg, ...], QRef]] = {}
    ops: list = []
    for ctor in decl.element_ctors:
        spines[ctor.name] = _element_args(ctor, decl)
        ops.extend(_materialize_ops(ctor, spines[ctor.name], decl, carrier_map, pfx))
    sig: Union[Signature, IndexedSignature]
    if indexed:
        sig = IndexedSignature(tuple(str(i) for i in range(pfx + 1)), tuple(ops))
    else:
        sig = Signature(tuple(ops))

    eqs: list[Equation] = []
    for ctor in decl.equality_ctors:
        eqs.extend(_materialize_eqs(ctor, spines, decl, carrier_map, pfx))
    sys = SystemOfEquations(tuple(eqs))

    flat = sig.flatten() if isinstance(sig, IndexedSignature) else sig
    validate_system(flat, sys)
    return sig, sys


def _element_args(ctor: Ctor, decl: QitDecl) -> tuple[tuple[_Arg, ...], QRef]:
    raw, target = _spine(ctor.type)
    args = tuple(_classify(b, d, decl) for b, d in raw)
    for a in args:
        if a.kind == "map":
            raise UnsupportedParameterType(f"{ctor.name}.{a.binder}: map arguments only occur in equations")
    return args, target


def _materialize_ops(ctor, spine, decl, carriers, pfx):
    args, target = spine
    indexed = decl.index_sort is not None

    consts = [a for a in args if a.kind == "const"]
    pools = []
    for a in consts:
        values = _carrier_values(a.dom, decl, carriers)
        if values is None:
            raise UnsupportedParameterType(
                f"{ctor.name}.{a.binder} : {show_type(a.dom)} cannot be enumerated"
            )
        pools.append(values)
    children = [a for a in args if a.kind in ("q", "natfam")]
    ivars = [a.binder for a in args if a.kind == "index"]

    out = []
    for ivals in itertools.product(range(pfx + 1), repeat=len(ivars)):
        ienv = dict(zip(ivars, ivals))
        try:
            tix = _ixval(target.index, ienv) if indexed else None
            if indexed and not 0 <= tix <= pfx:
                raise _SkipInstance
            arities = []
            for c in children:
                if c.kind == "q":
                    cix = _ixval(c.dom.index, ienv) if indexed else None
                    if indexed and not 0 <= cix <= pfx:
                        raise _SkipInstance
                    arities.append((cix, fin(1)))
                else:
                    fam_ix = c.dom.codomain.index
                    cix = _ixval(fam_ix, ienv) if indexed else None
                    if indexed and not 0 <= cix <= pfx:
                        raise _SkipInstance
                    arities.append((cix, NAT))
        except _SkipInstance:
            continue
        for combo in itertools.product(*pools):
            params = tuple(combo)
            if indexed:
                op = OpSym(ctor.name, params + (f"@{tix}",))
                out.append(IndexedOpDecl(op, str(tix), tuple((str(i), a) for i, a in arities)))
            else:
                op = OpSym(ctor.name, params)
                out.append(OpDecl(op, _flat_arity(ctor, arities)))
    return out


def _flat_arity(ctor, arities) -> Arity:
    if any(a is NAT for _, a in arities):
        if len(arities) != 1:
            raise UnsupportedParameterType(
                f"{ctor.name}: a countable child family cannot mix with other recursive arguments"
            )
        return NAT
    return fin(len(arities))


def _materialize_eqs(ctor, spines, decl, carriers, pfx):
    raw, target = _spine(ctor.type)
    if not isinstance(target, EqT):
        raise QitError(f"{ctor.name} is not an equality constructor")
    args = [_classify(b, d, decl) for b, d in raw]
    indexed = decl.index_sort is not None

    # arguments that cannot be enumerated are dropped when the endpoints
    # never mention them (proof-like data)
    named: list[tuple[_Arg, tuple]] = []  # enumerable args in order, with pools
    qvars: list[_Arg] = []
    natfams: list[_Arg] = []
    ivars: list[str] = []
    for a in args:
        if a.kind == "q":
            qvars.append(a)
        elif a.kind == "natfam":
            natfams.append(a)
        elif a.kind == "index":
            ivars.append(a.binder)
        elif a.kind == "map":
            named.append((a, DEFAULT_BIJECTIONS))
        else:
            values = _carrier_values(a.dom, decl, carriers)
            if values is not None:
                named.append((a, values))
            elif _term_mentions(target.lhs, a.binder) or _term_mentions(target.rhs, a.binder):
                raise UnsupportedParameterType(
                    f"{ctor.name}.{a.binder} : {show_type(a.dom)} cannot be enumerated"
                )
            # else: erased

    if natfams and (qvars or len(natfams) > 1):
        raise UnsupportedParameterType(
            f"{ctor.name}: a countable variable family cannot mix with other variables"
        )
    eq_vars: Union[tuple[str, ...], Arity]
    eq_vars = NAT if natfams else tuple(a.binder for a in qvars)

    out = []
    for ivals in itertools.product(range(pfx + 1), repeat=len(ivars)):
        ienv = dict(zip(ivars, ivals))
        for combo in itertools.product(*(pool for _, pool in named)):
            env: dict[str, object] = dict(ienv)
            parts = [ctor.name]
            for (a, _), v in zip(named, combo):
                env[a.binder] = v
                parts.append(v.name if isinstance(v, IndexMap) else str(v))
            for a in qvars:
                env[a.binder] = Var(a.binder)
            for a in natfams:
                env[a.binder] = a
            tr = _Translator(decl, spines, env, ienv, pfx, natfams[0].binder if natfams else None)
            try:
                lhs = tr.term(target.lhs)
                rhs = tr.term(target.rhs)
            except _SkipInstance:
                continue
            if indexed:
                sort = tr.sort_of(lhs, qvars, ienv)
                parts.append(f"@{sort}")
                var_sorts = tuple(str(_ixval(a.dom.index, ienv)) for a in qvars)
                out.append(Equation(" ".join(parts), eq_vars, lhs, rhs, var_sorts=var_sorts, sort=sort))
            else:
                out.append(Equation(" ".join(parts), eq_vars, lhs, rhs))
    return out


class _Translator:
    """Endpoint terms to free-monad terms under one assignment."""

    def __init__(self, decl, spines, env, ienv, pfx, fam_binder):
        self.decl = decl
        self.spines = spines
        self.env = env
        self.ienv = ienv
        self.pfx = pfx
        self.fam_binder = fam_binder
        self.indexed = decl.index_sort is not None

    def term(self, t: TermAst) -> Term:
        if isinstance(t, TVar):
            v = self.env.get(t.name)
            if isinstance(v, Var):
                return v
            if t.name in self.spines:
                return self.apply(t.name, ())
            raise QitError(f"cannot translate endpoint variable {t.name}")
        if isinstance(t, TApp):
            if t.head in self.spines:
                return self.apply(t.head, t.args)
            raise QitError(f"cannot translate application of {t.head}")
        raise QitError(f"cannot translate endpoint {t!r}")

    def apply(self, cname: str, given: tuple[TermAst, ...]) -> Node:
        cargs, ctarget = self.spines[cname]
        if len(given) != len(cargs):
            raise QitError(f"{cname} expects {len(cargs)} arguments, got {len(given)}")
        params: list[str] = []
        children: list[Term] = []
        fam: Optional[Comp] = None
        local_ix: dict[str, int] = {}
        for a, g in zip(cargs, given):
            if a.kind == "const":
                params.append(self.const_value(g))
            elif a.kind == "index":
                local_ix[a.binder] = _ixval(g, self.ienv)
            elif a.kind == "q":
                children.append(self.term(g))
            else:
                fam = Comp("n", IxVar(self.fam_expr(g, IxV("n"))))
        if self.indexed:
            tix = _ixval(ctarget.index, local_ix)
            if not 0 <= tix <= self.pfx:
                raise _SkipInstance
            op = OpSym(cname, tuple(params) + (f"@{tix}",))
        else:
            op = OpSym(cname, tuple(params))
        return Node(op, fam if fam is not None else Tab(tuple(children)))

    def const_value(self, g: TermAst) -> str:
        if isinstance(g, TVar):
            v = self.env.get(g.name)
            if isinstance(v, str):
                return v
            if _fin_owner(self.decl, g.name) is not None:
                return g.name
        raise QitError(f"cannot resolve constant argument {g!r}")

    def fam_expr(self, g: TermAst, inner: IndexExpr) -> IndexExpr:
        match g:
            case TVar(name) if name == self.fam_binder:
                return inner
            case TApp("comp", (f, m)):
                if isinstance(m, TVar) and isinstance(self.env.get(m.name), IndexMap):
                    return self.fam_expr(f, IxApp(self.env[m.name].name, inner))
        raise QitError(f"cannot translate child family {g!r}")

    def sort_of(self, lhs: Term, qvars, ienv) -> str:
        if isinstance(lhs, Node):
            return lhs.op.params[-1].lstrip("@")
        if isinstance(lhs, Var):
            for a in qvars:
                if a.binder == lhs.name:
                    return str(_ixval(a.dom.index, ienv))
        raise QitError("cannot determine the index of an equation endpoint")


# --- symbolic tables ---


@tagged
class SymbolicQW(NamedTuple):
    """One line per component of a signature and equation system."""

    name: str
    lines: tuple[str, ...]

    def render(self) -> str:
        return "\n".join(self.lines) + "\n"


@tagged
class _SymIx(NamedTuple):
    """Index value with a symbolic base: base None means a literal."""

    base: Optional[str]
    offset: int

    def show(self) -> str:
        if self.base is None:
            return str(self.offset)
        if self.offset == 0:
            return self.base
        return f"{self.base}+{self.offset}"


def _sym_ixval(t: TermAst, ienv: Mapping[str, _SymIx]) -> _SymIx:
    match t:
        case TNum(n):
            return _SymIx(None, n)
        case TVar(name) if name in ienv:
            return ienv[name]
        case TApp("suc", (arg,)):
            inner = _sym_ixval(arg, ienv)
            return _SymIx(inner.base, inner.offset + 1)
    raise QitError(f"cannot render index expression {t!r}")


def symbolic_table(decl: QitDecl) -> SymbolicQW:
    report = check_decl(decl)
    if not report.ok:
        name, reject = report.first_reject()
        raise QitError(f"{decl.name}.{name} violates {reject.rule}: {reject.message}")
    indexed = decl.index_sort is not None
    lines: list[str] = []
    if indexed:
        lines.append("I = Nat")
    lines.extend(_a_b_lines(decl, indexed))
    lines.extend(_e_v_lines(decl, indexed))
    return SymbolicQW(decl.name, tuple(lines))


_BINDER_POOLS = {
    "const": ("x", "y", "z", "u", "v"),
    "map": ("b", "c", "d"),
    "q": ("xs", "ys", "zs", "us", "vs"),
    "natfam": ("f", "g", "h"),
    "index": ("i", "j", "k"),
    "erased": ("p", "q", "r"),
}


def _resolve_binders(args) -> tuple[_Arg, ...]:
    """Give anonymous binders deterministic display names."""
    args = tuple(args)
    used = {a.binder for a in args if a.binder != "_"}
    out = []
    for a in args:
        if a.binder != "_":
            out.append(a)
            continue
        pool = _BINDER_POOLS[a.kind]
        name = next((n for n in pool if n not in used), None)
        if name is None:
            i = 1
            while f"{pool[0]}{i}" in used:
                i += 1
            name = f"{pool[0]}{i}"
        used.add(name)
        out.append(_Arg(name, a.dom, a.kind))
    return tuple(out)


def _ctor_sym(ctor: Ctor, decl: QitDecl):
    raw, target = _spine(ctor.type)
    args = _resolve_binders(_classify(b, d, decl) for b, d in raw)
    ienv = {a.binder: _SymIx(a.binder, 0) for a in args if a.kind == "index"}
    return args, target, ienv


def _const_product(parts: list[str]) -> str:
    return " * ".join(parts) if parts else "1"


def _a_b_lines(decl: QitDecl, indexed: bool) -> list[str]:
    a_lines: list[str] = []
    b_lines: list[str] = []
    summands: list[str] = []
    many = len(decl.element_ctors) > 1
    for pos, ctor in enumerate(decl.element_ctors, start=1):
        args, target, ienv = _ctor_sym(ctor, decl)
        consts = [a for a in args if a.kind == "const"]
        children = [a for a in args if a.kind in ("q", "natfam")]
        summand = _const_product([show_type(a.dom) for a in consts])
        pat = " ".join(a.binder for a in consts) or "0"
        if indexed:
            tpat = _sym_ixval(target.index, ienv).show()
            a_lines.append(f"A[{tpat}] = {summand}")
            b_lines.append(f"B[{tpat}]({pat})(j) = {_child_set(children, ienv, guard=True)}")
        else:
            summands.append(summand)
            label = f"i{pos} {pat}" if many else pat
            b_lines.append(f"B({label}) = {_child_set(children, ienv, guard=False)}")
    if not indexed:
        a_lines.append(f"A = {' + '.join(summands)}")
    return a_lines + b_lines


def _child_set(children, ienv, *, guard: bool) -> str:
    if not children:
        return "0"
    parts = []
    for c in children:
        if c.kind == "natfam":
            parts.append("Nat")
        elif guard:
            cix = _sym_ixval(c.dom.index, ienv).show()
            parts.append(f"({cix} = j)")
        else:
            parts.append("1")
    if not guard and all(p == "1" for p in parts):
        return str(len(parts))
    return " + ".join(parts)


def _e_v_lines(decl: QitDecl, indexed: bool) -> list[str]:
    e_lines: list[str] = []
    v_lines: list[str] = []
    lr_lines: list[str] = []
    for ctor in decl.equality_ctors:
        args, target, ienv = _ctor_sym(ctor, decl)
        data = [a for a in args if a.kind not in ("q", "natfam", "index")]
        qvars = [a for a in args if a.kind == "q"]
        natfams = [a for a in args if a.kind == "natfam"]
        parts = []
        for a in data:
            pos = args.index(a)
            referenced = any(_uses_var(b.dom, a.binder) for b in args[pos + 1 :])
            parts.append(f"({a.binder} : {show_type(a.dom)})" if referenced else _e_atom(a.dom))
        label = ",".join(a.binder for a in data)
        if indexed:
            tpat = _sym_ixval(_endpoint_index(target, decl, args), ienv).show()
            e_lines.extend(_zero_lines("E", tpat))
            e_lines.append(f"E[{tpat}] = {_const_product(parts)}")
            guards = [f"({_sym_ixval(a.dom.index, ienv).show()} = j)" for a in qvars]
            v_lines.append(f"V[{tpat}]({label})(j) = {' + '.join(guards)}")
            lr_lines.append(f"l[{tpat}]({label}) = {_sym_endpoint(target.lhs, decl, args, ienv, indexed)}")
            lr_lines.append(f"r[{tpat}]({label}) = {_sym_endpoint(target.rhs, decl, args, ienv, indexed)}")
        else:
            e_lines.append(f"E = {_const_product(parts)}")
            value = "Nat" if natfams else str(len(qvars))
            v_lines.append(f"V({label}) = {value}")
            lr_lines.append(f"l({label}) = {_sym_endpoint(target.lhs, decl, args, ienv, indexed)}")
            lr_lines.append(f"r({label}) = {_sym_endpoint(target.rhs, decl, args, ienv, indexed)}")
    return e_lines + v_lines + lr_lines


def _e_atom(dom: TypeAst) -> str:
    s = show_type(dom)
    return f"({s})" if isinstance(dom, (Pi, EqT)) else s


def _zero_lines(head: str, tpat: str) -> list[str]:
    if "+" not in tpat:
        return []
    offset = int(tpat.rsplit("+", 1)[1])
    return [f"{head}[{k}] = 0" for k in range(offset)]


def _endpoint_index(target: EqT, decl: QitDecl, args) -> TermAst:
    # the common index of both endpoints: read it off the left endpoint
    t = target.lhs
    while isinstance(t, TApp):
        ctor = decl.element(t.head)
        if ctor is None:
            raise QitError(f"cannot determine the endpoint index of {t!r}")
        cargs, ctarget = _element_args(ctor, decl)
        sub = {}
        for a, g in zip(cargs, t.args):
            if a.kind == "index":
                sub[a.binder] = g
        out = ctarget.index
        for name, g in sub.items():
            out = _subst_term(out, name, g)
        return out
    raise QitError("cannot determine the endpoint index")


def _sym_endpoint(t: TermAst, decl: QitDecl, args, ienv, indexed: bool) -> str:
    return _SymEndpoint(decl, args, ienv, indexed).go(t)


class _SymEndpoint:
    """Renders an endpoint as a sigma/eta term.  Methods, not nested
    functions: recursive closures are reference cycles, which every
    examples command would leave to the cyclic collector."""

    def __init__(self, decl: QitDecl, args, ienv, indexed: bool):
        self.decl, self.args, self.ienv, self.indexed = decl, args, ienv, indexed
        self.qpos = {a.binder: k for k, a in enumerate(a for a in args if a.kind == "q")}
        self.fams = {a.binder for a in args if a.kind == "natfam"}
        self.mapargs = {a.binder for a in args if a.kind == "map"}

    def fam_chain(self, u: TermAst) -> str:
        match u:
            case TVar(name) if name in self.fams:
                return "eta"
            case TApp("comp", (f, TVar(m))) if m in self.mapargs:
                return f"{self.fam_chain(f)} . {m}"
        raise QitError(f"cannot render child family {u!r}")

    def go(self, u: TermAst) -> str:
        decl = self.decl
        match u:
            case TVar(name) if name in self.qpos:
                if self.indexed:
                    ix = next(a for a in self.args if a.binder == name)
                    return f"eta[{_sym_ixval(ix.dom.index, self.ienv).show()}] refl"
                return f"eta {self.qpos[name]}"
            case TVar(name) if decl.element(name) is not None:
                return self.apply(name, ())
            case TApp(head, sub) if decl.element(head) is not None:
                return self.apply(head, sub)
        raise QitError(f"cannot render endpoint {u!r}")

    def apply(self, cname: str, given: tuple[TermAst, ...]) -> str:
        decl, indexed = self.decl, self.indexed
        ctor = decl.element(cname)
        cargs, ctarget = _element_args(ctor, decl)
        many = len(decl.element_ctors) > 1
        pos = next(k for k, c in enumerate(decl.element_ctors, start=1) if c.name == cname)
        consts: list[str] = []
        children: list[str] = []
        local: dict[str, TermAst] = {}
        for a, g in zip(cargs, given):
            if a.kind == "const":
                consts.append(show_term_ast(g))
            elif a.kind == "index":
                local[a.binder] = g
            elif a.kind == "q":
                child = self.go(g)
                children.append(f"\\_. \\refl. {child}" if indexed else f"\\_. {child}")
            else:
                children.append(self.fam_chain(g))
        if indexed:
            tix = ctarget.index
            for name, g in local.items():
                tix = _subst_term(tix, name, g)
            head = f"sigma[{_sym_ixval(tix, self.ienv).show()}]"
            avals = " ".join(consts) or "0"
        else:
            head = "sigma"
            avals = (f"i{pos} " if many else "") + (" ".join(consts) or "0")
        table = children[0] if len(children) == 1 else "!" if not children else "[" + ", ".join(children) + "]"
        return f"{head}({avals}, {table})"
