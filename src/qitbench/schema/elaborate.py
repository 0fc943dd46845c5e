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

elaborate, symbolic_table and eliminator.derive_eliminator read the
constructors through four readers, so each question about them has one
answer:

* ``_read_checked``, the checked reader, runs check_decl once and
  refuses a rejected declaration; it classifies every constructor's
  arguments once and refuses a map argument in an element constructor.
  All three products start from its reading, so they refuse alike.
* ``_application`` reads a bare constructor name or an application as
  the constructor's spine and the given arguments.
* ``_endpoint_ix`` reads the index of an endpoint: a recursive
  variable's declared index, or the constructor's target index under
  the application's index arguments.  It evaluates with ``_ixval``,
  which returns ints and runs on every elaboration, or with
  ``_sym_ixval``, which returns symbolic indices for the tables.
* ``_family_chain`` reads ``comp (... (comp f b1) ...) bk`` as
  ``(f, (b1, ..., bk))``.
"""

from __future__ import annotations

import itertools
from typing import Mapping, NamedTuple, Optional, Sequence, Union

from ..errors import InfinitaryArity, QitError, UnsupportedParameterType
from ..records import tagged
from ..terms import (
    NAT,
    Arity,
    Comp,
    Equation,
    IndexExpr,
    IndexMap,
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
from .checker import _fin_owner, _uses_var, check_decl

DEFAULT_BIJECTIONS = (IndexMap("id"), IndexMap("tr01", ((0, 1), (1, 0))))

_NAT = ConstT("Nat")


@tagged
class _Arg(NamedTuple):
    binder: str
    dom: TypeAst
    kind: str  # const | index | q | natfam | map


# a constructor's classified arguments and its target
_Spine = tuple[tuple[_Arg, ...], TypeAst]


class _SkipInstance(Exception):
    """Index assignment falls outside the materialized prefix."""


# --- the readers ---


def _read_checked(decl: QitDecl) -> tuple[dict[str, _Spine], dict[str, _Spine]]:
    """The spines of the element and of the equality constructors, by
    name in declaration order; refuses what check_decl rejects and a map
    argument in an element constructor."""
    report = check_decl(decl)
    if not report.ok:
        name, reject = report.first_reject()
        raise QitError(f"{decl.name}.{name} violates {reject.rule}: {reject.message}")
    indexed = decl.index_sort is not None
    elements: dict[str, _Spine] = {}
    equalities: dict[str, _Spine] = {}
    for ctors, spines in ((decl.element_ctors, elements), (decl.equality_ctors, equalities)):
        for ctor in ctors:
            args, t = [], ctor.type
            while isinstance(t, Pi):
                binder, dom, t = t
                if isinstance(dom, QRef):
                    kind = "q"
                elif isinstance(dom, Pi) and dom.domain == _NAT and isinstance(dom.codomain, QRef):
                    kind = "natfam"
                elif isinstance(dom, Pi) and dom.domain == _NAT and dom.codomain == _NAT:
                    if spines is elements:
                        raise UnsupportedParameterType(f"{ctor.name}.{binder}: map arguments only occur in equations")
                    kind = "map"
                elif dom == _NAT and indexed:
                    kind = "index"
                else:
                    kind = "const"
                args.append(_Arg(binder, dom, kind))
            spines[ctor.name] = (tuple(args), t)
    return elements, equalities


def _application(t: TermAst, elements: Mapping[str, _Spine]):
    """(name, arguments, target, given arguments) of the element
    constructor t applies, bare or to arguments; None if it applies none."""
    if isinstance(t, TVar):
        name, given = t.name, ()
    elif isinstance(t, TApp):
        name, given = t.head, t.args
    else:
        return None
    spine = elements.get(name)
    return None if spine is None else (name, spine[0], spine[1], given)


def _endpoint_ix(t: TermAst, app, qargs: Mapping[str, _Arg], ixval, ienv):
    """The index of endpoint t under ienv: the declared index of a
    recursive variable in qargs, or else the target index of the
    constructor t applies, under its index arguments; app is t's
    application as _application reads it."""
    a = qargs.get(t.name) if isinstance(t, TVar) else None
    if a is not None:
        return ixval(a.dom.index, ienv)
    if app is None:
        raise QitError(f"cannot determine the index of endpoint {t!r}")
    _, args, target, given = app
    local = {}
    for a, g in zip(args, given):
        if a.kind == "index":
            local[a.binder] = ixval(g, ienv)
    return ixval(target.index, local)


def _family_chain(g: TermAst, kinds: Mapping[str, str]) -> Optional[tuple[str, tuple[str, ...]]]:
    """comp (... (comp f b1) ...) bk as (f, (b1, ..., bk)), where kinds
    makes f a countable family and each bi a map; None for any other g."""
    maps: list[str] = []
    while isinstance(g, TApp) and g.head == "comp" and len(g.args) == 2:
        g, m = g.args
        if not (isinstance(m, TVar) and kinds.get(m.name) == "map"):
            return None
        maps.append(m.name)
    if isinstance(g, TVar) and kinds.get(g.name) == "natfam":
        return g.name, tuple(reversed(maps))
    return None


# --- elaboration ---


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
) -> tuple[Signature, SystemOfEquations]:
    elements, equalities = _read_checked(decl)
    carrier_map = {k: tuple(v) for k, v in (carriers or {}).items()}
    _check_params(decl, carrier_map)

    indexed = decl.index_sort is not None
    pfx = (2 if prefix is None else prefix) if indexed else 0
    if indexed and pfx < 0:
        raise QitError("index prefix must be at least 0")

    ops: list = []
    for name, spine in elements.items():
        ops.extend(_materialize_ops(name, spine, decl, carrier_map, pfx))

    eqs: list[Equation] = []
    for name, spine in equalities.items():
        eqs.extend(_materialize_eqs(name, spine, elements, decl, carrier_map, pfx))
    sys = SystemOfEquations(tuple(eqs))

    # an indexed countable child family is refused once the equations are
    # built, so a refusal from an equality constructor comes first
    for d in ops:
        if isinstance(d, InfinitaryArity):
            raise d
    sig = Signature(tuple(ops), tuple(str(i) for i in range(pfx + 1)) if indexed else None)
    validate_system(sig, sys)
    return sig, sys


def _materialize_ops(name, spine, decl, carriers, pfx):
    args, target = spine
    indexed = decl.index_sort is not None

    consts = [a for a in args if a.kind == "const"]
    pools = []
    for a in consts:
        values = _carrier_values(a.dom, decl, carriers)
        if values is None:
            raise UnsupportedParameterType(
                f"{name}.{a.binder} : {show_type(a.dom)} cannot be enumerated"
            )
        pools.append(values)
    children = [a for a in args if a.kind in ("q", "natfam")]
    ivars = [a.binder for a in args if a.kind == "index"]

    if not indexed:
        return [OpDecl(OpSym(name, tuple(combo)), _flat_arity(name, children))
                for combo in itertools.product(*pools)]
    # an operator per in-prefix index assignment and constant assignment;
    # a countable child family stands as the InfinitaryArity that refuses it
    out = []
    for ivals in itertools.product(range(pfx + 1), repeat=len(ivars)):
        ienv = dict(zip(ivars, ivals))
        tix = _ixval(target.index, ienv)
        cixs = [_ixval((c.dom if c.kind == "q" else c.dom.codomain).index, ienv) for c in children]
        if not (0 <= tix <= pfx and all(0 <= cix <= pfx for cix in cixs)):
            continue
        countable = [cix for c, cix in zip(children, cixs) if c.kind == "natfam"]
        for combo in itertools.product(*pools):
            op = OpSym(name, tuple(combo) + (f"@{tix}",))
            if countable:
                out.append(InfinitaryArity(f"{op.show()} has countable arity at index {min(countable)}"))
            else:
                out.append(OpDecl(op, fin(len(cixs)), str(tix), tuple(map(str, cixs))))
    return out


def _flat_arity(name, children) -> Arity:
    if any(c.kind == "natfam" for c in children):
        if len(children) != 1:
            raise UnsupportedParameterType(
                f"{name}: a countable child family cannot mix with other recursive arguments"
            )
        return NAT
    return fin(len(children))


def _materialize_eqs(name, spine, elements, decl, carriers, pfx):
    args, target = spine
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
            elif _uses_var(target, a.binder):
                raise UnsupportedParameterType(
                    f"{name}.{a.binder} : {show_type(a.dom)} cannot be enumerated"
                )

    if natfams and (qvars or len(natfams) > 1):
        raise UnsupportedParameterType(
            f"{name}: a countable variable family cannot mix with other variables"
        )
    eq_vars: Union[tuple[str, ...], Arity]
    eq_vars = NAT if natfams else tuple(a.binder for a in qvars)

    # each assignment of the enumerated arguments, as the translator's
    # env and the equation's name; the same at every index assignment
    binders = [a.binder for a, _ in named]
    assignments = []
    for combo in itertools.product(*(pool for _, pool in named)):
        env = dict(zip(binders, combo))
        parts = [name]
        for v in combo:
            parts.append(v.name if isinstance(v, IndexMap) else str(v))
        assignments.append((env, " ".join(parts)))
    tr = _Translator(decl, elements, args, pfx)
    out = []
    for ivals in itertools.product(range(pfx + 1), repeat=len(ivars)):
        tr.ienv = ienv = dict(zip(ivars, ivals))
        for env, label in assignments:
            tr.env = env
            try:
                lhs = tr.term(target.lhs)
                rhs = tr.term(target.rhs)
            except _SkipInstance:
                continue
            if indexed:
                # a node carries the index _endpoint_ix gave it as its last parameter
                if isinstance(lhs, Node):
                    sort = lhs.op.params[-1][1:]
                else:
                    sort = str(_endpoint_ix(target.lhs, None, tr.qargs, _ixval, ienv))
                var_sorts = tuple(str(_ixval(a.dom.index, ienv)) for a in qvars)
                out.append(Equation(f"{label} @{sort}", eq_vars, lhs, rhs, var_sorts=var_sorts, sort=sort))
            else:
                out.append(Equation(label, eq_vars, lhs, rhs))
    return out


class _Translator:
    """An equality constructor's endpoint terms to free-monad terms under
    one assignment: env maps its enumerated arguments to their values,
    ienv its index arguments."""

    def __init__(self, decl, elements, args, pfx):
        self.decl, self.elements, self.pfx = decl, elements, pfx
        self.indexed = decl.index_sort is not None
        # each argument's kind; each recursive variable's argument and Var
        self.kinds: dict[str, str] = {}
        self.qargs: dict[str, _Arg] = {}
        self.vars: dict[str, Var] = {}
        for a in args:
            self.kinds[a.binder] = a.kind
            if a.kind == "q":
                self.qargs[a.binder], self.vars[a.binder] = a, Var(a.binder)
        self.env: dict[str, object] = {}
        self.ienv: dict[str, int] = {}

    def term(self, t: TermAst) -> Term:
        v = self.vars.get(t.name) if isinstance(t, TVar) else None
        if v is not None:
            return v
        app = _application(t, self.elements)
        if app is None:
            if isinstance(t, TVar):
                raise QitError(f"cannot translate endpoint variable {t.name}")
            if isinstance(t, TApp):
                raise QitError(f"cannot translate application of {t.head}")
            raise QitError(f"cannot translate endpoint {t!r}")
        name, cargs, _, given = app
        params: list[str] = []
        children: list[Term] = []
        fam: Optional[Comp] = None
        for a, g in zip(cargs, given):
            if a.kind == "const":
                params.append(self.const_value(g))
            elif a.kind == "q":
                children.append(self.term(g))
            elif a.kind == "natfam":
                fam = self.family(g)
        if self.indexed:
            tix = _endpoint_ix(t, app, self.qargs, _ixval, self.ienv)
            if not 0 <= tix <= self.pfx:
                raise _SkipInstance
            params.append(f"@{tix}")
        return Node(OpSym(name, tuple(params)), fam if fam is not None else Tab(tuple(children)))

    def const_value(self, g: TermAst) -> str:
        if isinstance(g, TVar):
            v = self.env.get(g.name)
            if isinstance(v, str):
                return v
            if _fin_owner(self.decl, g.name) is not None:
                return g.name
        raise QitError(f"cannot resolve constant argument {g!r}")

    def family(self, g: TermAst) -> Comp:
        chain = _family_chain(g, self.kinds)
        if chain is None:
            raise QitError(f"cannot translate child family {g!r}")
        ix: IndexExpr = IxV("n")
        for m in reversed(chain[1]):
            ix = IxApp(self.env[m].name, ix)
        return Comp("n", IxVar(ix))


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
    elements, equalities = _read_checked(decl)
    indexed = decl.index_sort is not None
    lines = ["I = Nat"] if indexed else []
    lines.extend(_a_b_lines(elements, indexed))
    lines.extend(_e_v_lines(elements, equalities, indexed))
    return SymbolicQW(decl.name, tuple(lines))


_BINDER_POOLS = {
    "const": ("x", "y", "z", "u", "v"),
    "map": ("b", "c", "d"),
    "q": ("xs", "ys", "zs", "us", "vs"),
    "natfam": ("f", "g", "h"),
    "index": ("i", "j", "k"),
}


def _resolve_binders(args) -> tuple[_Arg, ...]:
    """Give anonymous binders deterministic display names."""
    used = {a.binder for a in args}
    out = []
    for a in args:
        if a.binder == "_":
            pool = _BINDER_POOLS[a.kind]
            fresh = itertools.chain(pool, (f"{pool[0]}{i}" for i in itertools.count(1)))
            a = _Arg(next(n for n in fresh if n not in used), a.dom, a.kind)
            used.add(a.binder)
        out.append(a)
    return tuple(out)


def _sym_ienv(args) -> dict[str, _SymIx]:
    return {a.binder: _SymIx(a.binder, 0) for a in args if a.kind == "index"}


def _const_product(parts: list[str]) -> str:
    return " * ".join(parts) if parts else "1"


def _a_b_lines(elements: Mapping[str, _Spine], indexed: bool) -> list[str]:
    a_lines: list[str] = []
    b_lines: list[str] = []
    summands: list[str] = []
    many = len(elements) > 1
    for pos, (args, target) in enumerate(elements.values(), start=1):
        args = _resolve_binders(args)
        ienv = _sym_ienv(args)
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


def _e_v_lines(elements: Mapping[str, _Spine], equalities: Mapping[str, _Spine], indexed: bool) -> list[str]:
    e_lines: list[str] = []
    v_lines: list[str] = []
    lr_lines: list[str] = []
    for args, target in equalities.values():
        args = _resolve_binders(args)
        data = [a for a in args if a.kind not in ("q", "natfam", "index")]
        qvars = [a for a in args if a.kind == "q"]
        natfams = [a for a in args if a.kind == "natfam"]
        parts = []
        for a in data:
            pos = args.index(a)
            referenced = any(_uses_var(b.dom, a.binder) for b in args[pos + 1 :])
            parts.append(f"({a.binder} : {show_type(a.dom)})" if referenced else _e_atom(a.dom))
        label = ",".join(a.binder for a in data)
        sym = _SymEndpoint(elements, args, indexed)
        if indexed:
            tpat = sym.index(target.lhs, _application(target.lhs, elements))
            e_lines.extend(_zero_lines("E", tpat))
            at, vars_ = f"[{tpat}]", f"(j) = {_child_set(qvars, sym.ienv, guard=True)}"
        else:
            at, vars_ = "", f" = {'Nat' if natfams else len(qvars)}"
        e_lines.append(f"E{at} = {_const_product(parts)}")
        v_lines.append(f"V{at}({label}){vars_}")
        lr_lines.append(f"l{at}({label}) = {sym.go(target.lhs)}")
        lr_lines.append(f"r{at}({label}) = {sym.go(target.rhs)}")
    return e_lines + v_lines + lr_lines


def _e_atom(dom: TypeAst) -> str:
    s = show_type(dom)
    return f"({s})" if isinstance(dom, (Pi, EqT)) else s


def _zero_lines(head: str, tpat: str) -> list[str]:
    if "+" not in tpat:
        return []
    offset = int(tpat.rsplit("+", 1)[1])
    return [f"{head}[{k}] = 0" for k in range(offset)]


class _SymEndpoint:
    """Renders an equality constructor's endpoints as sigma/eta terms.
    Methods, not nested functions: recursive closures are reference
    cycles, which every examples command would leave to the cyclic
    collector."""

    def __init__(self, elements: Mapping[str, _Spine], args, indexed: bool):
        self.elements, self.indexed = elements, indexed
        self.ienv = _sym_ienv(args)
        self.kinds = {a.binder: a.kind for a in args}
        self.qargs = {a.binder: a for a in args if a.kind == "q"}
        self.qpos = {a.binder: k for k, a in enumerate(a for a in args if a.kind == "q")}
        many = len(elements) > 1
        self.labels = {name: f"i{k} " if many else "" for k, name in enumerate(elements, start=1)}

    def index(self, u: TermAst, app) -> str:
        return _endpoint_ix(u, app, self.qargs, _sym_ixval, self.ienv).show()

    def go(self, u: TermAst) -> str:
        if isinstance(u, TVar) and u.name in self.qargs:
            return f"eta[{self.index(u, None)}] refl" if self.indexed else f"eta {self.qpos[u.name]}"
        app = _application(u, self.elements)
        if app is None:
            raise QitError(f"cannot render endpoint {u!r}")
        name, cargs, _, given = app
        consts: list[str] = []
        children: list[str] = []
        for a, g in zip(cargs, given):
            if a.kind == "const":
                consts.append(show_term_ast(g))
            elif a.kind == "q":
                child = self.go(g)
                children.append(f"\\_. \\refl. {child}" if self.indexed else f"\\_. {child}")
            elif a.kind == "natfam":
                chain = _family_chain(g, self.kinds)
                if chain is None:
                    raise QitError(f"cannot render child family {g!r}")
                children.append(" . ".join(["eta", *chain[1]]))
        avals = " ".join(consts) or "0"
        if self.indexed:
            head = f"sigma[{self.index(u, app)}]"
        else:
            head, avals = "sigma", self.labels[name] + avals
        table = children[0] if len(children) == 1 else "!" if not children else "[" + ", ".join(children) + "]"
        return f"{head}({avals}, {table})"
