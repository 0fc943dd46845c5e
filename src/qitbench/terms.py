"""Signatures, terms, and equational systems.

A signature is an ordered list of operator declarations.  Operators are
symbols with a base name plus parameter tags, so a family like ``cons x``
instantiated at carrier elements a, b yields the distinct operators
``cons a`` and ``cons b``.  Arities are finite (FIN n) or countable (NAT);
countable child families are kept symbolic as comprehensions over an
index variable rather than materialized.

Terms form the free monad over the signature: variables are the unit,
operator nodes the free layer, and bind is substitution of behaviours
for variables.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Mapping, Optional, Sequence, Union

from .errors import (
    ArityMismatch,
    InfinitaryArity,
    NameClash,
    UnboundVariable,
    UnknownOp,
)


@dataclass(frozen=True)
class Arity:
    """FIN(n) indexes children by 0..n-1; count None encodes NAT."""

    count: Optional[int]

    def __post_init__(self):
        if self.count is not None and self.count < 0:
            raise ValueError("negative arity")

    @property
    def finite(self) -> bool:
        return self.count is not None

    def __repr__(self) -> str:
        return "NAT" if self.count is None else f"FIN({self.count})"


def fin(n: int) -> Arity:
    return Arity(n)


NAT = Arity(None)


@dataclass(frozen=True, order=True)
class OpSym:
    """Operator symbol: base name plus instantiation parameters."""

    name: str
    params: tuple[str, ...] = ()

    def show(self) -> str:
        return " ".join((self.name,) + self.params)

    @staticmethod
    def parse(text: str) -> "OpSym":
        parts = tuple(text.split())
        if not parts:
            raise ValueError("empty operator name")
        return OpSym(parts[0], parts[1:])


def _op(op: Union[OpSym, str]) -> OpSym:
    return op if isinstance(op, OpSym) else OpSym.parse(op)


@dataclass(frozen=True)
class OpDecl:
    op: OpSym
    arity: Arity
    # Target index and per-child indices for indexed runs; None otherwise.
    sort: Optional[str] = None
    child_sorts: Optional[tuple[str, ...]] = None

    def __post_init__(self):
        if self.child_sorts is not None:
            if not self.arity.finite or len(self.child_sorts) != self.arity.count:
                raise ArityMismatch(f"child sorts of {self.op.show()} do not match arity")


@dataclass(frozen=True)
class Signature:
    ops: tuple[OpDecl, ...]

    def __post_init__(self):
        names = [d.op for d in self.ops]
        if len(set(names)) != len(names):
            raise NameClash("duplicate operator in signature")
        object.__setattr__(self, "_decls", {d.op: (i, d) for i, d in enumerate(self.ops)})

    def _entry(self, op: Union[OpSym, str]) -> tuple[int, OpDecl]:
        """(position, declaration) of op.  A miss names the indexed forms
        of op (its instances at a target index, "nil @0"), if any."""
        op = _op(op)
        entry = self._decls.get(op)
        if entry is None:
            forms = [
                repr(d.op.show())
                for d in self.ops
                if (d.op.name, d.op.params[:-1]) == (op.name, op.params)
                and "".join(d.op.params[-1:]).startswith("@")
            ]
            hint = f"; indexed forms: {', '.join(forms)}" if forms else ""
            raise UnknownOp(f"unknown operator {op.show()!r}{hint}")
        return entry

    def decl(self, op: Union[OpSym, str]) -> OpDecl:
        return self._entry(op)[1]

    def op_index(self, op: Union[OpSym, str]) -> int:
        return self._entry(op)[0]

    def has_op(self, op: Union[OpSym, str]) -> bool:
        return _op(op) in self._decls

    @property
    def sorts(self) -> Optional[tuple[str, ...]]:
        """Target indices in first-appearance order, or None if unsorted."""
        seen: list[str] = []
        for d in self.ops:
            if d.sort is not None and d.sort not in seen:
                seen.append(d.sort)
        return tuple(seen) or None


def signature(ops: Iterable[tuple]) -> Signature:
    """Build a Signature from (name, arity[, sort, child_sorts]) rows.

    Arities may be given as ints (FIN) or the NAT sentinel.
    """
    decls = []
    for row in ops:
        name, arity, rest = row[0], row[1], row[2:]
        if isinstance(arity, int):
            arity = fin(arity)
        sort = rest[0] if len(rest) > 0 else None
        child_sorts = tuple(rest[1]) if len(rest) > 1 and rest[1] is not None else None
        decls.append(OpDecl(_op(name), arity, sort, child_sorts))
    return Signature(tuple(decls))


# --- index expressions (used by comprehensions and indexed signatures) ---


@dataclass(frozen=True)
class IxV:
    name: str


@dataclass(frozen=True)
class IxC:
    n: int


@dataclass(frozen=True)
class IxApp:
    fn: str
    arg: "IndexExpr"


IndexExpr = Union[IxV, IxC, IxApp]


@dataclass(frozen=True)
class IndexMap:
    """A declared total map on naturals: finite exception table, identity
    (or a declared variable shift) beyond it."""

    name: str
    table: tuple[tuple[int, int], ...] = ()

    def apply(self, n: int) -> int:
        for src, dst in self.table:
            if src == n:
                return dst
        return n


def eval_ix(expr: IndexExpr, env: Mapping[str, int], maps: Mapping[str, IndexMap]) -> int:
    match expr:
        case IxC(n):
            return n
        case IxV(name):
            if name not in env:
                raise UnboundVariable(f"unbound index variable {name!r}")
            return env[name]
        case IxApp(fn, arg):
            if fn not in maps:
                raise UnboundVariable(f"unknown index map {fn!r}")
            return maps[fn].apply(eval_ix(arg, env, maps))
    raise TypeError(f"not an index expression: {expr!r}")


# --- terms ---


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class IxVar:
    """A variable of a countable family, named by an index expression.
    Only meaningful under an enclosing comprehension binder."""

    expr: IndexExpr


@dataclass(frozen=True)
class Tab:
    entries: tuple["Term", ...]


@dataclass(frozen=True)
class Comp:
    ivar: str
    body: "Term"


ArityMap = Union[Tab, Comp]


@dataclass(frozen=True)
class Node:
    op: OpSym
    children: ArityMap


Term = Union[Var, IxVar, Node]


def mk_node(sig: Signature, op: Union[OpSym, str], children) -> Node:
    """Checked node construction.

    children: a sequence of terms for FIN operators, or a Comp for NAT.
    Child target indices are validated when both sides declare them.
    """
    decl = sig.decl(op)
    if decl.arity.finite:
        if isinstance(children, Comp):
            raise ArityMismatch(f"{decl.op.show()} takes {decl.arity.count} children, got a comprehension")
        entries = tuple(children.entries if isinstance(children, Tab) else children)
        if len(entries) != decl.arity.count:
            raise ArityMismatch(
                f"{decl.op.show()} takes {decl.arity.count} children, got {len(entries)}"
            )
        if decl.child_sorts is not None:
            for child, want in zip(entries, decl.child_sorts):
                if isinstance(child, Node):
                    got = sig.decl(child.op).sort
                    if got is not None and got != want:
                        raise ArityMismatch(
                            f"{decl.op.show()} wants a child at index {want}, got {got}"
                        )
        return Node(decl.op, Tab(entries))
    if not isinstance(children, Comp):
        raise ArityMismatch(f"{decl.op.show()} has countable arity and needs a comprehension")
    return Node(decl.op, children)


def depth(t: Term) -> int:
    """Var depth 1, nullary node depth 1, node depth 1 + max child."""
    match t:
        case Var(_) | IxVar(_):
            return 1
        case Node(_, Tab(entries)):
            return 1 + max((depth(c) for c in entries), default=0)
        case Node(op, Comp(_, _)):
            raise InfinitaryArity(f"depth undefined under countable operator {op.show()}")
    raise TypeError(f"not a term: {t!r}")


def free_vars(t: Term) -> set[str]:
    match t:
        case Var(name):
            return {name}
        case IxVar(_):
            return set()
        case Node(_, Tab(entries)):
            out: set[str] = set()
            for c in entries:
                out |= free_vars(c)
            return out
        case Node(_, Comp(_, body)):
            return free_vars(body)
    raise TypeError(f"not a term: {t!r}")


def substitute(t: Term, env: Mapping[str, Term], *, partial: bool = False) -> Term:
    """Replace named variables by terms.  Index variables live in their own
    namespace, so comprehension binders cannot capture."""
    match t:
        case Var(name):
            if name in env:
                return env[name]
            if partial:
                return t
            raise UnboundVariable(f"unbound variable {name!r}")
        case IxVar(_):
            return t
        case Node(op, Tab(entries)):
            return Node(op, Tab(tuple(substitute(c, env, partial=partial) for c in entries)))
        case Node(op, Comp(ivar, body)):
            return Node(op, Comp(ivar, substitute(body, env, partial=partial)))
    raise TypeError(f"not a term: {t!r}")


def instantiate_comp(comp: Comp, k: int, maps: Mapping[str, IndexMap] | None = None) -> Term:
    """The k-th child of a comprehension: index variables under the binder
    evaluate to decimal variable names."""
    maps = maps or {}

    def go(t: Term, env: Mapping[str, int]) -> Term:
        match t:
            case Var(_):
                return t
            case IxVar(expr):
                return Var(str(eval_ix(expr, env, maps)))
            case Node(op, Tab(entries)):
                return Node(op, Tab(tuple(go(c, env) for c in entries)))
            case Node(op, Comp(ivar, body)):
                return Node(op, Comp(ivar, t))  # pragma: no cover - nested tabulation unused
        raise TypeError(f"not a term: {t!r}")

    return go(comp.body, {comp.ivar: k})


DEFAULT_SAMPLE_POINTS = tuple(range(9))


def terms_equal(
    a: Term,
    b: Term,
    maps: Mapping[str, IndexMap] | None = None,
    points: Sequence[int] = DEFAULT_SAMPLE_POINTS,
) -> bool:
    """Structural equality; comprehensions compare by instantiation at the
    sample points, which also absorbs index variable renaming."""
    if type(a) is not type(b):
        return False
    match a, b:
        case (Var(x), Var(y)):
            return x == y
        case (IxVar(e1), IxVar(e2)):
            return e1 == e2
        case (Node(op1, ch1), Node(op2, ch2)):
            if op1 != op2:
                return False
            if isinstance(ch1, Tab) and isinstance(ch2, Tab):
                return len(ch1.entries) == len(ch2.entries) and all(
                    terms_equal(x, y, maps, points) for x, y in zip(ch1.entries, ch2.entries)
                )
            if isinstance(ch1, Comp) and isinstance(ch2, Comp):
                return all(
                    terms_equal(instantiate_comp(ch1, k, maps), instantiate_comp(ch2, k, maps), maps, points)
                    for k in points
                )
            return False
    return False


class TermTable:
    """Hash-consed terms over a signature and leaves (name, sort, weight):
    variables at target index sort (None: any) that count at depth
    weight.  Each term has an integer id, and per id the table keeps its
    node -- the leaf's position, or (operator position, child ids) -- and
    its weighted depth; lookup maps every node back to its id.  Ids are
    handed out children first, as terms are reached, so a first
    upto(bound) with want None lists them in id order.  The Term of an
    id is built only when terms is read."""

    def __init__(self, sig: Signature, leaves: Sequence[tuple[str, Optional[str], int]] = ()):
        for d in sig.ops:
            if not d.arity.finite:
                raise InfinitaryArity(f"cannot enumerate under countable operator {d.op.show()}")
        self.sig, self.leaves = sig, tuple(leaves)
        self._op_pos = {d.op: n for n, d in enumerate(sig.ops)}
        self.nodes: list[Union[int, tuple[int, tuple[int, ...]]]] = []
        self.lookup: dict[Union[int, tuple[int, tuple[int, ...]]], int] = {}
        self.depths: list[int] = []
        self._exact: dict[tuple[int, Optional[str]], list[int]] = {}
        self._terms: list[Term] = []

    def upto(self, bound: int, want: Optional[str] = None) -> list[int]:
        """The ids of the terms of weighted depth <= bound at target index
        want (None: every term), in enumerate_terms' order."""
        return [n for d in range(1, bound + 1) for n in self._exactly(d, want)]

    def _exactly(self, d: int, want: Optional[str]) -> list[int]:
        if (d, want) in self._exact:
            return self._exact[(d, want)]

        def fits(sort: Optional[str]) -> bool:
            return want is None or sort is None or sort == want

        depth = self.depths.__getitem__
        found = [k for k, (_, sort, w) in enumerate(self.leaves) if w == d and fits(sort)]
        for op, decl in enumerate(self.sig.ops):
            if fits(decl.sort):
                # a nullary operator has one child tuple, (), of depth 0
                kid_sorts = decl.child_sorts or (None,) * decl.arity.count
                pools = [self.upto(d - 1, s) for s in kid_sorts]
                found += [
                    (op, kids)
                    for kids in itertools.product(*pools)
                    if max(map(depth, kids), default=0) == d - 1
                ]
        for node in found:
            if node not in self.lookup:
                self.lookup[node] = len(self.nodes)
                self.nodes.append(node)
                self.depths.append(d)
        out = self._exact[(d, want)] = [self.lookup[node] for node in found]
        return out

    def find(self, t: Term, env: Mapping[str, int]) -> Optional[int]:
        """The id of t with each variable read as the id env gives it;
        None if the table does not hold it: a variable env does not bind,
        an operator outside the signature, an index variable or a
        comprehension is never held."""
        if isinstance(t, Var):
            return env.get(t.name)
        if not isinstance(t, Node) or not isinstance(t.children, Tab):
            return None
        kids = tuple([self.find(c, env) for c in t.children.entries])
        return self.lookup.get((self._op_pos.get(t.op), kids))

    @property
    def terms(self) -> list[Term]:
        """The Term of each id, materialised on first read."""
        terms, ops = self._terms, self.sig.ops
        for node in self.nodes[len(terms) :]:
            if isinstance(node, int):
                terms.append(Var(self.leaves[node][0]))
            else:
                terms.append(Node(ops[node[0]].op, Tab(tuple(terms[k] for k in node[1]))))
        return terms


def enumerate_terms(
    sig: Signature,
    vars: Union[Sequence[str], Mapping[str, Optional[str]]],
    depth_bound: int,
    *,
    sort: Optional[str] = None,
    var_depths: Optional[Mapping[str, int]] = None,
) -> list[Term]:
    """All terms of depth <= depth_bound, deterministically ordered: the
    terms of a TermTable over vars, materialised.

    Depth d terms list variables first (declaration order), then for each
    operator in declaration order every child tuple whose maximum depth is
    exactly d-1, in lexicographic order.  vars may carry target indices
    (mapping name -> sort) for indexed signatures; var_depths assigns leaf
    weights other than 1.
    """
    rows = vars.items() if isinstance(vars, Mapping) else [(v, None) for v in vars]
    weight = (var_depths or {}).get
    table = TermTable(sig, [(name, vsort, weight(name, 1)) for name, vsort in rows])
    ids = table.upto(depth_bound, sort)
    terms = table.terms
    return [terms[n] for n in ids]


# --- equations ---


@dataclass(frozen=True)
class Equation:
    """lhs = rhs over a variable family.

    vars is a tuple of names (a finite named set) or an Arity: FIN(n)
    means names "0".."n-1", NAT a countable family.  var_sorts, when
    given, assigns each named variable a target index; sort is the index
    the equation itself lives at.
    """

    name: str
    vars: Union[tuple[str, ...], Arity]
    lhs: Term
    rhs: Term
    var_sorts: Optional[tuple[Optional[str], ...]] = None
    sort: Optional[str] = None

    def var_names(self) -> Optional[tuple[str, ...]]:
        """The named variables, or None for a countable family."""
        if isinstance(self.vars, Arity):
            if not self.vars.finite:
                return None
            return tuple(str(i) for i in range(self.vars.count))
        return self.vars

    def sort_of(self, var: str) -> Optional[str]:
        names = self.var_names()
        if names is None or self.var_sorts is None:
            return None
        return self.var_sorts[names.index(var)]


@dataclass(frozen=True)
class InstanceShape:
    """What an equation's instances ask of a depth bound.

    skeleton is max(depth(lhs), depth(rhs)) with variables at depth 1;
    deepest[k] is the deepest position (root = 1) of variable names[k]
    on either side, 0 when it occurs on neither.
    """

    eq: Equation
    names: tuple[str, ...]
    sorts: tuple[Optional[str], ...]
    skeleton: int
    deepest: tuple[int, ...]

    def envs(
        self, pools: Sequence[Sequence], weight: Callable[[object], int], bound: int
    ) -> tuple[Iterable[tuple], int]:
        """The candidate tuples (one per variable, drawn from pools) whose
        instance stays within bound, in the product's order, and how many
        tuples of the full product overflow.

        A candidate of weight w >= 1 at a variable of deepest position p
        puts a leaf at depth p - 1 + w, so an instance fits exactly when
        the skeleton fits and every variable's candidate weighs at most
        bound + 1 - p.  Filtering each pool keeps the product's order.
        """
        total = math.prod(len(pool) for pool in pools)
        if self.skeleton > bound:
            return (), total
        kept = [
            [c for c in pool if weight(c) <= bound + 1 - p] if p else pool
            for pool, p in zip(pools, self.deepest)
        ]
        return itertools.product(*kept), total - math.prod(len(pool) for pool in kept)


def instance_shape(eq: Equation) -> InstanceShape:
    names = eq.var_names()
    if names is None:
        raise InfinitaryArity(f"equation {eq.name} has a countable variable family")
    deepest = dict.fromkeys(names, 0)

    def walk(t: Term, pos: int) -> int:
        match t:
            case Var(name):
                if deepest.get(name, pos) < pos:
                    deepest[name] = pos
                return pos
            case IxVar(_):
                return pos
            case Node(_, Tab(entries)):
                return max((walk(c, pos + 1) for c in entries), default=pos)
            case Node(op, Comp(_, _)):
                raise InfinitaryArity(f"depth undefined under countable operator {op.show()}")
        raise TypeError(f"not a term: {t!r}")

    skeleton = max(walk(eq.lhs, 1), walk(eq.rhs, 1))
    return InstanceShape(
        eq, names, tuple(eq.sort_of(v) for v in names), skeleton, tuple(deepest.values())
    )


@dataclass(frozen=True)
class SystemOfEquations:
    equations: tuple[Equation, ...]

    def __post_init__(self):
        names = [e.name for e in self.equations]
        if len(set(names)) != len(names):
            raise NameClash("duplicate equation name")

    @cached_property
    def instance_shapes(self) -> tuple[InstanceShape, ...]:
        """One InstanceShape per equation, in order; computed once."""
        return tuple(instance_shape(eq) for eq in self.equations)


def validate_system(sig: Signature, sys: SystemOfEquations) -> None:
    """Both sides well-formed over sig with free variables from the
    family.  One walk per side, in preorder, checks each node's operator
    and arity and gathers the side's variables; they are checked once
    the side has passed, and lhs is checked before rhs."""
    decl = sig.decl
    for eq in sys.equations:
        names = eq.var_names()
        for side in (eq.lhs, eq.rhs):
            seen: set[str] = set()
            todo = [side]
            while todo:
                t = todo.pop()
                if isinstance(t, Node):
                    arity, children = decl(t.op).arity, t.children
                    if isinstance(children, Tab):
                        if arity.count != len(children.entries):
                            raise ArityMismatch(f"{t.op.show()} applied to {len(children.entries)} children")
                        todo.extend(reversed(children.entries))
                    elif isinstance(children, Comp):
                        if arity.finite:
                            raise ArityMismatch(f"{t.op.show()} is finitary but given a comprehension")
                        todo.append(children.body)
                    else:
                        raise TypeError(f"not a term: {t!r}")
                elif isinstance(t, Var):
                    seen.add(t.name)
                elif not isinstance(t, IxVar):
                    raise TypeError(f"not a term: {t!r}")
            if names is not None:
                loose = seen.difference(names)
                if loose:
                    raise UnboundVariable(f"equation {eq.name}: undeclared variables {sorted(loose)}")


def free_algebra_signature(
    sig: Signature, sys: SystemOfEquations, gens: Sequence[str]
) -> tuple[Signature, SystemOfEquations]:
    """Adjoin one nullary operator per generator, prepended in given order.

    Operator and equation shapes are otherwise unchanged: former variables
    stay variables and existing nodes keep their symbols.
    """
    gen_ops = [OpSym(g) for g in gens]
    if len(set(gen_ops)) != len(gen_ops):
        raise NameClash("duplicate generator")
    for g in gen_ops:
        if sig.has_op(g):
            raise NameClash(f"generator {g.show()!r} clashes with an operator")
    decls = tuple(OpDecl(g, fin(0)) for g in gen_ops) + sig.ops
    return Signature(decls), SystemOfEquations(sys.equations)


# --- indexed signatures ---


@dataclass(frozen=True)
class IndexedOpDecl:
    op: OpSym
    sort: str
    # (index, arity) pairs; indices absent from the list contribute no children.
    arities: tuple[tuple[str, Arity], ...]


@dataclass(frozen=True)
class IndexedSignature:
    indices: tuple[str, ...]
    ops: tuple[IndexedOpDecl, ...]

    def __post_init__(self):
        for d in self.ops:
            if d.sort not in self.indices:
                raise UnknownOp(f"{d.op.show()} targets undeclared index {d.sort}")
            for ix, _ in d.arities:
                if ix not in self.indices:
                    raise UnknownOp(f"{d.op.show()} takes children at undeclared index {ix}")

    def flatten(self) -> Signature:
        """Child slots laid out in declared index order; requires all
        per-index arities finite."""
        decls = []
        for d in self.ops:
            slots: list[str] = []
            per = dict(d.arities)
            for ix in self.indices:
                a = per.get(ix)
                if a is None:
                    continue
                if not a.finite:
                    raise InfinitaryArity(f"{d.op.show()} has countable arity at index {ix}")
                slots.extend([ix] * a.count)
            decls.append(OpDecl(d.op, fin(len(slots)), d.sort, tuple(slots)))
        return Signature(tuple(decls))
