"""Signatures, terms, and equational systems.

A signature is an ordered list of operator declarations.  Operators are
symbols with a base name plus parameter tags, so a family like ``cons x``
instantiated at carrier elements a, b yields the distinct operators
``cons a`` and ``cons b``.  Arities are finite (FIN n) or countable (NAT);
countable child families are kept symbolic as comprehensions over an
index variable rather than materialized.

Terms form the free monad over the signature: variables are the unit
and operator nodes the free layer.  An equation side is read by
compiling it once (compile_side) into a post-order program over
variable registers, which one pass evaluates per environment: into a
TermTable's ids (TermTable.reader) or into an algebra
(algebras.satisfies).
"""

from __future__ import annotations

import itertools
import math
from functools import cached_property
from typing import Callable, Iterable, Mapping, NamedTuple, Optional, Sequence, Union

from .errors import (
    ArityMismatch,
    InfinitaryArity,
    NameClash,
    UnboundVariable,
    UnknownOp,
)
from .records import Record, tagged


class Arity(Record):
    """FIN(n) indexes children by 0..n-1; count None encodes NAT."""

    _fields = ("count",)

    def __init__(self, count: Optional[int]):
        if count is not None and count < 0:
            raise ValueError("negative arity")
        self._set(count=count)

    @property
    def finite(self) -> bool:
        return self.count is not None

    def __repr__(self) -> str:
        return "NAT" if self.count is None else f"FIN({self.count})"


def fin(n: int) -> Arity:
    return Arity(n)


NAT = Arity(None)


@tagged
class OpSym(NamedTuple):
    """Operator symbol: base name plus instantiation parameters; symbols
    order by name, then parameters."""

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


class OpDecl(Record):
    """An operator with its arity.  sort and child_sorts are the target
    index and the per-child indices, in argument order, in indexed runs,
    None otherwise."""

    _fields = ("op", "arity", "sort", "child_sorts")

    def __init__(
        self,
        op: OpSym,
        arity: Arity,
        sort: Optional[str] = None,
        child_sorts: Optional[tuple[str, ...]] = None,
    ):
        if child_sorts is not None:
            if not arity.finite or len(child_sorts) != arity.count:
                raise ArityMismatch(f"child sorts of {op.show()} do not match arity")
        self._set(op=op, arity=arity, sort=sort, child_sorts=child_sorts)


class Signature(Record):
    """Operator declarations in order.  indices is the materialized index
    prefix ("0", ..., "p") of an indexed declaration, None otherwise; it
    lists every index of the prefix, while sorts lists only the indices
    some operator targets, in the order the operators first target them."""

    _fields = ("ops", "indices")

    def __init__(self, ops: tuple[OpDecl, ...], indices: Optional[tuple[str, ...]] = None):
        names = [d.op for d in ops]
        if len(set(names)) != len(names):
            raise NameClash("duplicate operator in signature")
        self._set(ops=ops, indices=indices, _decls={d.op: (i, d) for i, d in enumerate(ops)})

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


@tagged
class IxV(NamedTuple):
    name: str


@tagged
class IxC(NamedTuple):
    n: int


@tagged
class IxApp(NamedTuple):
    fn: str
    arg: "IndexExpr"


IndexExpr = Union[IxV, IxC, IxApp]


@tagged
class IndexMap(NamedTuple):
    """A declared total map on naturals: finite exception table, identity
    (or a declared variable shift) beyond it.  Elaboration names the maps
    an equation ranges over; apply, eval_ix and instantiate_comp, which
    read a comprehension's children, are kept for ROADMAP item 9, which
    runs countable operators, and algebras._special already calls them
    on a comprehension side."""

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


@tagged
class Var(NamedTuple):
    name: str


@tagged
class IxVar(NamedTuple):
    """A variable of a countable family, named by an index expression.
    Only meaningful under an enclosing comprehension binder."""

    expr: IndexExpr


@tagged
class Tab(NamedTuple):
    entries: tuple["Term", ...]


@tagged
class Comp(NamedTuple):
    ivar: str
    body: "Term"


ArityMap = Union[Tab, Comp]


@tagged
class Node(NamedTuple):
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


def instantiate_comp(comp: Comp, k: int, maps: Mapping[str, IndexMap] | None = None) -> Term:
    """The k-th child of a comprehension: index variables under the binder
    evaluate to decimal variable names."""
    return _instantiate(comp.body, {comp.ivar: k}, maps or {})


def _instantiate(t: Term, env: Mapping[str, int], maps: Mapping[str, IndexMap]) -> Term:
    match t:
        case Var(_):
            return t
        case IxVar(expr):
            return Var(str(eval_ix(expr, env, maps)))
        case Node(op, Tab(entries)):
            return Node(op, Tab(tuple(_instantiate(c, env, maps) for c in entries)))
        case Node(op, Comp()):
            raise InfinitaryArity(
                f"cannot instantiate the comprehension under {op.show()}: "
                "nested comprehensions wait for ROADMAP item 9"
            )
    raise TypeError(f"not a term: {t!r}")


class Side(NamedTuple):
    """A term compiled once into a post-order program over registers.
    Register k < len(names) holds variable names[k] (a repeated name is
    read from its last register), and step s writes register
    len(names) + s.  A step is (op, registers of its children, subterm):
    a node over a table of children gives its operator, and a subterm
    no register can hold -- a variable outside names, an index
    variable, a node over a comprehension -- gives op None and no
    children.  Steps come children first, left to right, and each
    step's register is read by one later step at most; out is the
    whole term's register."""

    names: tuple[str, ...]
    steps: tuple[tuple[Optional[OpSym], tuple[int, ...], Term], ...]
    out: int

    def depth(self) -> int:
        """The term's depth, every variable and held-out subterm at depth 1."""
        depths = [1] * len(self.names)
        for _, kids, _ in self.steps:
            depths.append(1 + max([depths[k] for k in kids], default=0))
        return depths[self.out]

    def deepest(self) -> tuple[int, ...]:
        """Per register k < len(names), the deepest position (root = 1)
        of its variable, 0 if it does not occur.  Positions run from the
        root down: steps come after their children, so in reverse each
        step's position is known before its children's."""
        nvars = len(self.names)
        pos = [0] * (nvars + len(self.steps))
        pos[self.out] = 1
        for s in range(len(self.steps) - 1, -1, -1):
            below = pos[nvars + s] + 1
            for k in self.steps[s][1]:
                pos[k] = max(pos[k], below)
        return tuple(pos[:nvars])


def compile_side(t: Term, names: Sequence[str]) -> Side:
    steps: list[tuple[Optional[OpSym], tuple[int, ...], Term]] = []
    slot = {name: k for k, name in enumerate(names)}
    out = _compile(t, slot, len(names), steps)
    return Side(tuple(names), tuple(steps), out)


def _compile(t: Term, slot: dict, nvars: int, steps: list) -> int:
    """Add t's steps and return its register.  A module function, not a
    closure: a recursive closure is a reference cycle, which would keep
    every compile's lists alive until a collection."""
    if isinstance(t, Var) and t.name in slot:
        return slot[t.name]
    if isinstance(t, Node) and isinstance(t.children, Tab):
        kids = tuple([_compile(c, slot, nvars, steps) for c in t.children.entries])
        steps.append((t.op, kids, t))
    else:
        steps.append((None, (), t))
    return nvars + len(steps) - 1


class TermTable:
    """Hash-consed terms over a signature and leaves (name, sort, weight):
    variables at target index sort (None: any) that count at depth
    weight.  Each term has an integer id, and per id the table keeps its
    node -- the leaf's position, or (operator position, child ids) -- and
    its weighted depth; lookup maps every node back to its id.  Ids are
    handed out children first, as terms are reached, so a first
    upto(bound) with want None lists them in id order.  The Term of an
    id is built only when terms is read, and its printed form only when
    texts is."""

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
        self._texts: list[str] = []

    def upto(self, bound: int, want: Optional[str] = None) -> list[int]:
        """The ids of the terms of weighted depth <= bound at target index
        want (None: every term), in enumerate_terms' order."""
        return [n for d in range(1, bound + 1) for n in self._exactly(d, want)]

    def _exactly(self, d: int, want: Optional[str]) -> list[int]:
        """The ids of depth exactly d at want: the leaves of weight d,
        then per operator its child tuples whose deepest child is at
        depth d - 1, in lexicographic order.  Only those tuples are
        walked: a pool upto(d - 1) is its shallower part upto(d - 2)
        followed by its tail at exactly d - 1, so in lexicographic order
        a child from the shallower part leaves a deep child to a later
        position, and the last position must then take one from its
        tail; a child from the tail frees every later position.  The
        tuples are built from the last position back, each position's
        deep tuples being those with a shallow child there and deep
        tuples after it, then those with a deep child there."""
        if (d, want) in self._exact:
            return self._exact[(d, want)]
        found = [
            k for k, (_, sort, w) in enumerate(self.leaves)
            if w == d and (want is None or sort is None or sort == want)
        ]
        # per child sort: (upto(d - 2), exactly(d - 1), upto(d - 1))
        split: dict[Optional[str], tuple[list[int], list[int], list[int]]] = {}
        for op, decl in enumerate(self.sig.ops):
            if want is not None and decl.sort is not None and decl.sort != want:
                continue
            kid_sorts = decl.child_sorts or (None,) * decl.arity.count
            if not kid_sorts:
                # the one child tuple, (), is of depth 0
                if d == 1:
                    found.append((op, ()))
                continue
            if d == 1:
                continue
            for s in kid_sorts:
                if s not in split:
                    low, tail = self.upto(d - 2, s), self._exactly(d - 1, s)
                    split[s] = (low, tail, low + tail)
            deep = [(b,) for b in split[kid_sorts[-1]][1]]
            for i in range(len(kid_sorts) - 2, -1, -1):
                low, tail, _ = split[kid_sorts[i]]
                rest = [split[s][2] for s in kid_sorts[i + 1 :]]
                deep = [(a, *kids) for a in low for kids in deep]
                deep += itertools.product(tail, *rest)
            found += [(op, kids) for kids in deep]
        # found holds no node twice; the new ones get ids in its order
        lookup, start = self.lookup, len(self.nodes)
        new = [node for node in found if node not in lookup]
        self.nodes += new
        self.depths += [d] * len(new)
        lookup.update(zip(new, range(start, start + len(new))))
        out = self._exact[(d, want)] = list(map(lookup.__getitem__, found))
        return out

    def reader(self, side: Side) -> Callable[[Iterable[int]], list[Optional[int]]]:
        """Read side's registers off the table, the variables' given as
        ids: each step looks its node up, and a term the table does not
        hold reads None -- so does every term above it.  A variable the
        side's names lack, an operator outside the signature, an index
        variable and a comprehension are never held."""
        get, op_pos = self.lookup.get, self._op_pos.get
        prog = [(op_pos(op), kids) for op, kids, _ in side.steps]

        def read(ids: Iterable[int]) -> list[Optional[int]]:
            regs = list(ids)
            for op, kids in prog:
                regs.append(get((op, tuple([regs[k] for k in kids]))))
            return regs

        return read

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

    @property
    def texts(self) -> list[str]:
        """sexpr.show_term of each id's Term, built on first read, children
        first, each from its children's texts, with no Term built."""
        texts = self._texts
        if len(texts) < len(self.nodes):
            heads = [" ".join(["(op", d.op.name, *d.op.params]) for d in self.sig.ops]
            for node in self.nodes[len(texts) :]:
                if isinstance(node, int):
                    texts.append(f"(var {self.leaves[node][0]})")
                else:
                    texts.append(" ".join([heads[node[0]], *map(texts.__getitem__, node[1])]) + ")")
        return texts


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

    No command calls it: quotient.py keeps it bound for the span that
    perfbench/tracing.py wraps by name, and the tests read the term order
    through it.
    """
    rows = vars.items() if isinstance(vars, Mapping) else [(v, None) for v in vars]
    weight = (var_depths or {}).get
    table = TermTable(sig, [(name, vsort, weight(name, 1)) for name, vsort in rows])
    ids = table.upto(depth_bound, sort)
    terms = table.terms
    return [terms[n] for n in ids]


# --- equations ---


@tagged
class Equation(NamedTuple):
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


class InstanceShape(Record):
    """What an equation's instances ask of a depth bound.

    sides holds lhs and rhs compiled over names.
    """

    _fields = ("eq", "names", "sorts", "sides")

    def __init__(
        self,
        eq: Equation,
        names: tuple[str, ...],
        sorts: tuple[Optional[str], ...],
        sides: tuple[Side, Side],
    ):
        self._set(eq=eq, names=names, sorts=sorts, sides=sides)

    @cached_property
    def skeleton(self) -> int:
        """The greater of the sides' depths, variables at depth 1."""
        return max(side.depth() for side in self.sides)

    @cached_property
    def deepest(self) -> tuple[int, ...]:
        """Per variable names[k], its deepest position (root = 1) on
        either side, 0 when it occurs on neither."""
        left, right = self.sides
        return tuple(map(max, left.deepest(), right.deepest()))

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
    sides = (compile_side(eq.lhs, names), compile_side(eq.rhs, names))
    for side in sides:
        for op, _, t in side.steps:
            if op is not None or isinstance(t, (Var, IxVar)):
                continue
            if isinstance(t, Node) and isinstance(t.children, Comp):
                raise InfinitaryArity(f"depth undefined under countable operator {t.op.show()}")
            raise TypeError(f"not a term: {t!r}")
    return InstanceShape(eq, names, tuple(eq.sort_of(v) for v in names), sides)


class SystemOfEquations(Record):
    _fields = ("equations",)

    def __init__(self, equations: tuple[Equation, ...]):
        names = [e.name for e in equations]
        if len(set(names)) != len(names):
            raise NameClash("duplicate equation name")
        self._set(equations=equations)

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


class IndexedSignature:
    """Nothing is one: elaborate returns a Signature for every
    declaration.  The name stays only while perfbench/test_reference.py
    imports it and tests elaborate's result against it."""
