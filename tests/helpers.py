"""Hand-built signatures, systems, algebras and size universes shared
by the tests, and the readers of a universe and a quotient that only
the tests need.

Built directly from the data constructors so the core tests do not
depend on the schema front end.
"""

from __future__ import annotations

import itertools
from typing import Callable, Optional, Sequence

from hypothesis import strategies as st

from qitbench.algebras import Algebra, Value
from qitbench.errors import ArityMismatch, QitError
from qitbench.quotient import CongruenceQuotient, TermUniverse
from qitbench.sexpr import show_term
from qitbench.sizes import SizeSig, SizeUniverse
from qitbench.terms import (
    Equation,
    Node,
    OpDecl,
    OpSym,
    Signature,
    SystemOfEquations,
    Tab,
    Term,
    Var,
    fin,
    signature,
)


# --- algebras and size universes ---


def tabulate(sig: Signature, carrier: Sequence[Value], fn: Callable[[OpSym, tuple], Value]) -> Algebra:
    """The algebra with fn tabulated over the carrier for every finitary
    operator."""
    carrier = tuple(carrier)
    tables = {}
    for decl in sig.ops:
        if not decl.arity.finite:
            continue
        pools = [carrier] * decl.arity.count
        tables[decl.op] = {args: fn(decl.op, args) for args in itertools.product(*pools)}
    return Algebra(sig, carrier, tables, {})


class TermAlgebra(Algebra):
    """The open-ended algebra of terms: every finitary node is itself."""

    def interp(self, op: OpSym, args) -> Value:
        if self.sig.decl(op).arity.finite:
            return Node(op, Tab(tuple(args)))
        return super().interp(op, args)


def term_algebra(sig: Signature) -> Algebra:
    return TermAlgebra(sig)


# A size tree is (operator name, child trees): nested tuples, equal and
# hashed by value.  A universe's members are ids; tree_of and id_of read
# between the two.


def size_zero(sig: SizeSig) -> tuple:
    """The size tree of sig's first nullary operator."""
    return (next(n for n, a in sig.ops if a == 0), ())


def size_join(sig: SizeSig, i: tuple, j: tuple) -> tuple:
    return (sig.binary, (i, j))


def size_suc(sig: SizeSig, i: tuple) -> tuple:
    return size_join(sig, i, i)


def size_arity(sig: SizeSig, name: str) -> int:
    for n, a in sig.ops:
        if n == name:
            return a
    raise ArityMismatch(f"unknown size operator {name!r}")


def upper_bound(sig: SizeSig, op: str, family: Sequence[tuple]) -> tuple:
    """A size strictly above every member of the family: the node whose
    children are exactly the family."""
    if len(family) != size_arity(sig, op):
        raise ArityMismatch(f"{op} expects {size_arity(sig, op)} children, got {len(family)}")
    return (op, tuple(family))


def tree_of(u: SizeUniverse, i: int) -> tuple:
    """Member i of u as a size tree."""
    op, kids = u.nodes[i]
    return (u.sig.ops[op][0], tuple(tree_of(u, k) for k in kids))


def id_of(u: SizeUniverse, tree: tuple) -> Optional[int]:
    """The member of u that is the tree; None if u lacks it."""
    name, kids = tree
    ids = tuple(id_of(u, k) for k in kids)
    op = next(n for n, (m, _) in enumerate(u.sig.ops) if m == name)
    return None if None in ids else u.lookup.get((op, ids))


def chain(sig: SizeSig, height_bound: int) -> SizeUniverse:
    """The linearly ordered sub-universe of iterated successors.  Unlike
    the full tree universe, every truncation of it is directed below its
    single maximal member."""
    steps = [(size_zero(sig)[0], ())]
    steps += [(sig.binary, (k, k)) for k in range(height_bound - 1)]
    return SizeUniverse(sig, height_bound, members=steps)


# --- readers of a universe and a quotient ---


def position(u: TermUniverse, t: Term) -> Optional[int]:
    """The position of t in the universe's listing; None if it lacks t."""
    n = u.id_of(t)
    return None if n is None else u.ids.index(n)


def class_terms(q: CongruenceQuotient) -> tuple[tuple[Term, ...], ...]:
    """Each class's Terms, in the order of its ids."""
    members: list[list[Term]] = [[] for _ in range(len(q))]
    for t, c in zip(q.universe.table.terms, q.class_at):
        members[c].append(t)
    return tuple(map(tuple, members))


def class_of(q: CongruenceQuotient, t: Term) -> int:
    n = q.universe.id_of(t)
    if n is None:
        raise QitError(f"term outside the universe: {show_term(t)}")
    return q.class_at[n]


def sort_of_class(q: CongruenceQuotient, cls: int) -> Optional[str]:
    u = q.universe
    return u.sig.ops[u.table.nodes[q.flats[cls]][0]].sort


def colimit_sorts(qw) -> dict[Optional[str], int]:
    """How many colimit classes have each sort, read off each class's
    flat."""
    sorts: dict[Optional[str], int] = {}
    for cid in range(len(qw)):
        sort = qw.appx.sig.decl(qw.class_flat(cid).op).sort
        sorts[sort] = sorts.get(sort, 0) + 1
    return sorts


# --- declarations ---


def bag_sig(atoms=("a", "b")) -> Signature:
    rows = [("nil", 0)]
    rows += [(f"cons {x}", 1) for x in atoms]
    return signature(rows)


def bag_system(atoms=("a", "b")) -> SystemOfEquations:
    eqs = []
    for x, y in itertools.product(atoms, repeat=2):
        lhs = Node(OpSym("cons", (x,)), Tab((Node(OpSym("cons", (y,)), Tab((Var("zs"),))),)))
        rhs = Node(OpSym("cons", (y,)), Tab((Node(OpSym("cons", (x,)), Tab((Var("zs"),))),)))
        eqs.append(Equation(f"swap {x} {y}", ("zs",), lhs, rhs))
    return SystemOfEquations(tuple(eqs))


def length_algebra(sig: Signature, cap: int = 3) -> Algebra:
    """List length saturated at cap; satisfies the swap equations."""

    def fn(op, args):
        if op.name == "nil":
            return 0
        return min(args[0] + 1, cap)

    return tabulate(sig, tuple(range(cap + 1)), fn)


def first_label_algebra(sig: Signature, atoms=("a", "b")) -> Algebra:
    """Head label or a default; breaks the swap equations."""

    def fn(op, args):
        if op.name == "nil":
            return "*"
        return op.params[0]

    return tabulate(sig, atoms + ("*",), fn)


def commvec_indexed(atoms=("a", "b"), prefix: int = 2) -> Signature:
    indices = tuple(str(i) for i in range(prefix + 1))
    ops = [OpDecl(OpSym("nil", ("@0",)), fin(0), "0", ())]
    for i in range(1, prefix + 1):
        for x in atoms:
            ops.append(OpDecl(OpSym("cons", (x, f"@{i}")), fin(1), str(i), (str(i - 1),)))
    return Signature(tuple(ops), indices)


def commvec_system(atoms=("a", "b"), prefix: int = 2) -> SystemOfEquations:
    """swap at every index i+2 within the prefix, one vector variable at i."""
    eqs = []
    for i in range(prefix - 1):
        top, mid = f"@{i + 2}", f"@{i + 1}"
        for x, y in itertools.product(atoms, repeat=2):
            inner_xy = Node(OpSym("cons", (y, mid)), Tab((Var("zs"),)))
            inner_yx = Node(OpSym("cons", (x, mid)), Tab((Var("zs"),)))
            lhs = Node(OpSym("cons", (x, top)), Tab((inner_xy,)))
            rhs = Node(OpSym("cons", (y, top)), Tab((inner_yx,)))
            eqs.append(
                Equation(
                    f"swap {x} {y} @{i + 2}",
                    ("zs",),
                    lhs,
                    rhs,
                    var_sorts=(str(i),),
                    sort=str(i + 2),
                )
            )
    return SystemOfEquations(tuple(eqs))


def ab_sig() -> Signature:
    """Two sorts, A and B.  A universe lists each sort's terms in turn,
    and B's depth-1 term b has a lower id than A's depth-2 f a, so its
    listing order is not its id order."""
    return signature([("a", 0, "A", ()), ("b", 0, "B", ()), ("f", 1, "A", ("A",)), ("g", 1, "B", ("A",))])


def ab_system() -> SystemOfEquations:
    """f (f x) = f x at A."""
    fx = Node(OpSym("f"), Tab((Var("x"),)))
    return SystemOfEquations(
        (Equation("ff", ("x",), Node(OpSym("f"), Tab((fx,))), fx, var_sorts=("A",), sort="A"),)
    )


@st.composite
def term_over(draw, ops, names, max_depth):
    """A term of depth <= max_depth over ops (name, arity) and variables."""
    leaves = [Node(OpSym(op), Tab(())) for op, k in ops if k == 0] + [Var(v) for v in names]
    inner = [(op, k) for op, k in ops if k > 0]
    if max_depth == 1 or not inner or draw(st.booleans()):
        return draw(st.sampled_from(leaves))
    op, k = draw(st.sampled_from(inner))
    return Node(OpSym(op), Tab(tuple(draw(term_over(ops, names, max_depth - 1)) for _ in range(k))))


@st.composite
def equations(draw):
    """A signature of arity 0-2 operators (the first nullary) and one
    equation over up to three variables, some possibly unused."""
    arities = [0] + draw(st.lists(st.integers(0, 2), max_size=2))
    ops = [(f"f{n}", k) for n, k in enumerate(arities)]
    names = ("x", "y", "z")[: draw(st.integers(0, 3))]
    lhs = draw(term_over(ops, names, 3))
    rhs = draw(term_over(ops, names, 3))
    return signature(ops), Equation("e", names, lhs, rhs)


def mutual_le_universe() -> SizeUniverse:
    """An explicit height-4 universe in which join(zero, one) and
    suc(one) are <= each other, so <= is not antisymmetric on it: both
    have height 3, with one the only member of height 2 and the sizes
    above them of height 4."""
    # zero, one, mid = join(zero, one), two = suc(one), then join(mid,
    # two), join(zero, two) and suc(mid)
    members = [("zero", ()), ("join", (0, 0)), ("join", (0, 1)), ("join", (1, 1)),
               ("join", (2, 3)), ("join", (0, 3)), ("join", (2, 2))]
    return SizeUniverse(SizeSig.minimal(), 4, members=members)
