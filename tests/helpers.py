"""Hand-built signatures and systems shared by the tests.

Built directly from the data constructors so the core tests do not
depend on the schema front end.
"""

from __future__ import annotations

import itertools

from hypothesis import strategies as st

from qitbench.algebras import Algebra
from qitbench.sizes import SizeSig, SizeUniverse
from qitbench.terms import (
    Equation,
    IndexedOpDecl,
    IndexedSignature,
    Node,
    OpSym,
    Signature,
    SystemOfEquations,
    Tab,
    Var,
    fin,
    signature,
)


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

    return Algebra.from_fn(sig, tuple(range(cap + 1)), fn)


def first_label_algebra(sig: Signature, atoms=("a", "b")) -> Algebra:
    """Head label or a default; breaks the swap equations."""

    def fn(op, args):
        if op.name == "nil":
            return "*"
        return op.params[0]

    return Algebra.from_fn(sig, atoms + ("*",), fn)


def commvec_indexed(atoms=("a", "b"), prefix: int = 2) -> IndexedSignature:
    indices = tuple(str(i) for i in range(prefix + 1))
    ops = [IndexedOpDecl(OpSym("nil", ("@0",)), "0", ())]
    for i in range(1, prefix + 1):
        for x in atoms:
            ops.append(IndexedOpDecl(OpSym("cons", (x, f"@{i}")), str(i), ((str(i - 1), fin(1)),)))
    return IndexedSignature(indices, tuple(ops))


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
    cover one and both are covered by the sizes above them."""
    sig = SizeSig.minimal()
    zero = sig.zero()
    one = sig.suc(zero)
    mid, two = sig.join(zero, one), sig.suc(one)
    members = [zero, one, mid, two, sig.join(mid, two), sig.join(zero, two), sig.suc(mid)]
    return SizeUniverse(sig, 4, members=members)
