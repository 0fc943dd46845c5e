"""Algebra evaluation and satisfaction checking."""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import (
    bag_sig,
    bag_system,
    equations,
    first_label_algebra,
    length_algebra,
    term_algebra,
    term_over,
)
from oracles import naive_satisfies
from qitbench.algebras import Algebra, SatReport, satisfies
from qitbench.errors import InfeasibleExhaustive, PartialAlgebra, QitError, UnboundVariable
from qitbench.sexpr import parse_term
from qitbench.terms import (
    Comp,
    Equation,
    IxV,
    IxVar,
    NAT,
    OpSym,
    SystemOfEquations,
    Var,
    mk_node,
    signature,
)

SIG = bag_sig()
SYS = bag_system()


def test_length_algebra_satisfies_swaps():
    report = satisfies(length_algebra(SIG), SYS)
    assert report.status == "SATISFIED"
    # four equations, one variable each, carrier of size four
    assert report.checked == 16


def test_first_label_algebra_violates_with_witness():
    report = satisfies(first_label_algebra(SIG), SYS)
    assert report.status == "VIOLATED"
    assert not report.ok
    assert report.witness_eq == "swap a b"
    assert dict(report.witness_env) == {"zs": "a"}


def test_exhaustive_needs_enumerable_data():
    with pytest.raises(InfeasibleExhaustive):
        satisfies(term_algebra(SIG), SYS)
    countable = signature([("leaf", 0), ("node x", NAT)])
    eq = Equation("perm", NAT, Var("u"), Var("u"))
    with pytest.raises(InfeasibleExhaustive):
        satisfies(Algebra(countable, ("*",)), SystemOfEquations((eq,)))


def test_partial_algebra_is_reported():
    """satisfies raises interp's messages: a table miss, a finitary
    operator with neither table nor fn, a countable operator with no
    rule, and an index variable standing as a side."""
    nil, cons = SIG.decl("nil").op, SIG.decl("cons a").op
    zs = Var("zs")
    consed = SystemOfEquations((Equation("e", ("zs",), mk_node(SIG, cons, [zs]), zs),))
    miss = Algebra(SIG, carrier=(0,), tables={nil: {(): 0}, cons: {}})
    with pytest.raises(PartialAlgebra, match=r"^cons a has no table entry for \(0,\)$"):
        satisfies(miss, consed)
    with pytest.raises(PartialAlgebra, match="^no interpretation for cons a$"):
        satisfies(Algebra(SIG, carrier=(0,), tables={nil: {(): 0}}), consed)
    countable = signature([("node x", NAT)])
    comp = mk_node(countable, "node x", Comp("i", IxVar(IxV("i"))))
    u = Var("u")
    with pytest.raises(PartialAlgebra, match="^no rule for countable operator node x$"):
        satisfies(Algebra(countable, carrier=(0,)), SystemOfEquations((Equation("e", ("u",), comp, u),)))
    bare = SystemOfEquations((Equation("e", ("u",), IxVar(IxV("i")), u),))
    with pytest.raises(UnboundVariable, match="^index variable outside a comprehension$"):
        satisfies(Algebra(countable, carrier=(0,)), bare)


def test_from_fn_tabulates_every_operator():
    alg = length_algebra(SIG)
    assert set(alg.tables) == {d.op for d in SIG.ops}
    assert alg.interp(SIG.decl("cons b").op, (3,)) == 3


def test_comprehension_sides_of_a_finite_family():
    """A finite variable family whose side holds a comprehension: the
    countable operator's rule gets the child family as a callable, whose
    k-th child reads index variables as the variable named k."""
    sig = signature([("leaf", 0), ("node", NAT)])
    leaf = {OpSym("leaf"): {(): 0}}
    first = Algebra(sig, (0, 1), leaf, {OpSym("node"): lambda f: f(0)})
    flip = Algebra(sig, (0, 1), leaf, {OpSym("node"): lambda f: 1 - f(0)})
    second = Algebra(sig, (0, 1), leaf, {OpSym("node"): lambda f: f(1)})
    const = SystemOfEquations((Equation("e", ("x",), mk_node(sig, "node", Comp("i", Var("x"))), Var("x")),))
    indexed = SystemOfEquations(
        (Equation("e3", ("0", "x"), mk_node(sig, "node", Comp("i", IxVar(IxV("i")))), Var("0")),)
    )
    assert satisfies(first, const) == SatReport("SATISFIED", 2)
    # a table for a countable operator is never read: its rule is
    tabled = Algebra(sig, (0, 1), {**leaf, OpSym("node"): {}}, {OpSym("node"): lambda f: f(0)})
    assert satisfies(tabled, const) == SatReport("SATISFIED", 2)
    assert satisfies(flip, const) == SatReport("VIOLATED", 1, "e", (("x", 0),))
    assert satisfies(first, indexed) == SatReport("SATISFIED", 4)
    with pytest.raises(UnboundVariable, match="^unbound variable '1'$"):
        satisfies(second, indexed)
    with pytest.raises(PartialAlgebra, match="^no rule for countable operator node$"):
        satisfies(Algebra(sig, (0, 1), leaf), const)


@st.composite
def table_algebras(draw, sig):
    """A carrier of 1-3 values and a table per operator; a table may
    lack entries, and an operator its table."""
    carrier = tuple(range(draw(st.integers(1, 3))))
    tables = {}
    for d in sig.ops:
        if draw(st.integers(0, 9)) == 0:
            continue
        tables[d.op] = {
            args: draw(st.sampled_from(carrier))
            for args in itertools.product(carrier, repeat=d.arity.count)
            if draw(st.integers(0, 9)) > 0
        }
    return Algebra(sig, carrier, tables)


def outcome(check, alg, sys):
    try:
        return check(alg, sys)
    except QitError as e:
        return type(e), str(e)


@given(equations(), st.data())
def test_compiled_satisfies_equals_naive_satisfies(case, data):
    sig, eq = case
    ops = [(d.op.name, d.arity.count) for d in sig.ops]
    eqs = [eq]
    if data.draw(st.booleans()):
        sides = [data.draw(term_over(ops, eq.vars, 3)) for _ in range(2)]
        eqs.append(Equation("e2", eq.vars, *sides))
    sys = SystemOfEquations(tuple(eqs))
    alg = data.draw(table_algebras(sig))
    assert outcome(satisfies, alg, sys) == outcome(naive_satisfies, alg, sys)
