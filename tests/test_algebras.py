"""Algebra evaluation and satisfaction checking."""

from __future__ import annotations

import pytest

from helpers import bag_sig, bag_system, first_label_algebra, length_algebra
from qitbench.algebras import Algebra, SatReport, bind, satisfies, term_algebra
from qitbench.errors import InfeasibleExhaustive, PartialAlgebra
from qitbench.sexpr import parse_term
from qitbench.terms import (
    Comp,
    Equation,
    IxV,
    IxVar,
    NAT,
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
    alg = Algebra(SIG, carrier=(0,), tables={SIG.decl("nil").op: {(): 0}})
    with pytest.raises(PartialAlgebra):
        bind(parse_term("(op cons a (op nil))", SIG), {}, alg)
    countable = signature([("node x", NAT)])
    comp = mk_node(countable, "node x", Comp("i", IxVar(IxV("i"))))
    with pytest.raises(PartialAlgebra):
        bind(comp, {}, Algebra(countable, carrier=(0,)))


def test_from_fn_tabulates_every_operator():
    alg = length_algebra(SIG)
    assert set(alg.tables) == {d.op for d in SIG.ops}
    assert alg.interp(SIG.decl("cons b").op, (3,)) == 3
