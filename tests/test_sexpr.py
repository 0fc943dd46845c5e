"""Surface syntax round trips and diagnostics."""

from __future__ import annotations

import pytest

from helpers import bag_sig
from qitbench.errors import ArityMismatch, ParseError, UnknownOp
from qitbench.sexpr import parse_index_map, parse_term, show_index_map, show_term
from qitbench.terms import IndexMap, IxApp, IxC, IxV, IxVar, Node, OpSym, Var

SIG = bag_sig()


@pytest.mark.parametrize(
    "text",
    [
        "(var x)",
        "(op nil)",
        "(op cons a (op nil))",
        "(op cons b (op cons a (var zs)))",
    ],
)
def test_round_trip(text):
    assert show_term(parse_term(text, SIG)) == text


def test_comprehension_round_trip():
    text = "(op node x (fun i (var (ix i))))"
    t = parse_term(text)
    assert show_term(t) == text
    applied = "(op node x (fun i (var (ix (b i)))))"
    t2 = parse_term(applied)
    assert t2.children.body == IxVar(IxApp("b", IxV("i")))
    assert show_term(t2) == applied


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as e:
        parse_term("(op cons a (op nil)")
    assert e.value.line == 1
    with pytest.raises(ParseError) as e:
        parse_term("(var x) (var y)")
    assert (e.value.line, e.value.col) == (1, 9)
    with pytest.raises(ParseError):
        parse_term("(frob x)")
    with pytest.raises(ParseError):
        parse_term("x")
    with pytest.raises(ParseError) as e:
        parse_term("(op cons a\n  (frob))")
    assert e.value.line == 2


def test_parse_checks_signature():
    with pytest.raises(UnknownOp):
        parse_term("(op snoc (op nil))", SIG)
    with pytest.raises(ArityMismatch):
        parse_term("(op cons a)", SIG)
    # without a signature the shape is accepted
    t = parse_term("(op cons a)")
    assert t == Node(OpSym("cons", ("a",)), t.children)


def test_index_map_surface():
    text = "(bij b (0 1) (1 0) default i)"
    m = parse_index_map(text)
    assert m == IndexMap("b", ((0, 1), (1, 0)))
    assert show_index_map(m) == text
    assert parse_index_map("(bij id default i)").table == ()
    with pytest.raises(ParseError):
        parse_index_map("(bij b (0 1 2) default i)")
    with pytest.raises(ParseError):
        parse_index_map("(op nil)")


@pytest.mark.parametrize("entry", ["(1 ²)", "(٣ 1)", "((0) 1)"])
def test_index_map_pairs_are_ascii_naturals(entry):
    with pytest.raises(ParseError) as e:
        parse_index_map(f"(bij m {entry} default i)")
    assert (str(e.value), e.value.col) == ("1:8: expected a (src dst) pair of naturals", 8)


def test_only_ascii_digits_make_an_index_constant():
    assert parse_term("(var (ix 3))") == IxVar(IxC(3))
    assert parse_term("(var (ix ٣))") == IxVar(IxV("٣"))
    assert parse_term("(var (ix (b ²)))") == IxVar(IxApp("b", IxV("²")))
