"""Core term layer: construction, enumeration order, monad laws."""

from __future__ import annotations

import itertools
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import bag_sig, bag_system, equations, length_algebra, term_algebra
from oracles import (
    ProductTermTable,
    bind,
    count_terms,
    free_vars,
    naive_enumerate_terms,
    substitute,
    term_key,
    terms_equal,
    weighted_depth,
)
from qitbench.errors import (
    ArityMismatch,
    InfinitaryArity,
    UnboundVariable,
    UnknownOp,
)
from qitbench.quotient import build_universe
from qitbench.schema import elaborate, parse_decl
from qitbench.sexpr import parse_term, show_term
from qitbench.terms import (
    Comp,
    Equation,
    IndexMap,
    IxApp,
    IxC,
    IxV,
    IxVar,
    NAT,
    Node,
    OpSym,
    SystemOfEquations,
    Tab,
    TermTable,
    Var,
    compile_side,
    enumerate_terms,
    eval_ix,
    instantiate_comp,
    mk_node,
    signature,
    validate_system,
)

SIG = bag_sig()
SYS = bag_system()


def test_enumeration_matches_frozen_listing():
    got = [show_term(t) for t in enumerate_terms(SIG, (), 3)]
    assert got == [
        "(op nil)",
        "(op cons a (op nil))",
        "(op cons b (op nil))",
        "(op cons a (op cons a (op nil)))",
        "(op cons a (op cons b (op nil)))",
        "(op cons b (op cons a (op nil)))",
        "(op cons b (op cons b (op nil)))",
    ]


def test_enumeration_counts_follow_recurrence():
    for d in range(5):
        assert len(enumerate_terms(SIG, ("x", "y"), d)) == count_terms([0, 1, 1], 2, d)
    wide = signature([("nil", 0), ("pair", 2), ("cons a", 1)])
    for d in range(4):
        assert len(enumerate_terms(wide, ("x",), d)) == count_terms([0, 2, 1], 1, d)


def test_enumeration_is_sorted_and_duplicate_free():
    terms = enumerate_terms(SIG, ("x",), 3)
    keys = [term_key(SIG, t) for t in terms]
    assert keys == sorted(keys)
    assert len(set(terms)) == len(terms)


def test_enumeration_rejects_countable_operators():
    sig = signature([("leaf", 0), ("node x", NAT)])
    with pytest.raises(InfinitaryArity):
        enumerate_terms(sig, (), 2)


def test_mk_node_checks():
    t = mk_node(SIG, "cons a", [mk_node(SIG, "nil", [])])
    assert t == Node(OpSym("cons", ("a",)), Tab((Node(OpSym("nil"), Tab(())),)))
    with pytest.raises(UnknownOp):
        mk_node(SIG, "snoc", [])
    with pytest.raises(ArityMismatch):
        mk_node(SIG, "cons a", [])
    with pytest.raises(ArityMismatch):
        mk_node(SIG, "nil", Comp("i", IxVar(IxV("i"))))
    countable = signature([("leaf", 0), ("node x", NAT)])
    with pytest.raises(ArityMismatch):
        mk_node(countable, "node x", [Var("x")])


def test_bind_examples():
    alg = length_algebra(SIG)
    assert bind(Var("zs"), {"zs": 7}, alg) == 7
    spine = parse_term("(op cons a (op cons b (var zs)))", SIG)
    assert bind(spine, {"zs": 0}, alg) == 2
    with pytest.raises(UnboundVariable):
        bind(spine, {}, alg)


def _ext(env):
    return lambda t: substitute(t, env)


def test_monad_laws_to_depth_three():
    T = term_algebra(SIG)
    terms = enumerate_terms(SIG, ("x", "y"), 3)
    rho = {"x": terms[4], "y": terms[1]}
    kappa = {"x": terms[6], "y": Var("x")}
    for t in terms:
        # right unit: binding variables to themselves is the identity
        assert bind(t, {"x": Var("x"), "y": Var("y")}, T) == t
    for name in ("x", "y"):
        assert bind(Var(name), rho, T) == rho[name]
    composite = {v: bind(rho[v], kappa, T) for v in rho}
    for t in terms:
        assert bind(bind(t, rho, T), kappa, T) == bind(t, composite, T)


def test_bind_substitute_associativity():
    alg = length_algebra(SIG)
    s = {"x": parse_term("(op cons a (var z))", SIG), "y": Var("z")}
    env = {"z": 1}
    composed = {v: bind(s[v], env, alg) for v in s}
    for t in enumerate_terms(SIG, ("x", "y"), 3):
        assert bind(substitute(t, s), env, alg) == bind(t, composed, alg)


def test_substitute_and_free_vars():
    t = parse_term("(op cons a (var x))", SIG)
    assert free_vars(t) == {"x"}
    assert substitute(t, {"x": Var("y")}) == parse_term("(op cons a (var y))", SIG)
    with pytest.raises(UnboundVariable):
        substitute(t, {})
    assert substitute(t, {}, partial=True) == t


def test_index_maps_and_comprehension_equality():
    b = IndexMap("b", ((0, 1), (1, 0)))
    assert [b.apply(k) for k in (0, 1, 5)] == [1, 0, 5]
    assert eval_ix(IxApp("b", IxApp("b", IxC(1))), {}, {"b": b}) == 1
    sig = signature([("leaf", 0), ("node x", NAT)])
    same1 = mk_node(sig, "node x", Comp("i", IxVar(IxV("i"))))
    same2 = mk_node(sig, "node x", Comp("j", IxVar(IxV("j"))))
    permuted = mk_node(sig, "node x", Comp("j", IxVar(IxApp("b", IxV("j")))))
    assert terms_equal(same1, same2)
    assert not terms_equal(same1, permuted, {"b": b})
    assert not terms_equal(same1, Var("x"))


def test_instantiating_a_nested_comprehension_is_refused():
    # the inner comprehension's body still reads the outer index; the
    # reader used to wrap the whole node inside its own comprehension
    inner = Node(OpSym("g"), Comp("j", IxVar(IxV("i"))))
    with pytest.raises(InfinitaryArity, match="under g: nested comprehensions wait for ROADMAP item 9"):
        instantiate_comp(Comp("i", inner), 3)
    flat = Node(OpSym("g"), Tab((IxVar(IxV("i")),)))
    assert instantiate_comp(Comp("i", flat), 3) == Node(OpSym("g"), Tab((Var("3"),)))


def test_indexed_signature_flattening():
    from helpers import commvec_indexed

    flat = commvec_indexed()
    assert flat.sorts == ("0", "1", "2")
    rows = [(d.op.show(), d.arity.count, d.sort, d.child_sorts) for d in flat.ops]
    assert rows == [
        ("nil @0", 0, "0", ()),
        ("cons a @1", 1, "1", ("0",)),
        ("cons b @1", 1, "1", ("0",)),
        ("cons a @2", 1, "2", ("1",)),
        ("cons b @2", 1, "2", ("1",)),
    ]


def test_sorted_enumeration_per_index():
    from helpers import commvec_indexed

    flat = commvec_indexed()
    per_index = [len(enumerate_terms(flat, (), 3, sort=s)) for s in flat.sorts]
    assert per_index == [1, 2, 4]


# --- the hash-consed table against the tree enumeration ---

SORTS = st.sampled_from([None, "0", "1"])


@st.composite
def sorted_signatures(draw):
    """Arity 0-2 operators (the first nullary), each at a target index or
    none, with child indices or none."""
    rows = []
    for n, k in enumerate([0] + draw(st.lists(st.integers(0, 2), max_size=3))):
        kids = draw(st.none() | st.tuples(*[st.sampled_from(["0", "1"])] * k))
        rows.append((f"f{n}", k, draw(SORTS), kids))
    return signature(rows)


def assert_table_matches_naive(sig, leaves, bound, want):
    table = TermTable(sig, leaves)
    ids = table.upto(bound, want)
    if want is None:
        # a first listing with want None hands ids out in its own order
        assert ids == list(range(len(table.nodes)))
    assert all(table.lookup[node] == n for n, node in enumerate(table.nodes))
    got = [table.terms[n] for n in ids]
    vars = {name: sort for name, sort, _ in leaves}
    weights = {name: w for name, _, w in leaves}
    assert got == naive_enumerate_terms(sig, vars, bound, sort=want, var_depths=weights)
    assert got == enumerate_terms(sig, vars, bound, sort=want, var_depths=weights)


@given(equations(), st.integers(0, 3), st.booleans(), st.data())
def test_table_order_equals_naive_enumeration(case, bound, weighted, data):
    sig, eq = case
    leaves = [
        (v, None, data.draw(st.integers(1, 3)) if weighted else 1) for v in eq.var_names()
    ]
    assert_table_matches_naive(sig, leaves, bound, None)


@given(sorted_signatures(), st.integers(0, 3), SORTS, st.data())
def test_sorted_table_order_equals_naive_enumeration(sig, bound, want, data):
    names = ("x", "y", "z")[: data.draw(st.integers(0, 3))]
    leaves = [(v, data.draw(SORTS), data.draw(st.integers(1, 3))) for v in names]
    assert_table_matches_naive(sig, leaves, bound, want)


@st.composite
def wide_signatures(draw):
    """Arity 0-3 operators (the first nullary), each at a target index or
    none, with child indices or none."""
    rows = []
    for n, k in enumerate([0] + draw(st.lists(st.integers(0, 3), max_size=3))):
        kids = draw(st.none() | st.tuples(*[st.sampled_from(["0", "1"])] * k))
        rows.append((f"f{n}", k, draw(SORTS), kids))
    return signature(rows)


# the exact-depth walk against the full product: the same ids, depths
# and listings, whatever sort is listed first
def assert_walk_equals_product(sig, leaves, bound, firsts):
    table, product = TermTable(sig, leaves), ProductTermTable(sig, leaves)
    vars = {name: sort for name, sort, _ in leaves}
    weights = {name: w for name, _, w in leaves}
    for want in firsts:
        for d in range(bound + 1):
            ids = table.upto(d, want)
            assert ids == product.upto(d, want)
            assert [table.terms[n] for n in ids] == naive_enumerate_terms(
                sig, vars, d, sort=want, var_depths=weights
            )
    assert table.nodes == product.nodes
    assert table.lookup == product.lookup
    assert table.depths == product.depths == [weighted_depth(t, weights) for t in table.terms]


@given(wide_signatures(), st.integers(0, 3), st.data())
def test_exact_depth_walk_equals_the_full_product(sig, bound, data):
    names = ("x", "y", "z")[: data.draw(st.integers(0, 3))]
    leaves = [(v, data.draw(SORTS), data.draw(st.integers(1, 3))) for v in names]
    firsts = data.draw(st.permutations([None, "0", "1"]))
    assert_walk_equals_product(sig, leaves, bound, firsts)


def test_exact_depth_walk_on_a_ternary_operator_over_weighted_leaves():
    sig = signature([("c", 0, "0", ()), ("t", 3, "1", ("0", "1", "0")), ("u", 1, None, None)])
    leaves = [("x", "0", 2), ("y", "1", 1), ("z", None, 3)]
    assert_walk_equals_product(sig, leaves, 3, ["1", None, "0"])
    assert_walk_equals_product(sig, leaves, 3, [None, "0", "1"])


def assert_closed_ids_in_term_key_order(sig, bound):
    table = TermTable(sig)
    table.upto(bound)
    keys = [term_key(sig, t) for t in table.terms]
    assert all(a < b for a, b in zip(keys, keys[1:]))


# the stages rank their classes by closed id on this order
@given(equations(), st.integers(0, 3))
def test_closed_table_ids_follow_term_key(case, bound):
    assert_closed_ids_in_term_key_order(case[0], bound)


@given(sorted_signatures(), st.integers(0, 3))
def test_sorted_closed_table_ids_follow_term_key(sig, bound):
    assert_closed_ids_in_term_key_order(sig, bound)


# reader reads the id of the side with each variable replaced by the
# term of its id, and None when the table lacks that term
@given(equations(), st.integers(1, 3), st.data())
def test_reader_reads_the_substituted_term(case, bound, data):
    sig, eq = case
    names = eq.var_names()
    table = TermTable(sig, [(v, None, 1) for v in names[:1]])
    pool = table.upto(bound)
    ids = [data.draw(st.sampled_from(pool)) for _ in names]
    id_of = {t: n for n, t in enumerate(table.terms)}
    env = {v: table.terms[n] for v, n in zip(names, ids)}
    for t in (eq.lhs, eq.rhs):
        side = compile_side(t, names)
        assert table.reader(side)(ids)[side.out] == id_of.get(substitute(t, env, partial=True))


def read(table, t, env):
    side = compile_side(t, tuple(env))
    return table.reader(side)(env.values())[side.out]


def test_table_finds_instances_through_its_lookup():
    table = TermTable(SIG, [("zs", None, 1)])
    table.upto(3)
    zs = table.lookup[0]
    swap = SYS.equations[1]
    lhs = read(table, swap.lhs, {"zs": zs})
    assert table.terms[lhs] == substitute(swap.lhs, {"zs": Var("zs")})
    deeper = read(table, parse_term("(op cons a (op nil))", SIG), {})
    assert read(table, swap.lhs, {"zs": deeper}) is None


# --- validate_system's messages ---


def _node(op, *kids):
    return Node(OpSym.parse(op), Tab(kids))


def _system(lhs, rhs, names=("x",)):
    return SystemOfEquations((Equation("e", names, lhs, rhs),))


VSIG = signature([("nil @0", 0), ("cons a @1", 1), ("pair", 2), ("lim", NAT)])
X, Y, Z = Var("x"), Var("y"), Var("z")


@pytest.mark.parametrize("lhs, rhs, names, error, message", [
    (_node("nil"), X, ("x",), UnknownOp, "unknown operator 'nil'; indexed forms: 'nil @0'"),
    (X, _node("pair", X, _node("snd", X)), ("x",), UnknownOp, "unknown operator 'snd'"),
    (_node("pair", X), X, ("x",), ArityMismatch, "pair applied to 1 children"),
    (X, _node("lim", X), ("x",), ArityMismatch, "lim applied to 1 children"),
    (Node(OpSym("pair"), Comp("k", X)), X, ("x",), ArityMismatch,
     "pair is finitary but given a comprehension"),
    (_node("pair", Y, Z), X, ("x",), UnboundVariable, "equation e: undeclared variables ['y', 'z']"),
    (Node(OpSym("lim"), Comp("k", _node("cons a @1", Y))), X, ("x",), UnboundVariable,
     "equation e: undeclared variables ['y']"),
    # a side is checked whole before its variables, and lhs before rhs
    (_node("pair", Y, _node("pair", X)), X, ("x",), ArityMismatch, "pair applied to 1 children"),
    (_node("cons a @1", Y), _node("snd"), ("x",), UnboundVariable,
     "equation e: undeclared variables ['y']"),
    (_node("snd"), _node("cons a @1", Y), ("x",), UnknownOp, "unknown operator 'snd'"),
])
def test_validate_system_messages(lhs, rhs, names, error, message):
    with pytest.raises(error) as e:
        validate_system(VSIG, _system(lhs, rhs, names))
    assert str(e.value) == message


def test_validate_system_accepts_declared_variables_and_index_variables():
    body = _node("cons a @1", IxVar(IxV("k")))
    validate_system(VSIG, _system(_node("pair", X, Node(OpSym("lim"), Comp("k", body))), X))
    # a countable family declares every name
    validate_system(VSIG, SystemOfEquations((Equation("e", NAT, _node("pair", Y, Z), Y),)))


# --- the text table ---

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("path, carriers, prefix", [
    ("fixtures/bag.qit", {"X": ("a", "b")}, None),
    ("fixtures/commtree.qit", {"X": ("a", "b")}, None),
    ("perfbench/inputs/commtree.qit", {"X": ("a", "b", "c")}, None),
    ("perfbench/inputs/cmon.qit", {"X": ("a", "b")}, None),
    ("fixtures/htree.qit", {"X": ("a", "b")}, 2),
    ("fixtures/mixeq.qit", {}, 2),
    # operator params: the element and the index, cons a @1
    ("fixtures/commvec.qit", {"X": ("a", "b")}, 2),
    ("fixtures/vsuc.qit", {"X": ("a", "b")}, 2),
], ids=lambda v: v if isinstance(v, str) else None)
def test_texts_print_each_declared_id_as_show_term(path, carriers, prefix):
    sig, sys = elaborate(parse_decl((ROOT / path).read_text(encoding="utf-8")), carriers,
                         prefix=prefix)
    table = build_universe(sig, sys, 3).table
    assert len(table.nodes) > 1
    assert table.texts == [show_term(t) for t in table.terms]


@given(equations())
def test_texts_print_each_id_as_show_term(case):
    """Over variable leaves too, and when the table grows after a read."""
    sig, eq = case
    table = TermTable(sig, [(v, None, 1) for v in eq.var_names()])
    table.upto(2)
    assert table.texts == [show_term(t) for t in table.terms]
    table.upto(3)
    assert table.texts == [show_term(t) for t in table.terms]
