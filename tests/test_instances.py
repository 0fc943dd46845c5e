"""The depth-budgeted instance generator against the brute-force product."""

from __future__ import annotations

import itertools

from hypothesis import given
from hypothesis import strategies as st

from qitbench.quotient import build_universe
from qitbench.terms import (
    Equation,
    Node,
    OpSym,
    SystemOfEquations,
    Tab,
    Var,
    enumerate_terms,
    instance_shape,
    signature,
)

from helpers import bag_system, equations
from oracles import depth, substitute, weighted_depth


def brute_force(eq, pools, weighted, bound):
    """Every tuple of the product, substituted and measured."""
    kept, skipped = [], 0
    for combo in itertools.product(*pools):
        env = dict(zip(eq.var_names(), (Var(c) if isinstance(c, str) else c for c in combo)))
        sides = (substitute(eq.lhs, env), substitute(eq.rhs, env))
        if max(weighted_depth(s, weighted) for s in sides) > bound:
            skipped += 1
        else:
            kept.append(combo)
    return kept, skipped


@given(equations(), st.integers(1, 4), st.data())
def test_closed_pools_match_brute_force(case, bound, data):
    sig, eq = case
    universe = enumerate_terms(sig, (), 3)
    pools = [data.draw(st.lists(st.sampled_from(universe), max_size=5)) for _ in eq.var_names()]
    envs, skipped = instance_shape(eq).envs(pools, depth, bound)
    assert (list(envs), skipped) == brute_force(eq, pools, None, bound)


@given(equations(), st.integers(1, 4), st.data())
def test_weighted_token_pools_match_brute_force(case, bound, data):
    _, eq = case
    weights = {f"~0.{c}": data.draw(st.integers(1, 4)) for c in range(4)}
    pools = [
        data.draw(st.lists(st.sampled_from(sorted(weights)), max_size=4)) for _ in eq.var_names()
    ]
    envs, skipped = instance_shape(eq).envs(pools, weights.__getitem__, bound)
    assert (list(envs), skipped) == brute_force(eq, pools, weights, bound)


@given(equations(), st.integers(1, 3))
def test_universe_instances_match_brute_force(case, bound):
    sig, eq = case
    u = build_universe(sig, SystemOfEquations((eq,)), bound)
    kept, skipped = brute_force(eq, [u.terms] * len(eq.var_names()), None, bound)
    assert [tuple(t for _, t in p.env) for p in u.instance_pairs] == kept
    assert u.skipped == skipped


def test_shape_of_swap():
    shape = instance_shape(bag_system().equations[0])
    assert (shape.names, shape.skeleton, shape.deepest) == (("zs",), 3, (3,))


def test_shape_takes_each_variables_deepest_occurrence():
    # in post-order the shallower x of f(g(x), g(h(x))) comes last
    def node(op, *kids):
        return Node(OpSym(op), Tab(kids))

    x, y = Var("x"), Var("y")
    eq = Equation("e", ("x", "y", "z"), node("f", node("g", x), node("g", node("h", x))), node("g", y))
    shape = instance_shape(eq)
    assert (shape.skeleton, shape.deepest) == (4, (4, 2, 0))
    assert depth(eq.lhs) == shape.skeleton


def test_commtree_d4_closed_form():
    """leaf a, leaf b and a commutative node at depth 4: 2 + 38^2 terms;
    comm needs both children of depth <= 3, so 38^2 instances are kept
    and the rest of the 1446^2 environments are skipped."""
    sig = signature([("leaf a", 0), ("leaf b", 0), ("node", 2)])
    node = OpSym("node")
    comm = Equation(
        "comm", ("l", "r"),
        Node(node, Tab((Var("l"), Var("r")))), Node(node, Tab((Var("r"), Var("l")))),
    )
    u = build_universe(sig, SystemOfEquations((comm,)), 4)
    assert len(u.terms) == 1446
    assert len(u.instance_pairs) == 1444
    assert u.skipped == 1446**2 - 1444 == 2_089_472
    low = [t for t in u.terms if depth(t) <= 3]
    assert [tuple(t for _, t in p.env) for p in u.instance_pairs] == list(
        itertools.product(low, low)
    )
