"""Congruence quotients against the naive inference oracle."""

from __future__ import annotations

import itertools

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    ab_sig,
    ab_system,
    bag_sig,
    bag_system,
    class_of,
    class_terms,
    commvec_indexed,
    commvec_system,
    equations,
    first_label_algebra,
    length_algebra,
    position,
    sort_of_class,
    tabulate,
)
from oracles import (
    bag_multiset,
    naive_build_universe,
    naive_close_congruence,
    naive_congruence,
    naive_qwelim,
    naive_qwrec,
    term_key,
)
from theorems import qwuniq_check
from qitbench.algebras import Algebra
from qitbench.errors import CoherenceFailure, NotSatisfying, QitError
from qitbench.quotient import (
    EliminatorInput,
    build_universe,
    close_congruence,
    congruence_classes,
    decide_eq,
    qwelim,
    qwrec,
)
from qitbench.sexpr import parse_term, show_term
from qitbench.terms import Equation, Node, OpSym, SystemOfEquations, Tab, TermTable, Var, signature

SIG = bag_sig()
SYS = bag_system()


def bag_quotient(depth=3):
    return close_congruence(build_universe(SIG, SYS, depth))


def test_universe_contents_and_skips():
    u = build_universe(SIG, SYS, 3)
    assert len(u.terms) == 7
    assert len(u.instance_pairs) == 4
    assert u.skipped == 24
    swap_ab = [p for p in u.instance_pairs if p.eq_name == "swap a b"]
    sides = {(show_term(p.lhs), show_term(p.rhs)) for p in swap_ab}
    assert ("(op cons a (op cons b (op nil)))", "(op cons b (op cons a (op nil)))") in sides


def test_instance_outside_the_universe_raises(monkeypatch):
    real = TermTable.reader
    dropped = "(op cons b (op cons b (op nil)))"

    def reader(table, side):
        # read dropped, a side of swap b b at zs = nil, as a miss
        read = real(table, side)

        def missing(ids):
            return [None if n is not None and show_term(table.terms[n]) == dropped else n
                    for n in read(ids)]

        return missing

    monkeypatch.setattr(TermTable, "reader", reader)
    with pytest.raises(QitError, match="swap b b escaped the universe"):
        build_universe(SIG, SYS, 3)


def test_bag_quotient_matches_multiset_oracle():
    q = bag_quotient()
    assert len(q) == 6
    for members in class_terms(q):
        readings = {bag_multiset(t) for t in members}
        assert len(readings) == 1
    assert len({bag_multiset(c) for c in q.canon}) == 6


def test_unsorted_operator_in_an_indexed_signature_raises():
    # f1 has no target index; listed once per sort, it gave 5 terms of
    # which 4 were distinct
    sig = signature([("f0", 0, "@0"), ("f1", 0), ("f2", 1, "@1", ["@0"])])
    with pytest.raises(QitError, match="operator f1 has no target index"):
        build_universe(sig, SystemOfEquations(()), 2)


def test_partition_equals_naive_oracle():
    for depth in (2, 3, 4):
        u = build_universe(SIG, SYS, depth)
        q = close_congruence(u)
        oracle = naive_congruence(list(u.terms), [(p.lhs, p.rhs) for p in u.instance_pairs])
        got = sorted(
            sorted(position(u, t) for t in members) for members in class_terms(q)
        )
        assert got == sorted(sorted(cls) for cls in oracle)


@given(equations(), st.integers(1, 3))
def test_generated_partitions_equal_naive_oracle(case, bound):
    sig, eq = case
    u = build_universe(sig, SystemOfEquations((eq,)), bound)
    q = close_congruence(u)
    oracle = naive_congruence(list(u.terms), [(p.lhs, p.rhs) for p in u.instance_pairs])
    got = sorted(sorted(position(u, t) for t in members) for members in class_terms(q))
    assert got == sorted(sorted(cls) for cls in oracle)


@st.composite
def id_graphs(draw):
    """A congruence_classes node table over ids 0..n-1, and seed pairs.
    The ids are made in a drawn order, leaves first, then unary f and
    binary g nodes over ids made earlier (an id that would repeat a node
    stays a leaf), so a parent may have a lower id than its children.
    The table holds a leaf as its id."""
    n = draw(st.integers(1, 12))
    order = draw(st.permutations(range(n)))
    arity = {"f": 1, "g": 2}
    nodes = {}
    for i in range(draw(st.integers(1, max(1, n - 1))), n):
        op = draw(st.sampled_from("fg"))
        kids = tuple(order[draw(st.integers(0, i - 1))] for _ in range(arity[op]))
        if (op, kids) not in nodes.values():
            nodes[order[i]] = (op, kids)
    table = [nodes.get(i, i) for i in range(n)]
    seeds = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=4))
    return table, seeds


# Keyed before the merge that changes a child's class, a parent must be
# re-keyed; and after a second merge, so must the absorbed class's parents.
@example(([0, ("g", (3, 2)), ("g", (0, 3)), ("g", (0, 0))], [(3, 0)]))
@example(([0, ("f", (0,)), ("f", (3,)), ("f", (1,)), ("g", (0, 0)), ("f", (4,))],
          [(2, 4), (0, 1)]))
# A parent is filed under its child's root, not the child: 5 = g(4, 4)
# must follow 4's root 3 when 6 = f(2) merges 3 into the larger class of
# 6, and meet 9 = g(7, 7).
@example(([0, 1, 2, ("f", (0,)), ("f", (1,)), ("g", (4, 4)), ("f", (2,)), 7, 8, ("g", (7, 7))],
          [(0, 1), (0, 2), (6, 7), (6, 8)]))
# 2 = g(1, 0) has both children in the class {0, 1}, so it is filed
# twice under one root, and re-keyed twice when 3 = h(1) meets 1 = h(0)
# and the larger class {3, 4, 5} absorbs {0, 1}.
@example(([0, ("h", (0,)), ("g", (1, 0)), ("h", (1,)), 4, 5], [(4, 5), (3, 5), (0, 1)]))
# A union made while the queue is drained re-queues a node that is
# still queued.
@example(([0, ("f", (0,)), ("g", (1, 1)), ("g", (2, 1)), ("f", (3,)), 5],
          [(0, 5), (4, 2), (3, 0)]))
@given(id_graphs())
def test_congruence_classes_equal_naive_oracle(graph):
    # the partition is the naive one, its classes numbered in the order of
    # their first id, and flats[c] is the least id of class c
    table, seeds = graph
    terms = {}

    def term(i):
        if i not in terms:
            node = table[i]
            op, kids = (f"c{i}", ()) if isinstance(node, int) else node
            terms[i] = Node(OpSym(op), Tab(tuple(map(term, kids))))
        return terms[i]

    n = len(table)
    universe = [term(i) for i in range(n)]
    class_at, flats = congruence_classes(table, seeds)
    got = sorted(sorted(i for i in range(n) if class_at[i] == c) for c in set(class_at))
    oracle = naive_congruence(universe, [(universe[a], universe[b]) for a, b in seeds])
    assert got == sorted(sorted(cls) for cls in oracle)
    assert list(dict.fromkeys(class_at)) == list(range(len(flats)))
    assert flats == [min(i for i in range(n) if class_at[i] == c) for c in range(len(flats))]


def test_canonical_representatives_are_least_and_stable():
    q = bag_quotient()
    for canon, members in zip(q.canon, class_terms(q)):
        assert canon in members
        best = min(members, key=lambda t: term_key(SIG, t))
        assert canon == best
        assert q.canon[class_of(q, canon)] == canon


def assert_ranked_by_term_key(q):
    """Members ascend in the reference term order, and so do the classes'
    least members."""
    sig = q.universe.sig
    for members in class_terms(q):
        keys = [term_key(sig, t) for t in members]
        assert all(a < b for a, b in zip(keys, keys[1:]))
    keys = [term_key(sig, c) for c in q.canon]
    assert all(a < b for a, b in zip(keys, keys[1:]))


@given(equations(), st.integers(1, 3))
def test_classes_rank_by_term_key(case, bound):
    sig, eq = case
    assert_ranked_by_term_key(close_congruence(build_universe(sig, SystemOfEquations((eq,)), bound)))


@st.composite
def indexed_signatures(draw):
    """Arity 0-2 operators (the first nullary), each at target index 0 or
    1 with every child at an index, as elaboration gives them."""
    rows = []
    for n, k in enumerate([0] + draw(st.lists(st.integers(0, 2), max_size=3))):
        kids = draw(st.tuples(*[st.sampled_from(["0", "1"])] * k))
        rows.append((f"f{n}", k, draw(st.sampled_from(["0", "1"])), kids))
    return signature(rows)


# index 0 is listed first but holds the deeper term, so the classes of
# index 1 rank between its terms
@example(signature([("f0", 0, "0", ()), ("f1", 1, "0", ("0",)), ("f2", 0, "1", ())]), 2)
@given(indexed_signatures(), st.integers(1, 3))
def test_classes_rank_by_term_key_across_indices(sig, bound):
    q = close_congruence(build_universe(sig, SystemOfEquations(()), bound))
    assert_ranked_by_term_key(q)


@pytest.mark.parametrize("prefix", range(4))
@pytest.mark.parametrize("bound", range(1, 5))
def test_commvec_classes_rank_by_term_key(prefix, bound):
    flat = commvec_indexed(prefix=prefix)
    q = close_congruence(build_universe(flat, commvec_system(prefix=prefix), bound))
    assert_ranked_by_term_key(q)


def test_decide_eq():
    q = bag_quotient()
    ab = parse_term("(op cons a (op cons b (op nil)))", SIG)
    ba = parse_term("(op cons b (op cons a (op nil)))", SIG)
    aa = parse_term("(op cons a (op cons a (op nil)))", SIG)
    deep = parse_term("(op cons a (op cons a (op cons a (op cons a (op nil)))))", SIG)
    assert decide_eq(q, ab, ba) == "EQUAL"
    assert decide_eq(q, ab, aa) == "DISTINCT"
    assert decide_eq(q, ab, deep) == "UNKNOWN"


def test_commvec_per_index_classes():
    flat = commvec_indexed()
    q = close_congruence(build_universe(flat, commvec_system(), 3))
    per_index = {s: 0 for s in flat.sorts}
    for cls in range(len(q)):
        per_index[sort_of_class(q, cls)] += 1
    assert per_index == {"0": 1, "1": 2, "2": 3}


def test_qwrec_length_fold():
    q = bag_quotient()
    rec = qwrec(q, length_algebra(SIG))
    by_canon = {bag_multiset(c): v for c, v in zip(q.canon, rec.values)}
    assert by_canon == {(): 0, ("a",): 1, ("b",): 1, ("a", "a"): 2, ("a", "b"): 2, ("b", "b"): 2}
    assert rec.hom_ok


def test_qwrec_requires_satisfaction():
    with pytest.raises(NotSatisfying):
        qwrec(bag_quotient(), first_label_algebra(SIG))


def parity_input(q):
    def steps(op, child_cls, child_tags):
        if op.name == "nil":
            return "even"
        return "odd" if child_tags[0] == "even" else "even"

    return EliminatorInput(lambda cls: ("even", "odd"), steps)


def test_qwelim_parity():
    q = bag_quotient()
    res = qwelim(q, parity_input(q))
    by_canon = {bag_multiset(c): v for c, v in zip(q.canon, res.values)}
    assert by_canon == {
        (): "even",
        ("a",): "odd",
        ("b",): "odd",
        ("a", "a"): "even",
        ("a", "b"): "even",
        ("b", "b"): "even",
    }
    assert res.comp_ok
    assert res.instances_checked == 4
    # two admissible tags for the single variable of each instance
    assert res.envs_checked == 8


def test_qwelim_coherence_failure_has_witness():
    q = bag_quotient()

    def head_label(op, child_cls, child_tags):
        return "*" if op.name == "nil" else op.params[0]

    with pytest.raises(CoherenceFailure) as e:
        qwelim(q, EliminatorInput(lambda cls: ("*", "a", "b"), head_label))
    assert e.value.witness[0].startswith("swap")


def test_qwuniq_accepts_the_fold_and_rejects_perturbations():
    q = bag_quotient()
    alg = length_algebra(SIG)
    rec = qwrec(q, alg)
    good = qwuniq_check(q, alg, rec.values)
    assert good.ok
    for cls, bad in itertools.product(range(len(q)), range(4)):
        values = list(rec.values)
        if values[cls] == bad:
            continue
        values[cls] = bad
        report = qwuniq_check(q, alg, values)
        assert not report.ok
        assert (not report.is_hom) or report.first_discrepancy is not None


# --- the id-based oracle against the tree reference in tests/oracles.py ---


def outcome(run):
    """What a call returns, or its error's type, message and witness."""
    try:
        return run()
    except QitError as e:
        return type(e).__name__, str(e), getattr(e, "witness", None)


def class_steps(nq):
    """Steps that send a node to its class, with the class as its only
    tag: coherent, and constant on each class."""
    table = {}
    for t in nq.universe.terms:
        table[(t.op, tuple(nq.class_of(c) for c in t.children.entries))] = nq.class_of(t)

    def steps(op, child_cls, child_tags):
        try:
            return table[(op, tuple(child_cls))]
        except KeyError:
            raise QitError(f"no node {op.show()} over {list(child_cls)}")

    return (lambda cls: (cls,)), steps


def parity_steps(k):
    """Steps that need not be coherent: a parity of the operator's
    position times k, the child classes and the child tags."""
    def steps(op, child_cls, child_tags):
        return (k * len(op.name) + sum(child_cls) + sum(child_tags)) % 2

    return (lambda cls: (0, 1)), steps


def assert_matches_tree_oracle(sig, sys, bound, alg, motive_steps):
    """Listing, skipped count, instances, partition, canon order, fold
    and elimination equal the tree reference's, errors included."""
    u, nu = build_universe(sig, sys, bound), naive_build_universe(sig, sys, bound)
    assert list(u.terms) == nu.terms
    assert u.skipped == nu.skipped
    assert len(u.instances) == len(nu.instance_pairs)
    assert [tuple(p) for p in u.instance_pairs] == nu.instance_pairs
    assert [position(u, t) for t in nu.terms] == list(range(len(nu.terms)))
    q, nq = close_congruence(u), naive_close_congruence(nu)
    assert class_terms(q) == nq.members
    assert q.canon == nq.canon
    assert [class_of(q, t) for t in nu.terms] == [nq.class_of(t) for t in nu.terms]

    def fold():
        rec = qwrec(q, alg)
        return rec.values, rec.hom_failures

    assert outcome(fold) == outcome(lambda: naive_qwrec(nq, alg))
    motive, steps = motive_steps(nq) if callable(motive_steps) else motive_steps

    def elim():
        res = qwelim(q, EliminatorInput(motive, steps))
        return res.values, res.comp_failures, res.instances_checked, res.envs_checked

    assert outcome(elim) == outcome(lambda: naive_qwelim(nq, motive, steps))
    return q


@st.composite
def table_algebras(draw, sig):
    """An algebra on {0, 1} with drawn tables; it may or may not satisfy."""
    tables = {
        d.op: {args: draw(st.sampled_from((0, 1))) for args in itertools.product((0, 1), repeat=d.arity.count)}
        for d in sig.ops
    }
    return Algebra(sig, (0, 1), tables)


@settings(max_examples=60, deadline=None)
@given(st.data(), equations(), st.integers(1, 3))
def test_generated_oracle_matches_tree_reference(data, case, bound):
    sig, eq = case
    alg = data.draw(table_algebras(sig))
    motive_steps = class_steps if data.draw(st.booleans()) else parity_steps(data.draw(st.integers(0, 1)))
    assert_matches_tree_oracle(sig, SystemOfEquations((eq,)), bound, alg, motive_steps)


def capped_length_algebra(sig, cap):
    return tabulate(sig, range(cap + 1), lambda op, args: 0 if not args else min(args[0] + 1, cap))


AB_SIG, AB_SYS = ab_sig(), ab_system()


# each with a length capped where it satisfies the equations
@pytest.mark.parametrize("sig, sys, bound, cap", [
    (SIG, SYS, 2, 3), (SIG, SYS, 3, 3), (SIG, SYS, 4, 3),
    (commvec_indexed(), commvec_system(), 3, 3),
    (commvec_indexed(), commvec_system(), 4, 3),
    (AB_SIG, AB_SYS, 4, 1),
], ids=["bag-d2", "bag-d3", "bag-d4", "commvec-d3", "commvec-d4", "ab-d4"])
@pytest.mark.parametrize("kind", ["class", "parity"])
def test_fixture_oracles_match_tree_reference(sig, sys, bound, cap, kind):
    motive_steps = class_steps if kind == "class" else parity_steps(1)
    alg = capped_length_algebra(sig, cap)
    q = assert_matches_tree_oracle(sig, sys, bound, alg, motive_steps)
    if kind == "class":
        # the success paths ran: a fold and an elimination with no failures
        assert qwrec(q, alg).hom_ok
        motive, steps = class_steps(naive_close_congruence(naive_build_universe(sig, sys, bound)))
        assert qwelim(q, EliminatorInput(motive, steps)).comp_ok


def test_elimination_reads_child_classes_in_order():
    # p(x, a) = x is not commutative, so steps that read p's child
    # classes in the wrong order split an instance
    sig = signature([("a", 0), ("b", 0), ("p", 2)])
    x = Var("x")
    unit = Equation("unit", ("x",), Node(OpSym("p"), Tab((x, Node(OpSym("a"), Tab(()))))), x)
    sys = SystemOfEquations((unit,))
    alg = tabulate(sig, (0, 1), lambda op, args: args[0] if args else int(op.name == "b"))
    q = assert_matches_tree_oracle(sig, sys, 2, alg, class_steps)
    motive, steps = class_steps(naive_close_congruence(naive_build_universe(sig, sys, 2)))
    assert qwelim(q, EliminatorInput(motive, steps)).comp_ok


def test_ab_listing_is_not_id_order():
    u = build_universe(AB_SIG, AB_SYS, 3)
    assert list(u.ids) != sorted(u.ids)
    assert [show_term(t) for t in u.terms[:3]] == ["(op a)", "(op f (op a))", "(op f (op f (op a)))"]
