"""Plump order laws, size universes, and well-founded recursion (the
reference in tests/oracles.py)."""

from __future__ import annotations

import itertools
import re
from types import SimpleNamespace

import pytest

from qitbench.construction import build_fixed_point
from qitbench.errors import ArityMismatch, InfinitaryArity, QitError
from qitbench.sizes import SizeSig, SizeUniverse, size_signature_for
from qitbench.terms import NAT, Arity, signature

from helpers import (
    bag_sig,
    bag_system,
    chain,
    commvec_indexed,
    commvec_system,
    id_of,
    mutual_le_universe,
    size_arity,
    size_join,
    size_suc,
    size_zero,
    tree_of,
    upper_bound,
)
from oracles import CycleDetected, PlumpOrder, naive_size_members, show_size, size_height, wf_rec

MIN = SizeSig.minimal()
ZERO = size_zero(MIN)
ONE = size_suc(MIN, ZERO)


def test_size_literal_round_trip():
    """The literal show prints, and the one member behind it."""
    u = SizeUniverse(MIN, 3)
    i = id_of(u, size_join(MIN, ZERO, ONE))
    assert u.lookup[(1, (0, 1))] == i == 2
    assert u.nodes[i] == (1, (0, 1))
    text = u.show(i)
    assert text == "(sz join (sz zero) (sz join (sz zero) (sz zero)))"
    assert tree_of(u, i) == ("join", (("zero", ()), ("join", (("zero", ()), ("zero", ())))))
    assert show_size(tree_of(u, i)) == text


def test_height_frozen_values():
    u = SizeUniverse(MIN, 3)
    assert u.depths[id_of(u, ZERO)] == 1
    assert u.depths[id_of(u, ONE)] == 2
    assert u.depths[id_of(u, size_join(MIN, ZERO, ONE))] == 3
    assert u.depths[id_of(u, size_suc(MIN, ONE))] == 3
    for i in u.members:
        assert u.depths[i] == size_height(tree_of(u, i)) + 1


def test_universe_members_height3():
    u = SizeUniverse(MIN, 3)
    want = [
        "(sz zero)",
        "(sz join (sz zero) (sz zero))",
        "(sz join (sz zero) (sz join (sz zero) (sz zero)))",
        "(sz join (sz join (sz zero) (sz zero)) (sz zero))",
        "(sz join (sz join (sz zero) (sz zero)) (sz join (sz zero) (sz zero)))",
    ]
    assert u.members == range(5)
    assert [u.show(m) for m in u.members] == list(u.shown()) == want
    assert u.depths == [1, 2, 3, 3, 3]
    assert id_of(u, ONE) == 1


def test_universe_height4_count():
    u = SizeUniverse(MIN, 4)
    assert len(u.members) == 26
    assert len(set(u.shown())) == 26


def test_universe_members_must_include_their_children():
    with pytest.raises(QitError, match="child 0 of member 0 is not a universe member"):
        SizeUniverse(MIN, 2, members=[("join", (0, 0))])
    with pytest.raises(QitError, match="child 2 of member 1 is not a universe member"):
        SizeUniverse(MIN, 2, members=[("zero", ()), ("join", (0, 2)), ("join", (0, 0))])


@pytest.mark.parametrize("members, twice", [
    ([("zero", ()), ("zero", ()), ("join", (0, 0))], ZERO),
    ([("zero", ()), ("join", (0, 0)), ("join", (1, 1)), ("join", (1, 1))], size_suc(MIN, ONE)),
])
def test_universe_members_must_be_listed_once(members, twice):
    with pytest.raises(QitError, match=f"^{re.escape(show_size(twice))} is listed twice"):
        SizeUniverse(MIN, 3, members=members)


@pytest.mark.parametrize("members, height_bound, message", [
    ([("zero", ()), ("nope", (0,))], 2,
     "member 1 has operator 'nope', which the size signature lacks"),
    ([("zero", ()), ("join", (0, 0, 0))], 2,
     "member 1: size operator join takes 2 children, got 3"),
    ([("zero", ()), ("join", (0,))], 2,
     "member 1: size operator join takes 2 children, got 1"),
    ([("zero", ()), ("join", (0, 0))], 1,
     "(sz join (sz zero) (sz zero)) has height 2, above the bound 1"),
    ([("zero", ()), ("join", (0, 0)), ("join", (1, 1)), ("join", (0, 0))], 3,
     "(sz join (sz zero) (sz zero)) is listed twice as a universe member"),
], ids=["unknown-operator", "ternary-join", "unary-join", "above-the-bound", "duplicate"])
def test_universe_refuses_nodes_the_size_table_would_not_list(members, height_bound, message):
    with pytest.raises(QitError) as info:
        SizeUniverse(MIN, height_bound, members=members)
    assert str(info.value) == message


def test_universe_refuses_members_out_of_height_order():
    # ids are the member order, so a lower member may not follow a higher
    sig = SizeSig((("zero", 0), ("join", 2), ("nil", 0)))
    with pytest.raises(QitError) as info:
        SizeUniverse(sig, 2, members=[("zero", ()), ("join", (0, 0)), ("nil", ())])
    assert str(info.value) == "(sz nil) of height 1 is listed after a higher member"
    u = SizeUniverse(sig, 2, members=[("zero", ()), ("nil", ()), ("join", (0, 1))])
    assert list(u.shown()) == ["(sz zero)", "(sz nil)", "(sz join (sz zero) (sz nil))"]


@pytest.mark.parametrize("sig, bound", [
    (MIN, 3),
    (MIN, 4),
    (size_signature_for(bag_sig(), bag_system()), 2),
], ids=["min-h3", "min-h4", "bag-h2"])
def test_listing_the_generated_nodes_gives_the_generated_universe(sig, bound):
    generated = SizeUniverse(sig, bound)
    members = [(sig.ops[op][0], kids) for op, kids in generated.nodes]
    u = SizeUniverse(sig, bound, members=members)
    assert (u.nodes, u.lookup, u.depths) == (generated.nodes, generated.lookup, generated.depths)
    assert (u.below, u.above, u.segments) == (generated.below, generated.above, generated.segments)
    if sig == MIN:
        bag, sys = bag_sig(), bag_system()
        export = "".join(build_fixed_point(bag, sys, generated, 2).export())
        assert "".join(build_fixed_point(bag, sys, u, 2).export()) == export


def test_below_segments_frozen():
    u = SizeUniverse(MIN, 3)
    zero, one, mid, mid2, two = u.members
    assert u.below[zero] == range(0)
    assert tuple(u.below[one]) == (zero,)
    assert tuple(u.below[mid]) == (zero, one)
    assert tuple(u.below[mid2]) == (zero, one)
    assert tuple(u.below[two]) == (zero, one)
    assert tuple(u.above[zero]) == (one, mid, mid2, two)
    assert u.above[two] == range(5, 5)


UNIVERSES = {
    **{f"h{h}": (lambda h=h: SizeUniverse(MIN, h)) for h in range(1, 6)},
    "chain": lambda: chain(MIN, 5),
    "members": mutual_le_universe,
}


@pytest.mark.parametrize("name", list(UNIVERSES))
def test_segments_group_members_by_down_segment(name):
    u = UNIVERSES[name]()
    assert u.depths == sorted(u.depths)
    want: dict = {}
    for k in u.members:
        want.setdefault(u.below[k], []).append(k)
    assert [(seg, tuple(ks)) for seg, ks in u.segments.items()] == [
        (seg, tuple(ks)) for seg, ks in want.items()
    ]
    assert len(u.segments) == len(set(u.depths))
    for k in u.members:
        assert tuple(u.above[k]) == tuple(j for j in u.members if k in u.below[j])


@pytest.mark.parametrize("name", list(UNIVERSES))
def test_stage_pairs_are_the_first_pairs_of_the_member_pair_walk(name):
    u = UNIVERSES[name]()
    appx = build_fixed_point(bag_sig(), bag_system(), u, 2)
    walk, seen = [], set()
    for i in u.members:
        for j in u.above[i]:
            key = (appx.stage_of[i], appx.stage_of[j])
            if key not in seen:
                seen.add(key)
                walk.append((i, j))
    assert list(appx.stage_pairs()) == walk


@pytest.mark.parametrize("name", list(UNIVERSES))
def test_shown_prints_every_member_as_show_size_does(name):
    u = UNIVERSES[name]()
    want = [show_size(tree_of(u, i)) for i in u.members]
    assert list(u.shown()) == [u.show(i) for i in u.members] == want


@pytest.mark.parametrize("bound, count", [(1, 1), (2, 2), (3, 5), (4, 26), (5, 677)])
def test_shown_is_the_text_of_the_reference_members(bound, count):
    u = SizeUniverse(MIN, bound)
    want = [show_size(t) for t in naive_size_members(MIN, bound)]
    assert list(u.shown()) == want
    assert len(u.members) == count


@pytest.mark.parametrize("bound", range(1, 6))
def test_suc_is_none_exactly_at_the_top_height(bound):
    u = SizeUniverse(MIN, bound)
    for i in u.members:
        sup = u.suc(i)
        assert (sup is None) == (u.depths[i] == bound)
        if sup is not None:
            assert tree_of(u, sup) == size_suc(MIN, tree_of(u, i))
            assert u.lt(i, sup)


@pytest.mark.parametrize("bound", [3, 4])
def test_plump_laws_exhaustive(bound):
    u = SizeUniverse(MIN, bound)
    # successors and joins of the top members lie outside the universe,
    # so the reference decides those pairs
    order = PlumpOrder()
    ms = u.members
    trees = [tree_of(u, i) for i in ms]
    for i in ms:
        assert u.le(i, i)
        assert order.lt(trees[i], size_suc(MIN, trees[i]))
        for c in u.nodes[i][1]:
            assert u.lt(c, i)
    for i, j in itertools.product(ms, repeat=2):
        ub = size_join(MIN, trees[i], trees[j])
        assert order.lt(trees[i], ub) and order.lt(trees[j], ub)
        if u.lt(i, j):
            assert u.le(i, j)
    for i, j, k in itertools.product(ms, repeat=3):
        if u.lt(i, j) and u.lt(j, k):
            assert u.lt(i, k)
        if u.le(i, j) and u.lt(j, k):
            assert u.lt(i, k)
        if u.lt(i, j) and u.le(j, k):
            assert u.lt(i, k)


def test_the_universe_decides_only_its_members():
    u = SizeUniverse(MIN, 2)
    zero = id_of(u, ZERO)
    assert id_of(u, size_suc(MIN, ONE)) is None
    for outside in (2, -1, ONE):
        for i, j in ((zero, outside), (outside, zero), (outside, outside)):
            with pytest.raises(QitError, match=re.escape(f"size {outside!r} is not a member")):
                u.lt(i, j)
            with pytest.raises(QitError, match=re.escape(f"size {outside!r} is not a member")):
                u.le(i, j)
        with pytest.raises(QitError, match=re.escape(f"size {outside!r} is not a member")):
            u.show(outside)
        with pytest.raises(QitError, match=re.escape(f"size {outside!r} is not a member")):
            u.suc(outside)


@pytest.mark.parametrize("outside", [True, False, 1.0, 0.0])
def test_the_universe_refuses_a_size_whose_class_is_not_int(outside):
    # isinstance lets a bool pass as an int, and (1.0, 1.0) hashes like
    # (1, 1): at h3, show(True) printed member 1, lt(False, True) held,
    # and suc(True) and suc(1.0) both returned member 4
    u = SizeUniverse(MIN, 3)
    refused = re.escape(f"size {outside!r} is not a member of the height-3 universe")
    for ask in (u.show, u.suc, lambda i: u.lt(0, i), lambda i: u.lt(i, 0),
                lambda i: u.le(0, i), lambda i: u.le(i, 0)):
        with pytest.raises(QitError, match=refused):
            ask(outside)


def test_rank_surrogate_forbids_cycles():
    u = SizeUniverse(MIN, 4)
    for i in u.members:
        assert not u.lt(i, i)
        for j in u.below[i]:
            assert size_height(tree_of(u, j)) < size_height(tree_of(u, i))


def test_order_is_not_antisymmetric():
    mid = size_join(MIN, ZERO, ONE)
    two = size_suc(MIN, ONE)
    assert mid != two
    order = PlumpOrder()
    assert order.le(mid, two) and order.le(two, mid)
    assert not order.lt(mid, two)


def test_upper_bound_dominates_family():
    sig = SizeSig((("zero", 0), ("join", 2), ("fam", 3)))
    family = [ZERO, ONE, ("zero", ())]
    ub = upper_bound(sig, "fam", family)
    assert ub == ("fam", tuple(family))
    order = PlumpOrder()
    for m in family:
        assert order.lt(m, ub)
    with pytest.raises(ArityMismatch):
        upper_bound(sig, "fam", [ZERO])


def test_size_sig_validation():
    with pytest.raises(ArityMismatch):
        SizeSig((("zero", 0),))
    with pytest.raises(ArityMismatch):
        SizeSig((("join", 2),))
    with pytest.raises(ArityMismatch):
        SizeSig((("zero", 0), ("zero", 0), ("join", 2)))
    with pytest.raises(ArityMismatch):
        size_arity(MIN, "missing")


def test_size_signature_for_bag():
    sig = size_signature_for(bag_sig(), bag_system())
    assert sig.ops == (
        ("zero", 0),
        ("join", 2),
        ("op_nil", 0),
        ("op_cons_a", 1),
        ("op_cons_b", 1),
        ("eq_swap_a_a", 1),
        ("eq_swap_a_b", 1),
        ("eq_swap_b_a", 1),
        ("eq_swap_b_b", 1),
    )


def test_size_signature_for_empty_system():
    from qitbench.terms import SystemOfEquations

    sig = size_signature_for(bag_sig(), SystemOfEquations(()))
    assert sig.ops == (("zero", 0), ("join", 2), ("op_nil", 0), ("op_cons_a", 1), ("op_cons_b", 1))


def test_size_signature_for_indexed():
    flat = commvec_indexed().flatten()
    sig = size_signature_for(flat, commvec_system())
    names = [n for n, _ in sig.ops]
    assert names[:2] == ["zero", "join"]
    assert "op_cons_a_@2" in names
    assert "eq_swap_a_b_@2" in names
    assert size_arity(sig, "op_cons_a_@2") == 1
    assert size_arity(sig, "eq_swap_a_b_@2") == 1


def test_size_signature_for_rejects_countable_arity():
    sig = signature([("sup", NAT)])
    from qitbench.terms import SystemOfEquations

    with pytest.raises(InfinitaryArity):
        size_signature_for(sig, SystemOfEquations(()))


def test_wf_rec_unfolding_and_schedule_independence():
    u = SizeUniverse(MIN, 3)

    def step(i, below):
        return 1 + max(below.values(), default=0)

    forward = wf_rec(u, step)
    backward = wf_rec(u, step, schedule=list(reversed(u.members)))
    assert forward == backward
    assert [forward[m] for m in u.members] == [1, 2, 3, 3, 3]
    for i in u.members:
        assert forward[i] == step(i, {j: forward[j] for j in u.below[i]})


def test_wf_rec_cycle_detection():
    i = 0
    fake = SimpleNamespace(members=(i,), below={i: (i,)})
    with pytest.raises(CycleDetected):
        wf_rec(fake, lambda m, below: 0)


def test_arity_helper():
    assert Arity(2).finite and not NAT.finite
    assert size_arity(MIN, "join") == 2
    assert size_zero(MIN) == ("zero", ())
    assert size_suc(MIN, ZERO) == ("join", (ZERO, ZERO))


# the generated members are the first listing of a TermTable over the
# size signature; the product-by-height loop is the reference
@pytest.mark.parametrize("sig, bound", [
    *[(MIN, h) for h in range(1, 6)],
    *[(size_signature_for(bag_sig(), bag_system()), h) for h in range(1, 4)],
], ids=lambda v: f"h{v}" if isinstance(v, int) else f"{len(v.ops)}ops")
def test_generated_members_equal_the_reference_loop(sig, bound):
    u = SizeUniverse(sig, bound)
    assert [tree_of(u, i) for i in u.members] == naive_size_members(sig, bound)
