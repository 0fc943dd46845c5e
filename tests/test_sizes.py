"""Plump order laws, size universes, and well-founded recursion (the
reference in tests/oracles.py)."""

from __future__ import annotations

import itertools
import random
import re
from types import SimpleNamespace

import pytest

from qitbench.construction import build_fixed_point
from qitbench.errors import ArityMismatch, InfinitaryArity, QitError
from qitbench.sizes import SizeSig, SizeUniverse, SizeVal, height, show_size, size_signature_for
from qitbench.terms import NAT, Arity, signature

from helpers import (
    bag_sig,
    bag_system,
    chain,
    commvec_indexed,
    commvec_system,
    mutual_le_universe,
    size_arity,
    size_zero,
    upper_bound,
)
from oracles import CycleDetected, PlumpOrder, naive_size_members, size_height, wf_rec

MIN = SizeSig.minimal()
ZERO = size_zero(MIN)
ONE = MIN.suc(ZERO)


def test_size_literal_round_trip():
    """The literal show_size prints, and the one tree behind it."""
    i = MIN.join(ZERO, ONE)
    assert SizeVal("join", (SizeVal("zero"), SizeVal("join", (ZERO, ZERO)))) is i
    text = show_size(i)
    assert text == "(sz join (sz zero) (sz join (sz zero) (sz zero)))"


def test_height_frozen_values():
    assert height(ZERO) == 1
    assert height(ONE) == 2
    assert height(MIN.join(ZERO, ONE)) == 3
    assert height(MIN.suc(ONE)) == 3


def test_universe_members_height3():
    u = SizeUniverse(MIN, 3)
    assert [show_size(m) for m in u.members] == [
        "(sz zero)",
        "(sz join (sz zero) (sz zero))",
        "(sz join (sz zero) (sz join (sz zero) (sz zero)))",
        "(sz join (sz join (sz zero) (sz zero)) (sz zero))",
        "(sz join (sz join (sz zero) (sz zero)) (sz join (sz zero) (sz zero)))",
    ]
    assert all(height(m) <= 3 for m in u.members)
    assert u.position(ONE) == 1


def test_universe_height4_count():
    u = SizeUniverse(MIN, 4)
    assert len(u.members) == 26
    assert len(set(u.members)) == 26


def test_universe_members_must_include_their_children():
    with pytest.raises(QitError):
        SizeUniverse(MIN, 2, members=[ONE])


@pytest.mark.parametrize("members, twice", [
    ([ZERO, ZERO, ONE], ZERO),
    ([ZERO, ONE, MIN.suc(ONE), MIN.suc(ONE)], MIN.suc(ONE)),
])
def test_universe_members_must_be_listed_once(members, twice):
    with pytest.raises(QitError, match=f"{re.escape(show_size(twice))} is listed twice"):
        SizeUniverse(MIN, 3, members=members)


def test_explicit_members_shuffled_across_heights_give_the_generated_universe():
    # the sort by height is stable, so members of one height keep the
    # order they are given in; the shuffles below keep it too
    generated = SizeUniverse(MIN, 3)
    sig, sys = bag_sig(), bag_system()
    export = build_fixed_point(sig, sys, generated, 2).export()
    heights = [height(m) for m in generated.members]
    orders = [sorted(generated.members, key=height, reverse=True)]
    for seed in range(2):
        slots = random.Random(seed).sample(heights, len(heights))
        levels = {h: [m for m in generated.members if height(m) == h] for h in set(heights)}
        orders.append([levels[h].pop(0) for h in slots])
    for members in orders:
        u = SizeUniverse(MIN, 3, members=members)
        assert u.members == generated.members
        assert u.below == generated.below
        assert build_fixed_point(sig, sys, u, 2).export() == export


def test_below_segments_frozen():
    u = SizeUniverse(MIN, 3)
    zero, one, mid, mid2, two = u.members
    assert u.below[zero] == ()
    assert u.below[one] == (zero,)
    assert u.below[mid] == (zero, one)
    assert u.below[mid2] == (zero, one)
    assert u.below[two] == (zero, one)


UNIVERSES = {
    **{f"h{h}": (lambda h=h: SizeUniverse(MIN, h)) for h in range(1, 6)},
    "chain": lambda: chain(MIN, 5),
    "members": mutual_le_universe,
}


@pytest.mark.parametrize("name", list(UNIVERSES))
def test_segments_group_members_by_down_segment(name):
    u = UNIVERSES[name]()
    want: dict = {}
    for k in u.members:
        want.setdefault(u.below[k], []).append(k)
    assert list(u.segments.items()) == [(seg, tuple(ks)) for seg, ks in want.items()]
    for k in u.members:
        assert u.above[k] == tuple(j for j in u.members if k in u.below[j])


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
    assert u.shown() == [show_size(i) for i in u.members]


@pytest.mark.parametrize("bound", [3, 4])
def test_plump_laws_exhaustive(bound):
    u = SizeUniverse(MIN, bound)
    # successors and joins of the top members lie outside the universe,
    # so the reference decides those pairs
    order = PlumpOrder()
    ms = u.members
    for i in ms:
        assert u.le(i, i)
        assert order.lt(i, MIN.suc(i))
        for c in i.children:
            assert u.lt(c, i)
    for i, j in itertools.product(ms, repeat=2):
        ub = MIN.join(i, j)
        assert order.lt(i, ub) and order.lt(j, ub)
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
    outside = MIN.suc(ONE)
    for i, j in ((ZERO, outside), (outside, ZERO), (outside, outside)):
        with pytest.raises(QitError, match=re.escape(f"{show_size(outside)} is not a member")):
            u.lt(i, j)
        with pytest.raises(QitError, match=re.escape(f"{show_size(outside)} is not a member")):
            u.le(i, j)


def test_rank_surrogate_forbids_cycles():
    u = SizeUniverse(MIN, 4)
    for i in u.members:
        assert not u.lt(i, i)
        for j in u.below[i]:
            assert size_height(j) < size_height(i)


def test_order_is_not_antisymmetric():
    mid = MIN.join(ZERO, ONE)
    two = MIN.suc(ONE)
    assert mid != two
    order = PlumpOrder()
    assert order.le(mid, two) and order.le(two, mid)
    assert not order.lt(mid, two)


def test_upper_bound_dominates_family():
    sig = SizeSig((("zero", 0), ("join", 2), ("fam", 3)))
    family = [ZERO, ONE, SizeVal("zero")]
    ub = upper_bound(sig, "fam", family)
    assert ub == SizeVal("fam", tuple(family))
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
    i = ZERO
    fake = SimpleNamespace(members=(i,), below={i: (i,)})
    with pytest.raises(CycleDetected):
        wf_rec(fake, lambda m, below: 0)


def test_arity_helper():
    assert Arity(2).finite and not NAT.finite
    assert size_arity(MIN, "join") == 2
    assert size_zero(MIN) is SizeVal("zero")
    assert MIN.suc(ZERO) is SizeVal("join", (ZERO, ZERO))


# the generated members are the first listing of a TermTable over the
# size signature; the product-by-height loop is the reference
@pytest.mark.parametrize("sig, bound", [
    *[(MIN, h) for h in range(1, 6)],
    *[(size_signature_for(bag_sig(), bag_system()), h) for h in range(1, 4)],
], ids=lambda v: f"h{v}" if isinstance(v, int) else f"{len(v.ops)}ops")
def test_generated_members_equal_the_reference_loop(sig, bound):
    assert list(SizeUniverse(sig, bound).members) == naive_size_members(sig, bound)
