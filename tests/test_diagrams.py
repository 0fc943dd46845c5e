"""Diagram colimits and the power-diagram comparison check
(tests/theorems.py)."""

from __future__ import annotations

import itertools
import random
from collections.abc import Mapping
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qitbench.construction import build_fixed_point
from qitbench.diagrams import Colimit, Diagram
from qitbench.errors import FunctorialityViolation, QitError
from qitbench.schema import elaborate, parse_decl
from qitbench.sizes import SizeSig, SizeUniverse

from helpers import bag_sig, bag_system
from helpers import chain as chain_universe
from helpers import mutual_le_universe, tree_of
from oracles import PlumpOrder, naive_components, naive_diagram_fault, naive_levels
from theorems import (
    check_power_cocontinuity,
    constant_diagram,
    growing_chain,
    member_classes,
    power_diagram,
)

MIN = SizeSig.minimal()
FIXTURES = Path(__file__).parent.parent / "fixtures"


def per_member(u):
    """The identity label: a diagram given per member."""
    return {i: i for i in u.members}


def member_edges(d):
    """Every (member, element) node, member by member, and the edge of
    each member pair i < j at each element of i's carrier."""
    u, label = d.universe, d.label
    nodes = [(i, x) for i in u.members for x in d.family[label[i]]]
    edges = [
        ((i, x), (j, d.maps[(label[i], label[j])][x]))
        for i in u.members
        for j in u.above[i]
        for x in d.family[label[i]]
    ]
    return nodes, edges


def assert_classes_match_components(d, c):
    """The partition (i, x) -> inject(i, x) over every member node is
    the components of the gluing graph over every member pair, its
    classes numbered in the order of their first node."""
    nodes, edges = member_edges(d)
    index = {node: n for n, node in enumerate(nodes)}
    mine = [[index[node] for node in grp] for grp in member_classes(c)]
    assert mine == [sorted(comp) for comp in naive_components(nodes, edges)]
    # each class's nodes at the first member of its label group lie in it
    for cid, grp in enumerate(c.classes):
        for i, x in grp:
            assert c.inject(i, x) == cid


def universe():
    return SizeUniverse(MIN, 3)


def chain():
    return chain_universe(MIN, 3)


def test_chain_universe_is_linear():
    u = chain()
    assert len(u.members) == 3
    for n, i in enumerate(u.members):
        assert u.depths[i] == n + 1
        assert u.below[i] == u.members[:n]


# size operators of arities 0 to 3
MIXED = SizeSig((("zero", 0), ("unit", 0), ("suc", 1), ("join", 2), ("three", 3)))


@pytest.mark.parametrize(
    "build",
    [
        *[lambda h=h: SizeUniverse(MIN, h) for h in range(1, 5)],
        lambda: chain_universe(MIN, 5),
        mutual_le_universe,
        *[lambda h=h: SizeUniverse(MIXED, h) for h in (1, 2)],
    ],
    ids=[*[f"tree-h{h}" for h in range(1, 5)], "chain-h5", "mutual-le", "mixed-h1", "mixed-h2"],
)
def test_bitset_order_agrees_with_plump_order(build):
    # the universe ranks by height; the recursion is the reference
    u = build()
    order = PlumpOrder()
    trees = [tree_of(u, i) for i in u.members]
    for i, j in itertools.product(u.members, repeat=2):
        assert u.lt(i, j) == order.lt(trees[i], trees[j])
        assert u.le(i, j) == order.le(trees[i], trees[j])
    for i in u.members:
        assert tuple(u.below[i]) == tuple(j for j in u.members if order.lt(trees[j], trees[i]))
        assert tuple(u.above[i]) == tuple(k for k in u.members if order.lt(trees[i], trees[k]))


def test_height_order_agrees_with_plump_order_on_drawn_pairs_at_height_3():
    u = SizeUniverse(MIXED, 3)
    order = PlumpOrder()
    rng = random.Random(3)
    top = [m for m in u.members if u.depths[m] == 3]
    # pairs across the universe, and pairs within the top height
    for pool in (u.members, top):
        for _ in range(5000):
            i, j = rng.choice(pool), rng.choice(pool)
            assert u.lt(i, j) == order.lt(tree_of(u, i), tree_of(u, j))
            assert u.le(i, j) == order.le(tree_of(u, i), tree_of(u, j))


def test_check_walks_chains_up_to_the_top_height():
    u = SizeUniverse(MIN, 4)
    one = u.suc(0)
    top = u.suc(u.suc(one))
    assert u.depths[top] == 4
    # everything strictly between one and top has height 3
    middles = [j for j in u.above[one] if u.lt(j, top)]
    assert middles and all(u.depths[j] == 3 for j in middles)
    d = constant_diagram(u, (0, 1))
    d.check()
    corrupted = dict(d.maps)
    corrupted[(one, top)] = {0: 1, 1: 0}
    with pytest.raises(FunctorialityViolation, match="composition mismatch"):
        Diagram(u, d.label, d.family, corrupted).check()


def test_constant_diagram_colimit():
    u = universe()
    d = constant_diagram(u, (0, 1))
    c = Colimit(d)
    assert len(c) == 2
    c.check_cocone()
    zero = u.members[0]
    top = u.members[-1]
    assert c.inject(zero, 0) == c.inject(top, 0)
    assert c.inject(zero, 0) != c.inject(zero, 1)


def test_growing_chain_matches_component_oracle():
    u = chain()
    d = growing_chain(u)
    c = Colimit(d)
    assert len(c) == 3

    assert_classes_match_components(d, c)


def test_empty_diagram():
    u = universe()
    d = Diagram(u, per_member(u), {i: () for i in u.members}, {})
    with pytest.raises(FunctorialityViolation, match="no map"):
        d.check()
    maps = {(i, j): {} for i in u.members for j in u.members if u.lt(i, j)}
    c = Colimit(Diagram(u, per_member(u), {i: () for i in u.members}, maps))
    assert len(c) == 0


def test_functoriality_violations():
    u = universe()
    d = constant_diagram(u, (0, 1))
    zero, one = u.members[0], u.members[1]

    missing = dict(d.maps)
    del missing[(zero, one)]
    with pytest.raises(FunctorialityViolation, match="no map"):
        Diagram(u, d.label, d.family, missing).check()

    escaping = dict(d.maps)
    escaping[(zero, one)] = {0: 7, 1: 1}
    with pytest.raises(FunctorialityViolation, match="escapes the carrier at 0"):
        Diagram(u, d.label, d.family, escaping).check()

    undefined = dict(d.maps)
    undefined[(zero, one)] = {0: 0}
    with pytest.raises(FunctorialityViolation, match="undefined at 1"):
        Diagram(u, d.label, d.family, undefined).check()

    top = u.members[-1]
    twisted = dict(d.maps)
    twisted[(zero, top)] = {0: 1, 1: 0}
    with pytest.raises(FunctorialityViolation, match="composition mismatch"):
        Diagram(u, d.label, d.family, twisted).check()

    nocarrier = {i: (0, 1) for i in u.members[1:]}
    with pytest.raises(FunctorialityViolation, match="no carrier"):
        Diagram(u, d.label, nocarrier, d.maps).check()
    unlabelled = {i: i for i in u.members[1:]}
    with pytest.raises(FunctorialityViolation, match="no carrier"):
        Diagram(u, unlabelled, d.family, d.maps).check()


def test_inject_rejects_unknown_node():
    u = universe()
    c = Colimit(constant_diagram(u, ("x",)))
    with pytest.raises(QitError):
        c.inject(u.members[0], "y")


def test_power_diagram_shape():
    u = universe()
    d = constant_diagram(u, (0, 1))
    p = power_diagram(d, ("l", "r"))
    assert len(p.family[u.members[0]]) == 4
    p.check()


@pytest.mark.parametrize("npoints", [1, 2])
def test_power_cocontinuity_constant(npoints):
    u = universe()
    report = check_power_cocontinuity(constant_diagram(u, (0, 1)), tuple(range(npoints)))
    assert report.ok
    assert report.power_classes == report.product_size == 2**npoints
    assert report.witness_failed == 0
    if npoints > 0:
        assert report.witness_confirmed > 0


@pytest.mark.parametrize("npoints", [1, 2])
def test_power_cocontinuity_growing(npoints):
    u = chain()
    report = check_power_cocontinuity(growing_chain(u), tuple(range(npoints)))
    assert report.ok
    assert report.power_classes == report.product_size == 3**npoints
    assert report.witness_failed == 0


def test_growing_chain_over_tree_universe_is_not_directed():
    # The depth-truncated tree universe ends in an antichain of maximal
    # members, so a strictly growing family acquires unmerged copies of
    # its top elements and the power comparison loses surjectivity.
    u = universe()
    d = growing_chain(u)
    assert len(Colimit(d)) == 5
    assert not check_power_cocontinuity(d, ("p", "q")).ok


def test_power_cocontinuity_detects_failure():
    # Carriers at pairwise incomparable maximal members never meet a
    # common stage, so mixed tuples have no preimage.
    u = universe()
    tops = [i for i in u.members if not any(u.lt(i, j) for j in u.members)]
    assert len(tops) >= 2
    family = {i: () for i in u.members}
    for n, i in enumerate(tops):
        family[i] = (f"e{n}",)
    maps = {(i, j): {} for i in u.members for j in u.members if u.lt(i, j)}
    d = Diagram(u, per_member(u), family, maps)
    assert len(Colimit(d)) == len(tops)

    one = check_power_cocontinuity(d, ("p",))
    assert one.ok
    two = check_power_cocontinuity(d, ("p", "q"))
    assert not two.ok
    assert two.injective and not two.surjective
    assert two.power_classes == len(tops)
    assert two.product_size == len(tops) ** 2


def test_witness_skip_counts_pairs_without_upper_bound():
    u = universe()
    report = check_power_cocontinuity(constant_diagram(u, (0,)), ("p",))
    assert report.ok
    # the three height-3 members are maximal, so pairs among them and
    # with anything else at height 3 cannot be pushed anywhere
    assert report.witness_skipped > 0


def test_growing_chain_heights():
    u = universe()
    d = growing_chain(u)
    for i in u.members:
        assert len(d.family[i]) == u.depths[i]


def by_height(u, carrier, maps=None):
    """Label each member by its height: members of one height share a
    carrier, and identity maps between heights unless given."""
    heights = sorted({u.depths[i] for i in u.members})
    if maps is None:
        maps = {(a, b): {x: x for x in carrier} for a in heights for b in heights if a < b}
    return Diagram(u, {i: u.depths[i] for i in u.members}, {h: tuple(carrier) for h in heights}, maps)


def test_height_labelled_diagram_rejects_one_bad_transition():
    u = SizeUniverse(MIN, 4)
    good = by_height(u, (0, 1))
    good.check()
    assert len(Colimit(good)) == 2
    # the labels are far from injective: 26 members, 4 heights
    assert len(u.members) == 26 and len(good.maps) == 6
    twisted = dict(good.maps)
    twisted[(1, 3)] = {0: 1, 1: 0}
    bad = Diagram(u, good.label, good.family, twisted)
    with pytest.raises(FunctorialityViolation, match="composition mismatch") as info:
        bad.check()
    assert str(info.value) == naive_diagram_fault(bad)


@pytest.mark.parametrize("seed", range(60))
def test_labelled_check_reports_the_first_member_fault(seed):
    """Corrupt one or two label transitions of a labelled diagram; the
    check fails exactly when some member pair or triple does, naming the
    first in member order."""
    rng = random.Random(seed)
    u = SizeUniverse(MIN, rng.choice([3, 4]))
    if rng.random() < 0.5:
        good = by_height(u, (0, 1, 2))
    else:
        # the construction's labelling: one label per down-segment
        segment = {k: n for n, tops in enumerate(u.segments.values()) for k in tops}
        labels = sorted(set(segment.values()))
        maps = {
            (segment[i], segment[j]): {x: x for x in (0, 1, 2)}
            for i in u.members
            for j in u.above[i]
        }
        good = Diagram(u, segment, {n: (0, 1, 2) for n in labels}, maps)
    maps = dict(good.maps)
    for key in rng.sample(sorted(maps), min(len(maps), rng.choice([0, 1, 2]))):
        kind = rng.choice(["drop", "partial", "escape", "permute", "permute"])
        if kind == "drop":
            del maps[key]
        elif kind == "partial":
            maps[key] = {0: 0, 1: 1}
        elif kind == "escape":
            maps[key] = {0: 0, 1: 1, 2: 9}
        else:
            maps[key] = dict(zip((0, 1, 2), rng.sample((0, 1, 2), 3)))
    d = Diagram(u, good.label, good.family, maps)
    want = naive_diagram_fault(d)
    if want is None:
        d.check()
    else:
        with pytest.raises(FunctorialityViolation) as info:
            d.check()
        assert str(info.value) == want


@pytest.mark.parametrize("bound", [3, 4])
def test_height_labelled_colimit_matches_member_pair_components(bound):
    """Carrier range(h) at height h and inclusions: the element h - 1 is
    new at height h, so members of one height lying in one down-segment
    meet only through a member above them."""
    u = SizeUniverse(MIN, bound)
    heights = sorted({u.depths[i] for i in u.members})
    maps = {(a, b): {x: x for x in range(a)} for a in heights for b in heights if a < b}
    family = {h: tuple(range(h)) for h in heights}
    d = Diagram(u, {i: u.depths[i] for i in u.members}, family, maps)
    c = Colimit(d)
    assert_classes_match_components(d, c)
    c.check_cocone()


def bag_diagram(height_bound):
    u = SizeUniverse(MIN, height_bound)
    return build_fixed_point(bag_sig(), bag_system(), u, 2).to_diagram()


def commtree_abc_diagram():
    decl = parse_decl((FIXTURES / "commtree.qit").read_text(encoding="utf-8"))
    sig, sys = elaborate(decl, {"X": ("a", "b", "c")})
    return build_fixed_point(sig, sys, SizeUniverse(MIN, 3), 3).to_diagram()


@pytest.mark.parametrize(
    "build",
    [lambda: bag_diagram(3), lambda: bag_diagram(4), lambda: bag_diagram(5), commtree_abc_diagram],
    ids=["bag-d2-h3", "bag-d2-h4", "bag-d2-h5", "commtree-abc-d3-h3"],
)
def test_stage_diagram_colimit_matches_member_pair_components(build):
    d = build()
    # one map per distinct stage transition
    u = d.universe
    assert len(d.maps) == len({(d.label[i], d.label[j]) for i in u.members for j in u.above[i]})
    assert naive_diagram_fault(d) is None
    c = Colimit(d)
    assert_classes_match_components(d, c)
    c.check_cocone()


class CountedReads(Mapping):
    """A mapping that counts the reads of its values: in, get and []
    all read through __getitem__."""

    def __init__(self, inner):
        self.inner, self.reads = inner, 0

    def __getitem__(self, key):
        self.reads += 1
        return self.inner[key]

    def __iter__(self):
        return iter(self.inner)

    def __len__(self):
        return len(self.inner)


def test_stage_diagram_colimit_holds_one_node_per_stage_class():
    # a member-by-member gluing held 2,028 nodes here
    d = bag_diagram(5)
    label = CountedReads(d.label)
    d = Diagram(d.universe, label, d.family, d.maps)
    c = Colimit(d)
    c.check_cocone()
    # the label groups come from check's one walk over the members
    assert len(d.universe.members) == 677 and label.reads <= 4 * 677
    assert len(c) == 3
    assert sum(map(len, c.classes)) == sum(map(len, d.family.values())) == 12


GENERATED_UNIVERSES = {
    **{f"tree-h{h}": (lambda h=h: SizeUniverse(MIN, h)) for h in range(1, 5)},
    **{f"chain-h{h}": (lambda h=h: chain_universe(MIN, h)) for h in range(1, 5)},
    "mutual-le": mutual_le_universe,
}


@st.composite
def functorial_diagrams(draw):
    """A functorial diagram on a drawn universe.  Height h carries Y_h =
    range(n_h), with a drawn map step_h from Y_h to Y_{h+1}, and an
    element (h, y) is carried to height k by the steps between.  The
    labelling is drawn:
    - per member: i carries (height i, y) for y in Y_{height i} and a
      few extras of its own; an extra below the top height is carried as
      a drawn element of Y_{height i}, and one at the top height is
      reached by no map;
    - by intervals of heights, one label each (per height when every
      interval is one height): a label carries (h, y) for each height h
      in its interval, and every map carries an element to the top of
      its target's interval, so a label may span both levels.
    A step that is not onto leaves top elements that no map reaches."""
    u = draw(st.sampled_from(sorted(GENERATED_UNIVERSES)).map(lambda name: GENERATED_UNIVERSES[name]()))
    hs = {i: u.depths[i] for i in u.members}
    top = max(hs.values())
    sizes = [0]
    for _ in range(top):
        # a non-empty carrier needs a non-empty carrier above it
        sizes.append(draw(st.integers(1 if sizes[-1] else 0, 3)))
    steps = [[draw(st.integers(0, sizes[h + 1] - 1)) for _ in range(sizes[h])] for h in range(top)]

    def carry(h, y, k):
        for g in range(h, k):
            y = steps[g][y]
        return y

    kind = draw(st.sampled_from(["member", "height", "coarse"]))
    if kind == "member":
        extras = {}
        for i in u.members:
            if hs[i] == top or sizes[hs[i]]:
                count = draw(st.integers(0, 2))
                extras[i] = [draw(st.integers(0, max(sizes[hs[i]] - 1, 0))) for _ in range(count)]
        family = {
            i: tuple((hs[i], y) for y in range(sizes[hs[i]]))
            + tuple(("extra", n) for n in range(len(extras.get(i, ()))))
            for i in u.members
        }

        def start(i, x):
            return x if x[0] != "extra" else (hs[i], extras[i][x[1]])

        maps = {
            (i, j): {x: (hs[j], carry(*start(i, x), hs[j])) for x in family[i]}
            for i in u.members
            for j in u.above[i]
        }
        return Diagram(u, {i: i for i in u.members}, family, maps)
    # interval n of heights ends at ends[n]
    cuts = [kind == "height" or draw(st.booleans()) for _ in range(1, top)]
    ends = [h for h, cut in zip(range(1, top), cuts) if cut] + [top]
    interval = {h: next(n for n, end in enumerate(ends) if h <= end) for h in range(1, top + 1)}
    family = {
        n: tuple((h, y) for h in range(1, end + 1) if interval[h] == n for y in range(sizes[h]))
        for n, end in enumerate(ends)
    }
    maps = {
        (a, b): {(h, y): (ends[b], carry(h, y, ends[b])) for h, y in family[a]}
        for a in family
        for b in family
        if a <= b
    }
    return Diagram(u, {i: interval[hs[i]] for i in u.members}, family, maps)


@given(functorial_diagrams())
def test_generated_diagram_colimit_matches_member_pair_components(d):
    assert naive_diagram_fault(d) is None
    assert [list(level.items()) for level in d.check()] == naive_levels(d)
    c = Colimit(d)
    assert_classes_match_components(d, c)
    c.check_cocone()


def test_check_cocone_catches_a_corrupted_class_row():
    d = bag_diagram(4)
    c = Colimit(d)
    u, label = d.universe, d.label
    # the first member with a non-empty carrier and a member above it
    i = next(m for m in u.members if d.family[label[m]] and u.above[m])
    # the first node of i's label group, which every member with i's label reads
    n = c._start[(False, label[i])]
    c._class_of[n] = (c._class_of[n] + 1) % len(c)
    # the first member pair at which the corrupted classes disagree
    nodes, edges = member_edges(d)
    first = next(a for a, b in edges if c.inject(*a) != c.inject(*b))
    with pytest.raises(QitError, match="cocone broken") as info:
        c.check_cocone()
    assert str(info.value) == f"cocone broken at ({u.show(first[0])}, {first[1]!r})"


def test_power_diagram_keeps_the_stage_labels():
    d = bag_diagram(4)
    p = power_diagram(d, ("l", "r"))
    assert p.label is d.label and p.maps.keys() == d.maps.keys()
    report = check_power_cocontinuity(d, ("p",))
    assert report.ok
    assert report.power_classes == report.product_size == len(Colimit(d))
