"""Diagram colimits and the power-diagram comparison check
(tests/theorems.py)."""

from __future__ import annotations

import itertools

import pytest

from qitbench.diagrams import Colimit, Diagram, colim
from qitbench.errors import FunctorialityViolation, QitError
from qitbench.sizes import SizeSig, SizeUniverse, height

from helpers import chain as chain_universe
from helpers import mutual_le_universe, size_zero
from oracles import PlumpOrder, naive_components
from theorems import check_power_cocontinuity, constant_diagram, growing_chain, power_diagram

MIN = SizeSig.minimal()


def universe():
    return SizeUniverse(MIN, 3)


def chain():
    return chain_universe(MIN, 3)


def test_chain_universe_is_linear():
    u = chain()
    assert len(u.members) == 3
    for n, i in enumerate(u.members):
        assert height(i) == n + 1
        assert u.below[i] == u.members[:n]


@pytest.mark.parametrize(
    "build",
    [lambda: SizeUniverse(MIN, 4), lambda: chain_universe(MIN, 5), mutual_le_universe],
    ids=["tree-h4", "chain-h5", "mutual-le"],
)
def test_bitset_order_agrees_with_plump_order(build):
    u = build()
    order = PlumpOrder()
    for i, j in itertools.product(u.members, repeat=2):
        assert u.lt(i, j) == order.lt(i, j)
        assert u.le(i, j) == order.le(i, j)
    for i in u.members:
        assert u.below[i] == tuple(j for j in u.members if order.lt(j, i))
        assert u.above[i] == tuple(k for k in u.members if order.lt(i, k))


def test_check_walks_chains_up_to_the_top_height():
    u = SizeUniverse(MIN, 4)
    one = MIN.suc(size_zero(MIN))
    top = MIN.suc(MIN.suc(one))
    assert height(top) == 4
    # everything strictly between one and top has height 3
    middles = [j for j in u.above[one] if u.lt(j, top)]
    assert middles and all(height(j) == 3 for j in middles)
    d = constant_diagram(u, (0, 1))
    d.check()
    corrupted = dict(d.maps)
    corrupted[(one, top)] = {0: 1, 1: 0}
    with pytest.raises(FunctorialityViolation, match="composition mismatch"):
        Diagram(u, d.family, corrupted).check()


def test_constant_diagram_colimit():
    u = universe()
    d = constant_diagram(u, (0, 1))
    c = colim(d)
    assert len(c) == 2
    c.check_cocone()
    zero = u.members[0]
    top = u.members[-1]
    assert c.inject(zero, 0) == c.inject(top, 0)
    assert c.inject(zero, 0) != c.inject(zero, 1)


def test_growing_chain_matches_component_oracle():
    u = chain()
    d = growing_chain(u)
    c = colim(d)
    assert len(c) == 3

    nodes = [(i, x) for i in u.members for x in d.family[i]]
    pairs = [
        ((i, x), (j, step[x]))
        for (i, j), step in d.maps.items()
        for x in d.family[i]
    ]
    oracle = naive_components(nodes, pairs)
    index = {node: n for n, node in enumerate(nodes)}
    mine = [{index[node] for node in grp} for grp in c.classes]
    assert sorted(map(sorted, mine)) == sorted(map(sorted, oracle))


def test_empty_diagram():
    u = universe()
    d = Diagram(u, {i: () for i in u.members}, {})
    with pytest.raises(FunctorialityViolation):
        d.check()
    maps = {(i, j): {} for i in u.members for j in u.members if u.lt(i, j)}
    c = colim(Diagram(u, {i: () for i in u.members}, maps))
    assert len(c) == 0


def test_functoriality_violations():
    u = universe()
    d = constant_diagram(u, (0, 1))
    zero, one = u.members[0], u.members[1]

    missing = dict(d.maps)
    del missing[(zero, one)]
    with pytest.raises(FunctorialityViolation):
        Diagram(u, d.family, missing).check()

    escaping = dict(d.maps)
    escaping[(zero, one)] = {0: 7, 1: 1}
    with pytest.raises(FunctorialityViolation):
        Diagram(u, d.family, escaping).check()

    top = u.members[-1]
    twisted = dict(d.maps)
    twisted[(zero, top)] = {0: 1, 1: 0}
    with pytest.raises(FunctorialityViolation):
        Diagram(u, d.family, twisted).check()

    nocarrier = {i: (0, 1) for i in u.members[1:]}
    with pytest.raises(FunctorialityViolation):
        Diagram(u, nocarrier, d.maps).check()


def test_inject_rejects_unknown_node():
    u = universe()
    c = colim(constant_diagram(u, ("x",)))
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
    assert len(colim(d)) == 5
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
    d = Diagram(u, family, maps)
    assert len(colim(d)) == len(tops)

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
        assert len(d.family[i]) == height(i)
