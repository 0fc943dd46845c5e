"""The ten acceptance criteria.

One test per criterion; each prints a verdict line with its elapsed
time and enforces the stated budget.  The module also runs standalone
(`python3 tests/test_acceptance.py`) and prints the same lines.
"""

from __future__ import annotations

import itertools
import random
import time
from pathlib import Path

import theorems
from helpers import (
    bag_sig,
    bag_system,
    chain,
    class_of,
    class_terms,
    colimit_sorts,
    commvec_indexed,
    commvec_system,
    length_algebra,
    size_join,
    size_suc,
    tree_of,
)
from oracles import PlumpOrder, bag_multiset, replay, size_height, wf_rec
from qitbench.construction import build_fixed_point, compare_with_oracle, qw_from_colimit
from qitbench.quotient import (
    EliminatorInput,
    build_universe,
    close_congruence,
    qwelim,
    qwrec,
)
from qitbench.schema import builtin_examples, check_decl, parse_decl, rule_sequence
from qitbench.sizes import SizeSig, SizeUniverse

FIXTURES = Path(__file__).parent.parent / "fixtures"
MIN = SizeSig.minimal()
SIG = bag_sig()
SYS = bag_system()


def _verdict(n: int, label: str, budget: float, t0: float) -> None:
    elapsed = time.perf_counter() - t0
    print(f"criterion {n:2d} PASS  {label}  ({elapsed:.2f}s < {budget:g}s)")
    assert elapsed < budget, f"criterion {n} exceeded its {budget}s budget: {elapsed:.2f}s"


def test_criterion_01_bag_quotient_counts_and_bijection():
    t0 = time.perf_counter()
    q = close_congruence(build_universe(SIG, SYS, 3))
    assert len(q) == 6
    images = [{bag_multiset(t) for t in cls} for cls in class_terms(q)]
    assert all(len(im) == 1 for im in images)
    got = sorted(next(iter(im)) for im in images)
    want = sorted(
        tuple(sorted(m))
        for k in range(3)
        for m in itertools.combinations_with_replacement(("a", "b"), k)
    )
    assert got == want
    _verdict(1, "Bag quotient: 6 classes in bijection with sorted multisets", 1.0, t0)


def test_criterion_02_monotone_approximation():
    t0 = time.perf_counter()
    for d in (1, 2, 3):
        small = close_congruence(build_universe(SIG, SYS, d))
        big = close_congruence(build_universe(SIG, SYS, d + 1))
        image = [class_of(big, c) for c in small.canon]
        assert len(set(image)) == len(image)
    _verdict(2, "Bag classes embed injectively into the next depth", 5.0, t0)


def test_criterion_03_eliminator_laws():
    t0 = time.perf_counter()
    q = close_congruence(build_universe(SIG, SYS, 3))

    def steps(op, child_cls, child_tags):
        if op.name == "nil":
            return "even"
        return "odd" if child_tags[0] == "even" else "even"

    res = qwelim(q, EliminatorInput(lambda cls: ("even", "odd"), steps))
    assert res.instances_checked == len(q.universe.instance_pairs) == 4
    assert res.envs_checked == 8
    _verdict(3, "parity eliminator: qwcomp pointwise, coherence on every swap", 1.0, t0)


def test_criterion_04_schema_fidelity():
    t0 = time.perf_counter()
    bag = parse_decl((FIXTURES / "bag.qit").read_text())
    report = check_decl(bag)
    assert report.ok and replay(bag, report)
    seq = {name: rule_sequence(j.derivation) for name, j in report.element + report.equality}
    assert seq["nil"] == ("Target", "ElCon")
    assert seq["cons"] == (
        "ConstantParameter", "InductiveArgument", "Target",
        "ElArgument", "ElArgument", "ElCon",
    )
    assert seq["swap"] == ("EqTarget", "EqArg", "EqArg", "EqArg", "EqCon")

    prime = check_decl(parse_decl((FIXTURES / "bagprime.qit").read_text()))
    assert not prime.ok and prime.first_reject()[1].rule == "ConditionalEquation"
    qleft = check_decl(parse_decl((FIXTURES / "qleft.qit").read_text()))
    assert not qleft.ok and qleft.first_reject()[1].rule == "StrictlyPositiveFunction"
    _verdict(4, "derivations replay the golden rule sequences; both rejections fire", 1.0, t0)


def test_criterion_05_encoding_fidelity():
    t0 = time.perf_counter()
    entries = builtin_examples()
    assert [e.name for e in entries] == ["bag", "commvec", "inftree", "wsusp", "wred", "blass"]
    for e in entries:
        assert e.table.render() == (FIXTURES / "tables" / f"{e.name}.txt").read_text(), e.name
    _verdict(5, "all six elaboration tables match their golden files", 1.0, t0)


def test_criterion_06_plump_order_suite():
    t0 = time.perf_counter()
    u = SizeUniverse(MIN, 3)
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
            assert size_height(trees[i]) < size_height(trees[j])
    for i, j, k in itertools.product(ms, repeat=3):
        if u.lt(i, j) and u.lt(j, k):
            assert u.lt(i, k)
        if u.le(i, j) and u.lt(j, k):
            assert u.lt(i, k)
        if u.lt(i, j) and u.le(j, k):
            assert u.lt(i, k)
    _verdict(6, "plump order laws hold exhaustively at height 3", 30.0, t0)


def test_criterion_07_wfrec_contract():
    t0 = time.perf_counter()
    u = SizeUniverse(MIN, 3)

    def step(i, below):
        return (len(below), 1 + max((v[1] for v in below.values()), default=0))

    forward = wf_rec(u, step)
    backward = wf_rec(u, step, schedule=list(reversed(u.members)))
    assert forward == backward
    for i in u.members:
        assert forward[i] == step(i, {j: forward[j] for j in u.below[i]})
    _verdict(7, "wfRec unfolds at every member; schedules agree", 5.0, t0)


def test_criterion_08_finite_cocontinuity():
    t0 = time.perf_counter()
    for npoints in (1, 2):
        pts = tuple(range(npoints))
        for diagram in (
            theorems.constant_diagram(SizeUniverse(MIN, 3), (0, 1)),
            theorems.growing_chain(chain(MIN, 3)),
        ):
            report = theorems.check_power_cocontinuity(diagram, pts)
            assert report.ok and report.injective and report.surjective
            assert report.witness_failed == 0
    _verdict(8, "power functor cocontinuity on constant and chain diagrams", 10.0, t0)


def test_criterion_09_construction_vs_oracle():
    t0 = time.perf_counter()
    appx = build_fixed_point(SIG, SYS, SizeUniverse(MIN, 3), 3)
    q = close_congruence(build_universe(SIG, SYS, 3))
    cmp = compare_with_oracle(qw_from_colimit(appx), q)
    assert len(cmp.class_pairs) == 6
    assert len({c for c, _ in cmp.class_pairs}) == 6
    assert len({o for _, o in cmp.class_pairs}) == 6
    assert cmp.intro_checked > 0

    flat = commvec_indexed()
    vsys = commvec_system()
    vappx = build_fixed_point(flat, vsys, SizeUniverse(MIN, 3), 3)
    vq = close_congruence(build_universe(flat, vsys, 3))
    vqw = qw_from_colimit(vappx)
    vcmp = compare_with_oracle(vqw, vq)
    assert len(vcmp.class_pairs) == len(vq)
    assert set(colimit_sorts(vqw)) >= {"0", "1", "2"}
    _verdict(9, "colimit classes certified against congruence classes (Bag, CommVec)", 60.0, t0)


def test_criterion_10_qwrec_agreement_and_uniqueness():
    t0 = time.perf_counter()
    alg = length_algebra(SIG)
    appx = build_fixed_point(SIG, SYS, SizeUniverse(MIN, 3), 3)
    qw = qw_from_colimit(appx)
    rec = theorems.qwrec(qw, alg)
    q = close_congruence(build_universe(SIG, SYS, 3))
    oracle = qwrec(q, alg)
    for cid, oid in compare_with_oracle(qw, q).class_pairs:
        assert rec.by_class[cid] == oracle.values[oid]

    h = dict(rec.by_class)
    assert theorems.check_uniqueness(qw, alg, h).ok
    rng = random.Random(7)
    for _ in range(20):
        cid = rng.choice(sorted(h))
        new = rng.choice([v for v in alg.carrier if v != h[cid]])
        perturbed = dict(h)
        perturbed[cid] = new
        assert not theorems.check_uniqueness(qw, alg, perturbed).is_hom
    _verdict(10, "qwrec agrees across sides; 20 perturbed maps fail isHom", 10.0, t0)


def _run_standalone() -> int:
    import traceback

    tests = sorted(
        (name, fn) for name, fn in globals().items() if name.startswith("test_criterion_")
    )
    failed = 0
    for name, fn in tests:
        try:
            fn()
        except BaseException:
            failed += 1
            print(f"{name} FAIL")
            traceback.print_exc()
    print(f"{len(tests) - failed}/{len(tests)} criteria passed")
    return 1 if failed else 0


if __name__ == "__main__":
    import sys

    sys.path.insert(0, str(Path(__file__).parent))
    raise SystemExit(_run_standalone())
