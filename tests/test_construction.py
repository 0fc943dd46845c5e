"""Stage construction, its coherence checks, and the derived interface."""

from __future__ import annotations

import random
from pathlib import Path

import pytest

from qitbench.construction import (
    build_fixed_point,
    compare_with_oracle,
    diamond,
    qw_from_colimit,
)
from qitbench.errors import (
    InfinitaryArity,
    NotSatisfying,
    NotStabilized,
    StageOverflow,
)
from qitbench.quotient import build_universe, close_congruence, qwrec
from qitbench.schema import elaborate, parse_decl
from qitbench.sexpr import show_term
from qitbench.sizes import SizeSig, SizeUniverse
from qitbench.terms import NAT, OpDecl, OpSym, Signature, SystemOfEquations

from helpers import (
    bag_sig,
    bag_system,
    commvec_indexed,
    commvec_system,
    first_label_algebra,
    length_algebra,
)
from oracles import bag_multiset

MIN = SizeSig.minimal()
FIXTURES = Path(__file__).parent.parent / "fixtures"


def bag_fixture(depth=3, height=3, atoms=("a", "b")):
    sig, sys = bag_sig(atoms), bag_system(atoms)
    u = SizeUniverse(MIN, height)
    return sig, sys, u, build_fixed_point(sig, sys, u, depth)


def test_leaf_stage_is_empty():
    _, _, u, appx = bag_fixture()
    assert len(appx.stage_at(u.sig.zero())) == 0


def test_one_atom_diamond_has_two_classes_at_depth_two():
    sig, sys, u, appx = bag_fixture(depth=2, atoms=("a",))
    one = u.sig.suc(u.sig.zero())
    flats = [show_term(c.flat) for c in appx.stage_at(one).classes]
    assert flats == ["(op nil)", "(op cons a (op nil))"]


def test_bag_stage_dump_golden():
    _, _, _, appx = bag_fixture()
    assert appx.dump() == (
        "stage (sz zero): 0\n"
        "stage (sz join (sz zero) (sz zero)): 7\n"
        "stage (sz join (sz zero) (sz join (sz zero) (sz zero))): 6\n"
        "stage (sz join (sz join (sz zero) (sz zero)) (sz zero)): 6\n"
        "stage (sz join (sz join (sz zero) (sz zero)) (sz join (sz zero) (sz zero))): 6\n"
    )


def test_one_atom_export_golden():
    _, _, _, appx = bag_fixture(depth=2, atoms=("a",))
    assert appx.export() == (
        "depth 2 height 3\n"
        "member (sz zero) -> stage 0\n"
        "member (sz join (sz zero) (sz zero)) -> stage 1\n"
        "member (sz join (sz zero) (sz join (sz zero) (sz zero))) -> stage 2\n"
        "member (sz join (sz join (sz zero) (sz zero)) (sz zero)) -> stage 2\n"
        "member (sz join (sz join (sz zero) (sz zero)) (sz join (sz zero) (sz zero))) -> stage 2\n"
        "stage 0: slices () classes 0\n"
        "stage 1: slices (0) classes 2\n"
        "  class 0 (op nil) | pairs 1\n"
        "  class 1 (op cons a (op nil)) | pairs 1\n"
        "stage 2: slices (0 1) classes 2\n"
        "  class 0 (op nil) | pairs 3\n"
        "  class 1 (op cons a (op nil)) | pairs 4\n"
    )


def test_stage_sharing_by_down_segment():
    # the three height-3 members have the same strict down-segment
    _, _, u, appx = bag_fixture()
    sids = {appx.stage_of[m] for m in u.members if m not in (u.sig.zero(), u.sig.suc(u.sig.zero()))}
    assert len(sids) == 1
    assert len(appx.stages) == 3


def test_diamond_rebuilds_the_successor_stage():
    sig, sys, u, appx = bag_fixture()
    s0 = appx.stage_at(u.sig.zero())
    again = diamond(sig, sys, 3, [s0], set(), sid=99)
    want = appx.stage_at(u.sig.suc(u.sig.zero()))
    assert [c.flat for c in again.classes] == [c.flat for c in want.classes]


def test_fixed_diag_and_restriction_counts():
    _, _, _, appx = bag_fixture()
    assert appx.check_fixed_diag() == 7
    assert appx.check_restriction() == 25


def test_colimit_matches_oracle_bijectively():
    sig, sys, _, appx = bag_fixture()
    q = close_congruence(build_universe(sig, sys, 3))
    qw = qw_from_colimit(appx)
    cmp = compare_with_oracle(qw, q)
    assert len(cmp.class_pairs) == len(q) == 6
    assert cmp.intro_checked == 7
    assert cmp.per_sort == {None: 6}
    # classes are exactly the sorted letter multisets
    seen = {bag_multiset(qw.class_flat(cid)) for cid, _ in cmp.class_pairs}
    assert seen == {(), ("a",), ("b",), ("a", "a"), ("a", "b"), ("b", "b")}


def test_height_two_does_not_stabilize():
    sig, sys = bag_sig(), bag_system()
    appx = build_fixed_point(sig, sys, SizeUniverse(MIN, 2), 3)
    q = close_congruence(build_universe(sig, sys, 3))
    with pytest.raises(NotStabilized):
        compare_with_oracle(qw_from_colimit(appx), q)


def test_chain_universe_reaches_the_same_colimit():
    sig, sys = bag_sig(), bag_system()
    appx = build_fixed_point(sig, sys, SizeUniverse.chain(MIN, 3), 3)
    q = close_congruence(build_universe(sig, sys, 3))
    assert len(compare_with_oracle(qw_from_colimit(appx), q).class_pairs) == 6


def test_commvec_classes_per_index():
    sig = commvec_indexed().flatten()
    sys = commvec_system()
    appx = build_fixed_point(sig, sys, SizeUniverse(MIN, 3), 3)
    q = close_congruence(build_universe(sig, sys, 3))
    cmp = compare_with_oracle(qw_from_colimit(appx), q)
    assert cmp.per_sort == {"0": 1, "1": 2, "2": 3}


def test_commtree_colimit_matches_oracle_bijectively():
    """Commutativity under a nested node: subtrees made equal by comm
    make their parents equal, and that congruence has to reach across
    the slices of a stage."""
    decl = parse_decl((FIXTURES / "commtree.qit").read_text())
    sig, sys = elaborate(decl, {"X": ("a", "b")})
    appx = build_fixed_point(sig, sys, SizeUniverse(MIN, 3), 3)
    q = close_congruence(build_universe(sig, sys, 3))
    cmp = compare_with_oracle(qw_from_colimit(appx), q)
    assert len(cmp.class_pairs) == len(q) == 17
    assert sorted(oid for _, oid in cmp.class_pairs) == list(range(17))
    assert cmp.intro_checked == 38


def test_empty_system_gives_discrete_classes():
    sig = bag_sig()
    sys = SystemOfEquations(())
    appx = build_fixed_point(sig, sys, SizeUniverse(MIN, 3), 3)
    q = close_congruence(build_universe(sig, sys, 3))
    cmp = compare_with_oracle(qw_from_colimit(appx), q)
    assert len(cmp.class_pairs) == len(q) == 7


def test_countable_arity_is_rejected():
    sig = Signature((OpDecl(OpSym("sup", ()), NAT),))
    with pytest.raises(InfinitaryArity):
        build_fixed_point(sig, SystemOfEquations(()), SizeUniverse(MIN, 2), 2)


def test_intro_builds_canonical_classes():
    _, _, _, appx = bag_fixture()
    qw = qw_from_colimit(appx)
    nil = qw.qwintro("nil", [])
    assert show_term(qw.class_flat(nil)) == "(op nil)"
    a = qw.qwintro("cons a", [nil])
    ab = qw.qwintro("cons b", [a])
    ba = qw.qwintro("cons a", [qw.qwintro("cons b", [nil])])
    assert ab == ba


def test_intro_overflows_past_the_depth_bound():
    _, _, _, appx = bag_fixture()
    qw = qw_from_colimit(appx)
    top = qw.qwintro("cons a", [qw.qwintro("cons a", [qw.qwintro("nil", [])])])
    with pytest.raises(StageOverflow):
        qw.qwintro("cons a", [top])


def test_intro_overflows_past_the_universe_height():
    sig, sys = bag_sig(), bag_system()
    appx = build_fixed_point(sig, sys, SizeUniverse.chain(MIN, 2), 3)
    qw = qw_from_colimit(appx)
    nil = qw.qwintro("nil", [])
    with pytest.raises(StageOverflow):
        qw.qwintro("cons a", [nil])


def test_qwequate_instances_land_together():
    _, _, _, appx = bag_fixture()
    rep = qw_from_colimit(appx).check_qwequate()
    assert rep.checked == 4
    assert rep.depth_skipped == 24
    assert rep.intro_checked == 4
    assert rep.intro_overflow == 0


def test_intro_stability_across_stages():
    _, _, _, appx = bag_fixture()
    rep = qw_from_colimit(appx).check_intro_stability()
    assert (rep.confirmed, rep.skipped, rep.failed) == (7, 31, 0)


def test_intro_stability_at_height_four():
    sig, sys = bag_sig(), bag_system()
    appx = build_fixed_point(sig, sys, SizeUniverse(MIN, 4), 3)
    rep = qw_from_colimit(appx).check_intro_stability()
    assert rep.failed == 0
    assert rep.confirmed > 0


def test_qwrec_folds_lengths():
    sig, sys, _, appx = bag_fixture()
    qw = qw_from_colimit(appx)
    rec = qw.qwrec(length_algebra(sig))
    lengths = {show_term(qw.class_flat(cid)): v for cid, v in rec.by_class.items()}
    assert lengths == {
        "(op nil)": 0,
        "(op cons a (op nil))": 1,
        "(op cons b (op nil))": 1,
        "(op cons a (op cons a (op nil)))": 2,
        "(op cons a (op cons b (op nil)))": 2,
        "(op cons b (op cons b (op nil)))": 2,
    }
    assert rec.coherence_checked == 7


def test_qwrec_agrees_with_the_oracle_fold():
    sig, sys, _, appx = bag_fixture()
    alg = length_algebra(sig)
    qw = qw_from_colimit(appx)
    rec = qw.qwrec(alg)
    q = close_congruence(build_universe(sig, sys, 3))
    oracle = qwrec(q, alg)
    assert oracle.hom_ok
    for cid, oid in compare_with_oracle(qw, q).class_pairs:
        assert rec.by_class[cid] == oracle.values[oid]


def test_qwrec_refuses_non_satisfying_algebras():
    sig, _, _, appx = bag_fixture()
    qw = qw_from_colimit(appx)
    with pytest.raises(NotSatisfying):
        qw.qwrec(first_label_algebra(sig))


def test_uniqueness_accepts_the_recursor_and_rejects_perturbations():
    sig, _, _, appx = bag_fixture()
    alg = length_algebra(sig)
    qw = qw_from_colimit(appx)
    rec = qw.qwrec(alg)
    assert qw.check_uniqueness(alg, rec.by_class).ok
    rng = random.Random("uniq")
    for _ in range(20):
        bad = dict(rec.by_class)
        cid = rng.randrange(len(qw))
        bad[cid] = (bad[cid] + 1 + rng.randrange(3)) % 4
        assert not qw.check_uniqueness(alg, bad).ok


def test_diagram_from_stages_has_a_valid_cocone():
    _, _, u, appx = bag_fixture()
    qw = qw_from_colimit(appx)
    qw.colimit.check_cocone()
    # injections agree with the stage maps
    one = u.sig.suc(u.sig.zero())
    for j in u.members:
        if not u.lt(one, j):
            continue
        for c in range(len(appx.stage_at(one))):
            assert qw.inject(one, c) == qw.inject(j, appx.delta(one, j, c))
