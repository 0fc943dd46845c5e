"""Stage construction, its coherence checks, and the derived interface."""

from __future__ import annotations

import random
import re
import weakref
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from qitbench import construction, quotient
from qitbench.cli import main
from qitbench.construction import (
    Approximation,
    build_fixed_point,
    compare_with_oracle,
    diamond,
    qw_from_colimit,
)
from qitbench.errors import (
    InfinitaryArity,
    NotSatisfying,
    NotStabilized,
    QitError,
    StageOverflow,
)
from qitbench.quotient import build_universe, close_congruence, qwrec
from qitbench.schema import elaborate, parse_decl
from qitbench.sexpr import show_term
from qitbench.sizes import SizeSig, SizeUniverse
from qitbench.terms import (
    NAT,
    Equation,
    Node,
    OpDecl,
    OpSym,
    Signature,
    SystemOfEquations,
    Tab,
    TermTable,
    Var,
    signature,
)

import theorems
from helpers import (
    ab_sig,
    ab_system,
    bag_sig,
    bag_system,
    chain,
    class_of,
    colimit_sorts,
    commvec_indexed,
    commvec_system,
    equations,
    first_label_algebra,
    length_algebra,
    mutual_le_universe,
    tabulate,
)
from oracles import (
    bag_multiset,
    chained_diamond,
    naive_check_restriction,
    naive_diamond,
    naive_view,
    stage_records,
    substitute,
)

MIN = SizeSig.minimal()
FIXTURES = Path(__file__).parent.parent / "fixtures"


def bag_fixture(depth=3, height=3, atoms=("a", "b")):
    sig, sys = bag_sig(atoms), bag_system(atoms)
    u = SizeUniverse(MIN, height)
    return sig, sys, u, build_fixed_point(sig, sys, u, depth)


def test_leaf_stage_is_empty():
    _, _, u, appx = bag_fixture()
    assert len(appx.stage_at(0)) == 0


def test_one_atom_diamond_has_two_classes_at_depth_two():
    sig, sys, u, appx = bag_fixture(depth=2, atoms=("a",))
    one = u.suc(0)
    flats = [show_term(appx.build.closed.terms[f]) for f in appx.stage_at(one).classes]
    assert flats == ["(op nil)", "(op cons a (op nil))"]


def test_bag_stage_dump_golden():
    _, _, _, appx = bag_fixture()
    assert "".join(appx.dump()) == (
        "stage (sz zero): 0\n"
        "stage (sz join (sz zero) (sz zero)): 7\n"
        "stage (sz join (sz zero) (sz join (sz zero) (sz zero))): 6\n"
        "stage (sz join (sz join (sz zero) (sz zero)) (sz zero)): 6\n"
        "stage (sz join (sz join (sz zero) (sz zero)) (sz join (sz zero) (sz zero))): 6\n"
    )


def test_one_atom_export_golden():
    _, _, _, appx = bag_fixture(depth=2, atoms=("a",))
    assert "".join(appx.export()) == (
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
    sids = {appx.stage_of[m] for m in u.members if m not in (0, u.suc(0))}
    assert len(sids) == 1
    assert len(appx.stages) == 3


def test_diamond_rebuilds_the_successor_stage():
    _, _, u, appx = bag_fixture()
    s0 = appx.stage_at(0)
    again = diamond(appx.build, (s0,), s0.flat_instances, sid=99)
    want = appx.stage_at(u.suc(0))
    assert again.classes == want.classes


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
    assert colimit_sorts(qw) == {None: 6}
    # classes are exactly the sorted letter multisets
    seen = {bag_multiset(qw.class_flat(cid)) for cid, _ in cmp.class_pairs}
    assert seen == {(), ("a",), ("b",), ("a", "a"), ("a", "b"), ("b", "b")}


def test_oracle_comparison_reads_ids_through_the_oracle_table(monkeypatch):
    """An oracle whose ids are handed out in another order (B's sort
    first) gives the same bijection, read through its own lookup."""
    sig, sys = ab_sig(), ab_system()
    qw = qw_from_colimit(build_fixed_point(sig, sys, SizeUniverse(MIN, 3), 3))
    plain = compare_with_oracle(qw, close_congruence(build_universe(sig, sys, 3)))

    class BFirst(TermTable):
        def upto(self, bound, want=None):
            if not self.nodes:
                super().upto(bound, "B")
            return super().upto(bound, want)

    monkeypatch.setattr(quotient, "TermTable", BFirst)
    q = close_congruence(build_universe(sig, sys, 3))
    assert q.universe.table.nodes != qw.appx.build.closed.nodes
    cmp = compare_with_oracle(qw, q)
    assert (len(cmp.class_pairs), cmp.intro_checked) == (len(plain.class_pairs), plain.intro_checked) == (5, 6)
    for cid, oid in cmp.class_pairs:
        assert class_of(q, qw.class_flat(cid)) == oid


def test_height_two_does_not_stabilize():
    sig, sys = bag_sig(), bag_system()
    appx = build_fixed_point(sig, sys, SizeUniverse(MIN, 2), 3)
    q = close_congruence(build_universe(sig, sys, 3))
    with pytest.raises(NotStabilized):
        compare_with_oracle(qw_from_colimit(appx), q)


def test_chain_universe_reaches_the_same_colimit():
    sig, sys = bag_sig(), bag_system()
    appx = build_fixed_point(sig, sys, chain(MIN, 3), 3)
    q = close_congruence(build_universe(sig, sys, 3))
    assert len(compare_with_oracle(qw_from_colimit(appx), q).class_pairs) == 6


def test_commvec_classes_per_index():
    sig = commvec_indexed().flatten()
    sys = commvec_system()
    appx = build_fixed_point(sig, sys, SizeUniverse(MIN, 3), 3)
    q = close_congruence(build_universe(sig, sys, 3))
    qw = qw_from_colimit(appx)
    assert len(compare_with_oracle(qw, q).class_pairs) == len(q) == 6
    assert colimit_sorts(qw) == {"0": 1, "1": 2, "2": 3}


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


@pytest.mark.parametrize("child", [-6, 6, -1, 0.0, True, None])
def test_intro_and_class_flat_refuse_an_id_that_is_not_a_colimit_class(child):
    # bag {a,b} d3 h4 has 6 classes; -6 would read class 0 from the end
    qw = qw_from_colimit(bag_fixture(height=4)[3])
    assert len(qw) == 6
    assert qw.qwintro("cons a", [0]) == 1
    with pytest.raises(QitError) as info:
        qw.qwintro("cons a", [child])
    assert str(info.value) == f"{child!r} is not one of the 6 colimit classes"
    with pytest.raises(QitError) as info:
        qw.class_flat(child)
    assert str(info.value) == f"{child!r} is not one of the 6 colimit classes"


@pytest.mark.parametrize("cls", [-1, 7, 1.0, True, None])
def test_delta_and_inject_refuse_an_id_that_is_not_a_stage_class(cls):
    # member 1's stage on bag {a,b} d3 h4 has 7 classes: delta(1, 5, -1)
    # read class 6 from the end, and inject(1, True) read class 1
    appx = bag_fixture(height=4)[3]
    qw = qw_from_colimit(appx)
    assert len(appx.stage_at(1)) == 7
    assert appx.delta(1, 5, 0) == 0 and qw.inject(1, 1) == 1
    for ask in (lambda: appx.delta(1, 5, cls), lambda: qw.inject(1, cls)):
        with pytest.raises(QitError) as info:
            ask()
        assert str(info.value) == f"{cls!r} is not one of the 7 classes of the stage at {appx.universe.show(1)}"


@pytest.mark.parametrize("member", [True, False, 1.0, -1, 26])
def test_inject_refuses_a_size_that_is_not_a_member(member):
    # inject(True, 0) read member 1's label and returned 0
    qw = qw_from_colimit(bag_fixture(height=4)[3])
    assert len(qw.appx.universe.members) == 26
    for inject in (qw.inject, qw.colimit.inject):
        with pytest.raises(QitError) as info:
            inject(member, 0)
        assert str(info.value) == f"size {member!r} is not a member of the height-4 universe"


def test_intro_overflows_past_the_depth_bound():
    _, _, _, appx = bag_fixture()
    qw = qw_from_colimit(appx)
    top = qw.qwintro("cons a", [qw.qwintro("cons a", [qw.qwintro("nil", [])])])
    with pytest.raises(StageOverflow):
        qw.qwintro("cons a", [top])


def test_intro_overflows_past_the_universe_height():
    sig, sys = bag_sig(), bag_system()
    appx = build_fixed_point(sig, sys, chain(MIN, 2), 3)
    qw = qw_from_colimit(appx)
    nil = qw.qwintro("nil", [])
    with pytest.raises(StageOverflow) as info:
        qw.qwintro("cons a", [nil])
    assert str(info.value) == "no stage above (sz join (sz zero) (sz zero)) in a height-2 universe"


def test_qwequate_instances_land_together():
    _, _, _, appx = bag_fixture()
    rep = theorems.check_qwequate(qw_from_colimit(appx))
    assert rep.checked == 4
    assert rep.depth_skipped == 24
    assert rep.intro_checked == 4
    assert rep.intro_overflow == 0


def test_intro_stability_across_stages():
    _, _, _, appx = bag_fixture()
    rep = theorems.check_intro_stability(qw_from_colimit(appx))
    assert (rep.confirmed, rep.skipped, rep.failed) == (7, 31, 0)


def test_intro_stability_at_height_four():
    sig, sys = bag_sig(), bag_system()
    appx = build_fixed_point(sig, sys, SizeUniverse(MIN, 4), 3)
    rep = theorems.check_intro_stability(qw_from_colimit(appx))
    assert rep.failed == 0
    assert rep.confirmed > 0


def test_qwrec_folds_lengths():
    sig, sys, _, appx = bag_fixture()
    qw = qw_from_colimit(appx)
    rec = theorems.qwrec(qw, length_algebra(sig))
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
    """The fold the fold command runs (quotient.qwrec), checked against
    the recursor on the colimit (theorems.qwrec) through the class
    bijection compare_with_oracle certifies."""
    sig, sys, _, appx = bag_fixture()
    alg = length_algebra(sig)
    qw = qw_from_colimit(appx)
    rec = theorems.qwrec(qw, alg)
    q = close_congruence(build_universe(sig, sys, 3))
    oracle = qwrec(q, alg)
    assert oracle.hom_ok
    for cid, oid in compare_with_oracle(qw, q).class_pairs:
        assert rec.by_class[cid] == oracle.values[oid]


def test_qwrec_refuses_non_satisfying_algebras():
    sig, _, _, appx = bag_fixture()
    qw = qw_from_colimit(appx)
    with pytest.raises(NotSatisfying):
        theorems.qwrec(qw, first_label_algebra(sig))


def test_uniqueness_accepts_the_recursor_and_rejects_perturbations():
    sig, _, _, appx = bag_fixture()
    alg = length_algebra(sig)
    qw = qw_from_colimit(appx)
    rec = theorems.qwrec(qw, alg)
    assert theorems.check_uniqueness(qw, alg, rec.by_class).ok
    rng = random.Random("uniq")
    for _ in range(20):
        bad = dict(rec.by_class)
        cid = rng.randrange(len(qw))
        bad[cid] = (bad[cid] + 1 + rng.randrange(3)) % 4
        assert not theorems.check_uniqueness(qw, alg, bad).ok


def test_diagram_from_stages_has_a_valid_cocone():
    _, _, u, appx = bag_fixture()
    qw = qw_from_colimit(appx)
    qw.colimit.check_cocone()
    # injections agree with the stage maps
    one = u.suc(0)
    for j in u.members:
        if not u.lt(one, j):
            continue
        for c in range(len(appx.stage_at(one))):
            assert qw.inject(one, c) == qw.inject(j, appx.delta(one, j, c))


# --- the id-space diamond against the tree-based one ---


def stage_rows(stage) -> list[tuple]:
    """Each class as (flat, sort, fd, pairs), its pairs in slice order
    then enumeration order."""
    pairs: dict[int, list] = {c: [] for c in range(len(stage.classes))}
    for pair, c in stage.class_of_pair.items():
        pairs[c].append(pair)
    return [(*c, tuple(pairs[n])) for n, c in enumerate(stage_records(stage))]


def export_pairs(appx) -> dict[int, list[int]]:
    """Each stage's "| pairs N" counts, class by class, read off export."""
    counts: dict[int, list[int]] = {}
    for line in "".join(appx.export()).splitlines():
        if line.startswith("stage "):
            sid = int(line.split()[1].rstrip(":"))
            counts[sid] = []
        elif line.startswith("  class "):
            counts[sid].append(int(line.rsplit(" ", 1)[1]))
    return counts


def assert_stages_match_naive(appx) -> int:
    """Rebuild every shared stage with naive_diamond, over the same slice
    stages and the fire set of a member that realizes it, and demand the
    same classes and the same class_of_pair, and export's pair count of
    each class.  Returns the stage count."""
    u = appx.universe
    exported = export_pairs(appx)
    done: set[int] = set()
    for i in u.members:
        sid = appx.stage_of[i]
        if sid in done:
            continue
        done.add(sid)
        fire = {(appx.stage_of[k], appx.stage_of[j]) for j in u.below[i] for k in u.below[j]}
        stage = appx.stages[sid]
        naive = assert_stage_matches_naive(appx, stage, [appx.stages[s] for s in stage.slices], fire)
        assert exported[sid] == [len(c.pairs) for c in naive.classes]
    assert sorted(exported) == sorted(done)
    return len(done)


def assert_stage_matches_naive(appx, stage, slices, fire):
    """naive_diamond over the same slices and fire set gives stage's
    classes and class_of_pair; returns the naive stage."""
    naive = naive_diamond(appx.sig, appx.sys, appx.depth, slices, fire, stage.sid)
    assert stage.slices == naive.slices
    assert stage_rows(stage) == [tuple(c) for c in naive.classes]
    assert dict(stage.class_of_pair) == naive.class_of_pair
    return naive


# the generated universe, and two explicit ones: in the first <= is not
# antisymmetric, and the second is a chain
UNIVERSES = (
    lambda height: SizeUniverse(MIN, height),
    lambda height: mutual_le_universe(),
    lambda height: chain(MIN, 5),
)


def bag_builds():
    sig, sys = bag_sig(("a", "b")), bag_system(("a", "b"))
    for universe in UNIVERSES:
        for depth in (2, 3):
            yield build_fixed_point(sig, sys, universe(4), depth)


def commtree_ab_build():
    decl = parse_decl((FIXTURES / "commtree.qit").read_text())
    sig, sys = elaborate(decl, {"X": ("a", "b")})
    return build_fixed_point(sig, sys, SizeUniverse(MIN, 3), 3)


def test_bag_stages_equal_naive_diamond():
    for appx in bag_builds():
        assert assert_stages_match_naive(appx) == len(appx.stages)


def test_commvec_stages_equal_naive_diamond():
    sig = commvec_indexed().flatten()
    for universe in UNIVERSES:
        appx = build_fixed_point(sig, commvec_system(), universe(3), 3)
        assert assert_stages_match_naive(appx) == len(appx.stages)


def test_commtree_stages_equal_naive_diamond():
    appx = commtree_ab_build()
    assert assert_stages_match_naive(appx) == len(appx.stages)


HEIGHT_DEPTHS = [(h, d) for h in (1, 2, 3) for d in (2, 3)] + [(4, 2)]


@given(equations(), st.sampled_from(HEIGHT_DEPTHS))
def test_generated_signatures_agree_with_the_oracle_from_height_three(case, height_depth):
    # below height 3 a run may stop short of the oracle, but only by
    # saying so; from height 3 on, flattening is a bijection of classes
    sig, eq = case
    height, depth = height_depth
    sys = SystemOfEquations((eq,))
    q = close_congruence(build_universe(sig, sys, depth))
    try:
        appx = build_fixed_point(sig, sys, SizeUniverse(MIN, height), depth)
        report = compare_with_oracle(qw_from_colimit(appx), q)
    except (NotStabilized, StageOverflow):
        assert height <= 2
        return
    assert len(report.class_pairs) == len(q)
    assert sorted(oid for _, oid in report.class_pairs) == list(range(len(q)))


F0 = Node(OpSym("f0"), Tab(()))


def f1(t):
    return Node(OpSym("f1"), Tab((t,)))


@given(equations(), st.integers(1, 3), st.integers(2, 3))
# nullary nodes are keyed in the closure too: without that, f0 over two
# slices stays split from f0 one stage up
@example((signature([("f0", 0)]), Equation("e", (), F0, F0)), 3, 2)
@example(
    (signature([("f0", 0), ("f1", 1)]), Equation("e", ("x",), f1(f1(Var("x"))), f1(Var("x")))),
    3,
    3,
)
def test_generated_stages_equal_naive_diamond(case, height, depth):
    sig, eq = case
    appx = build_fixed_point(sig, SystemOfEquations((eq,)), SizeUniverse(MIN, height), depth)
    assert_stages_match_naive(appx)


def literal_stages(appx) -> list[tuple]:
    """Every member's literal stage, rebuilt as check_restriction builds
    it: one slice per smaller member, no collapse seeds.  Each comes
    with its slices and the full strict fire set naive_diamond is to
    emit collapse clauses along."""
    u = appx.universe
    position = u.members.index
    literal, out = {}, []
    for i in u.members:
        pos = position(i)
        slices = [literal[position(j)] for j in u.below[i]]
        fire = {(position(k), position(j)) for j in u.below[i] for k in u.below[j]}
        literal[pos] = chained_diamond(appx.build, slices, pos)
        out.append((literal[pos], slices, fire))
    return out


def assert_literal_stages_match_naive(appx) -> int:
    """Rebuild every member's literal stage and demand naive_diamond's
    classes and class_of_pair over the same slices and fire set.
    Returns the stage count."""
    rebuilt = literal_stages(appx)
    for stage, slices, fire in rebuilt:
        assert_stage_matches_naive(appx, stage, slices, fire)
    return len(rebuilt)


def assert_pullback(stage) -> None:
    """Each pair's class (class_of_pair) is the class, in the class-less
    slice, of the pair's flattening: the term with each token replaced
    by its class's flat, found among the closed terms as a tree.  The
    class-less slice's terms are the closed terms, in id order."""
    if not stage.slices:
        return
    closed = stage.build.closed.terms
    index = {t: n for n, t in enumerate(closed)}
    zero = next(low.sid for low in stage.slice_stages if not low.classes)
    flat = {
        f"~{low.sid}.{c}": closed[f] for low in stage.slice_stages for c, f in enumerate(low.classes)
    }
    pairs = stage.class_of_pair
    assert [t for s, t in pairs if s == zero] == closed
    for (s, t), c in pairs.items():
        assert stage.class_at[index[substitute(t, flat)]] == c


def assert_pullback_everywhere(appx) -> int:
    """assert_pullback on every shared and every literal stage; returns
    how many stages it read."""
    stages = list(appx.stages) + [stage for stage, _, _ in literal_stages(appx)]
    for stage in stages:
        assert_pullback(stage)
    return len(stages)


def test_bag_literal_stages_equal_naive_diamond():
    for appx in bag_builds():
        assert assert_literal_stages_match_naive(appx) == len(appx.universe.members)


def test_commtree_literal_stages_equal_naive_diamond():
    appx = commtree_ab_build()
    assert assert_literal_stages_match_naive(appx) == len(appx.universe.members)


@given(equations(), st.sampled_from(HEIGHT_DEPTHS))
def test_generated_literal_stages_equal_naive_diamond(case, height_depth):
    sig, eq = case
    height, depth = height_depth
    appx = build_fixed_point(sig, SystemOfEquations((eq,)), SizeUniverse(MIN, height), depth)
    assert assert_literal_stages_match_naive(appx) == len(appx.universe.members)


def test_bag_and_commtree_stages_are_pullbacks_of_the_class_less_slice():
    for appx in (*bag_builds(), commtree_ab_build()):
        assert assert_pullback_everywhere(appx) == len(appx.stages) + len(appx.universe.members)


@given(equations(), st.sampled_from(HEIGHT_DEPTHS))
def test_generated_stages_are_pullbacks_of_the_class_less_slice(case, height_depth):
    sig, eq = case
    height, depth = height_depth
    appx = build_fixed_point(sig, SystemOfEquations((eq,)), SizeUniverse(MIN, height), depth)
    assert assert_pullback_everywhere(appx) == len(appx.stages) + len(appx.universe.members)


def test_a_diamond_without_a_class_less_slice_names_its_stage():
    # closing on the closed table needs the class-less slice; without it
    # the partition would be the closed table's, not the slices'
    _, _, u, appx = bag_fixture()
    one = appx.stage_at(u.suc(0))
    assert len(one) > 0
    with pytest.raises(QitError, match="stage 99 has no class-less slice"):
        diamond(appx.build, (one,), one.flat_instances, sid=99)


# --- the restriction certificate stays live; stages keep no views ---


def replace_stage(appx, sid, **changes):
    """Put a copy of stage sid with the given fields changed in its place."""
    old = appx.stages[sid]
    fields = dict(sid=old.sid, slice_stages=old.slice_stages, classes=old.classes,
                  class_at=old.class_at, build=old.build)
    bad = construction.Stage(**{**fields, **changes})
    appx.stages = appx.stages[:sid] + (bad,) + appx.stages[sid + 1 :]
    return bad


def shared_id(class_at) -> int:
    """The first closed id whose class has another member."""
    seen = set()
    for n, c in enumerate(class_at):
        if c in seen:
            return n
        seen.add(c)
    raise AssertionError("every class is a singleton")


def test_restriction_catches_a_moved_local_id():
    # moving an id out of a class with another member splits that class:
    # one literal class meets two shared ones
    _, _, u, appx = bag_fixture()
    sid = max(appx.stage_of.values())
    stage = appx.stages[sid]
    moved = list(stage.class_at)
    n = shared_id(moved)
    moved[n] = (moved[n] + 1) % len(stage.classes)
    replace_stage(appx, sid, class_at=tuple(moved))
    with pytest.raises(QitError, match="restriction mismatch .*: partitions differ"):
        appx.check_restriction()


def test_restriction_catches_two_shared_classes_merged():
    # labels stay well defined and the views still match, but two literal
    # classes land on one shared class: the class map is not a bijection
    _, _, u, appx = bag_fixture()
    sid = max(appx.stage_of.values())
    stage = appx.stages[sid]
    assert len(stage.classes) > 1
    replace_stage(appx, sid, class_at=tuple(0 if c == 1 else c for c in stage.class_at))
    with pytest.raises(QitError, match="restriction mismatch .*: classes differ"):
        appx.check_restriction()


def test_restriction_catches_an_extra_class_that_no_id_reaches():
    # the shared stage keeps its class array, which equals the literal
    # stage's, but holds one more class record: the identity label is
    # no bijection onto its classes
    _, _, u, appx = bag_fixture()
    sid = max(appx.stage_of.values())
    stage = appx.stages[sid]
    replace_stage(appx, sid, classes=stage.classes + (stage.classes[-1],))
    member = u.show(next(i for i in u.members if appx.stage_of[i] == sid))
    expected = f"restriction mismatch at {member}: classes differ"
    assert restriction_outcome(naive_check_restriction, appx) == expected
    with pytest.raises(QitError, match=re.escape(expected)):
        appx.check_restriction()


def test_fixed_diag_catches_a_moved_local_id():
    # the moved id's class one stage down has a second member, which
    # still reads the old class: on bag h3 stage 1 is discrete, so a
    # single-id move in stage 2 would be another valid diagram
    _, _, _, appx = bag_fixture(height=4)
    sid = max(appx.stage_of.values())
    stage = appx.stages[sid]
    moved = list(stage.class_at)
    n = shared_id(appx.stages[sid - 1].class_at)
    moved[n] = (moved[n] + 1) % len(stage.classes)
    replace_stage(appx, sid, class_at=tuple(moved))
    with pytest.raises(QitError, match="stage diagram broken"):
        appx.check_fixed_diag()


def test_restriction_catches_a_flat_that_is_not_least_in_its_class():
    # a class of a slice stage claims a non-least member of the same depth
    # as its flat_id: the view's table is unchanged, so the translation
    # still covers it, and every pair of classes is unchanged too, so only
    # the flat-id check (the flats check of the translation) sees it; the
    # per-slice walk does not
    _, _, u, appx = bag_fixture(height=4)
    sid = max(appx.stage_of.values()) - 1
    stage = appx.stages[sid]
    closed = appx.build.closed
    groups = {}
    for n, c in enumerate(stage.class_at):
        groups.setdefault(c, []).append(n)
    c, other = next(
        (c, n)
        for c, members in groups.items()
        for n in members[1:]
        if closed.depths[n] == closed.depths[members[0]]
    )
    bad = replace_stage(appx, sid, classes=stage.classes[:c] + (other,) + stage.classes[c + 1 :])
    assert naive_view(bad).table.terms == naive_view(stage).table.terms
    assert naive_view(bad).flats != naive_view(stage).flats
    assert naive_check_restriction(appx) > 0
    with pytest.raises(QitError, match="restriction mismatch .*: views differ"):
        appx.check_restriction()


def test_restriction_drops_top_height_literal_stages(monkeypatch):
    # no member lies above a top-height member, so no later literal
    # diamond reads its literal stage as a slice
    _, _, u, appx = bag_fixture(depth=2, height=4)
    top = {pos for pos, i in enumerate(u.members) if not u.above[i]}
    assert len(top) > 1
    made = []
    build = construction.diamond

    def watched(*args, **kwargs):
        alive = [ref() for ref in made]
        assert not [st.sid for st in alive if st is not None and st.sid in top]
        del alive
        stage = build(*args, **kwargs)
        made.append(weakref.ref(stage))
        return stage

    monkeypatch.setattr(construction, "diamond", watched)
    appx.check_restriction()
    assert len(made) == len(u.members)
    assert all(ref() is None for ref in made)


def test_restriction_is_linear_in_members(monkeypatch):
    # bag {a,b} d2 h5: 677 members in heights of 1, 1, 3, 21 and 651.
    # Every member gets its own literal diamond, and each one with slices
    # (all but the least member's, which is class-less) its own closure;
    # each height's members share one slice tuple, and each literal
    # stage's instances are read once, when its height joins the slices;
    # top-height ones never are
    calls = []
    closures = []
    build, close = construction.diamond, construction.congruence_classes

    def watched(*args, **kwargs):
        calls.append(args[1])
        return build(*args, **kwargs)

    def closed(*args):
        closures.append(args[1])
        return close(*args)

    monkeypatch.setattr(construction, "diamond", watched)
    monkeypatch.setattr(construction, "congruence_classes", closed)
    _, _, u, appx = bag_fixture(depth=2, height=5)
    assert len(calls) == len(appx.stages) + len(u.members) == 682
    assert len(closures) == len(appx.stages) - 1 + len(u.members) - 1 == 680
    expected = naive_check_restriction(appx)
    calls.clear()
    closures.clear()
    reads = []
    instances = construction.Stage.flat_instances.func

    def counted(stage):
        reads.append(stage.sid)
        return instances(stage)

    monkeypatch.setattr(construction.Stage, "flat_instances", property(counted))
    assert appx.check_restriction() == expected
    assert len(calls) == len(u.members) == 677
    assert len(closures) == len(u.members) - 1 == 676
    for tops in u.segments.values():
        first = u.members.index(tops[0])
        shared = calls[first]
        assert all(calls[pos] is shared for pos in range(first, first + len(tops)))
        assert [st.sid for st in shared] == list(range(first))
    below_top = [pos for pos, i in enumerate(u.members) if u.above[i]]
    assert sorted(reads) == below_top and len(below_top) == 26


def restriction_outcome(check, appx):
    """What a restriction check returns, or the message it raises."""
    try:
        return check(appx)
    except QitError as err:
        return str(err)


def test_restriction_agrees_with_the_per_slice_walk():
    builds = [bag_fixture(depth=2, height=h)[3] for h in (3, 4, 5)]
    builds.append(bag_fixture(depth=3, height=4)[3])
    decl = parse_decl((FIXTURES / "commtree.qit").read_text())
    sig, sys = elaborate(decl, {"X": ("a", "b", "c")})
    builds.append(build_fixed_point(sig, sys, SizeUniverse(MIN, 3), 3))
    for appx in builds:
        assert appx.check_restriction() == naive_check_restriction(appx) > 0


@given(equations(), st.sampled_from(HEIGHT_DEPTHS))
def test_generated_restriction_agrees_with_the_per_slice_walk(case, height_depth):
    sig, eq = case
    height, depth = height_depth
    appx = build_fixed_point(sig, SystemOfEquations((eq,)), SizeUniverse(MIN, height), depth)
    expected = restriction_outcome(naive_check_restriction, appx)
    assert restriction_outcome(Approximation.check_restriction, appx) == expected


def assert_same_rejection(appx) -> str:
    """Both checks reject at the same member with the same message, save
    one case: the walk's "partitions differ" may be the records check's
    "views differ", when a class array relabelled as a whole passed its
    own members and so put a wrong class bijection under a slice.
    Returns the package's outcome."""
    got = restriction_outcome(Approximation.check_restriction, appx)
    expected = restriction_outcome(naive_check_restriction, appx)
    if got != expected:
        assert got == expected.replace(": partitions differ", ": views differ")
    return got


@given(st.integers(0, 2**32 - 1))
def test_restriction_agrees_with_the_per_slice_walk_on_corrupted_classes(seed):
    rng = random.Random(seed)
    appx = bag_fixture(height=rng.choice((3, 4)))[3]
    sid = rng.randrange(1, len(appx.stages))
    stage = appx.stages[sid]
    corrupted = list(stage.class_at)
    for _ in range(rng.randint(1, 3)):
        corrupted[rng.randrange(len(corrupted))] = rng.randrange(len(stage.classes))
    replace_stage(appx, sid, class_at=tuple(corrupted))
    assert_same_rejection(appx)


def test_a_relabelled_slice_stage_fails_its_flats_one_height_up():
    # swapping the labels of two classes of stage 1 with one sort and one
    # flat depth keeps its partition, so its own members pass, and keeps
    # every translation whole; the members above read each swapped
    # class's token at the other's flat
    _, _, u, appx = bag_fixture(height=4)
    stage = appx.stages[1]
    kinds = [(cls.sort, cls.fd) for cls in stage_records(stage)]
    c, d = next((c, d) for c, d in combinations(range(len(kinds)), 2) if kinds[c] == kinds[d])
    swap = {c: d, d: c}
    replace_stage(appx, 1, class_at=tuple(swap.get(c, c) for c in stage.class_at))
    got = assert_same_rejection(appx)
    member = u.show(next(i for i in u.members if appx.stage_of[i] == 2))
    assert got == f"restriction mismatch at {member}: views differ"


def test_a_plain_construct_builds_one_term_table(monkeypatch, capsys):
    # with class_of_pair never read, the build's closed table is the only
    # table: no stage, shared or literal, enumerates terms of its own
    def refuse(self):
        raise AssertionError("class_of_pair read inside the package")

    made = []

    def counted(*args, **kwargs):
        made.append(args)
        return TermTable(*args, **kwargs)

    monkeypatch.setattr(construction, "TermTable", counted)
    monkeypatch.setattr(construction.Stage, "class_of_pair", property(refuse))
    for fmt in ("text", "structured"):
        made.clear()
        argv = ["construct", str(FIXTURES / "bag.qit"), "--X", "a,b", "-d", "3",
                "--size-height", "4", "--format", fmt]
        assert main(argv) == 0
        assert "classes" in capsys.readouterr().out
        # one leafless table: the closed table the classes rank by
        assert [len(args) for args in made] == [1]


@pytest.mark.parametrize("oracle", [False, True], ids=["plain", "compare-oracle"])
@pytest.mark.parametrize("path, carrier, depth, height", [
    ("bag.qit", "a,b", 3, 4),
    ("commtree.qit", "a,b", 3, 3),
], ids=["bag", "commtree"])
def test_a_text_construct_materializes_no_term(monkeypatch, capsys, path, carrier, depth, height,
                                               oracle):
    # a class is its flat_id: the stages, their checks, the colimit and
    # the oracle comparison read ids, and only export and error messages
    # build a Term of a table
    def refuse(self):
        raise AssertionError("a TermTable materialized its Terms")

    monkeypatch.setattr(TermTable, "terms", property(refuse))
    argv = ["construct", str(FIXTURES / path), "--X", carrier, "-d", str(depth),
            "--size-height", str(height)] + ["--compare-oracle"] * oracle
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "colimit: " in out
    assert ("oracle: bijection over" in out) == oracle


# --- the interface reads id arrays, never (slice, term) pairs ---


def leaf_count_algebra(sig):
    return tabulate(
        sig, tuple(range(5)), lambda op, args: 1 if op.name == "leaf" else min(sum(args), 4)
    )


@pytest.mark.parametrize("path, carrier, depth, height, algebra", [
    ("bag.qit", "a,b", 3, 4, length_algebra),
    ("commtree.qit", "a,b", 3, 3, leaf_count_algebra),
], ids=["bag-d3-h4", "commtree-ab-d3-h3"])
def test_interface_never_reads_class_of_pair(monkeypatch, capsys, path, carrier, depth, height,
                                             algebra):
    def refuse(self):
        raise AssertionError("class_of_pair read inside the package")

    monkeypatch.setattr(construction.Stage, "class_of_pair", property(refuse))
    argv = ["construct", str(FIXTURES / path), "--X", carrier, "-d", str(depth),
            "--size-height", str(height), "--compare-oracle"]
    assert main(argv) == 0
    assert "oracle: bijection over" in capsys.readouterr().out

    decl = parse_decl((FIXTURES / path).read_text())
    sig, sys = elaborate(decl, {"X": tuple(carrier.split(","))})
    qw = qw_from_colimit(build_fixed_point(sig, sys, SizeUniverse(MIN, height), depth))
    assert theorems.check_qwequate(qw).checked > 0
    assert theorems.check_intro_stability(qw).ok
    alg = algebra(sig)
    rec = theorems.qwrec(qw, alg)
    assert rec.coherence_checked > 0
    assert theorems.check_uniqueness(qw, alg, rec.by_class).ok
