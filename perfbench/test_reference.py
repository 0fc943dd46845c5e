"""The reference checker against the test suite's own oracles.

Run with ``python3 -m pytest perfbench``.  On small universes the
reference's closed forms and canonical forms must agree with
``naive_congruence`` (a fixpoint over a relation matrix) and
``bag_multiset`` from ``tests/oracles.py``.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
for extra in (ROOT / "src", ROOT / "tests", ROOT / "perfbench"):
    if str(extra) not in sys.path:
        sys.path.insert(0, str(extra))

import reference as ref  # noqa: E402
from oracles import bag_multiset, naive_congruence  # noqa: E402
from qitbench.quotient import build_universe  # noqa: E402
from qitbench.schema import elaborate, parse_decl  # noqa: E402
from qitbench.sexpr import show_term  # noqa: E402
from qitbench.terms import IndexedSignature  # noqa: E402

DECL_FILES = {
    "bag": ROOT / "fixtures" / "bag.qit",
    "commvec": ROOT / "fixtures" / "commvec.qit",
    "commtree": ROOT / "perfbench" / "inputs" / "commtree.qit",
    "cmon": ROOT / "perfbench" / "inputs" / "cmon.qit",
}


def universe(decl: str, atoms: str, depth: int, prefix=None):
    sig, sys_ = elaborate(parse_decl(DECL_FILES[decl].read_text()), {"X": tuple(atoms)},
                          prefix=prefix)
    if isinstance(sig, IndexedSignature):
        sig = sig.flatten()
    return build_universe(sig, sys_, depth)


def naive_classes(uni) -> list[set[int]]:
    pairs = [(p.lhs, p.rhs) for p in uni.instance_pairs]
    return naive_congruence(list(uni.terms), pairs)


def reference_classes(decl: str, uni) -> list[set[int]]:
    canon = ref.MODELS[decl].canon
    groups: dict = {}
    for n, t in enumerate(uni.terms):
        groups.setdefault(canon(ref.read_term(show_term(t))), set()).add(n)
    return list(groups.values())


def partition(classes) -> set[frozenset]:
    return {frozenset(c) for c in classes}


CASES = (
    [("bag", atoms, d, None) for atoms in ("a", "ab", "abc") for d in range(1, 5)]
    + [("commtree", atoms, d, None) for atoms in ("a", "ab") for d in range(1, 4)]
    + [("commtree", "abc", d, None) for d in (1, 2)]
    + [("cmon", "a", d, None) for d in range(1, 4)]
)


@pytest.mark.parametrize("decl,atoms,depth,prefix", CASES)
def test_reference_partition_matches_naive_congruence(decl, atoms, depth, prefix):
    uni = universe(decl, atoms, depth, prefix)
    naive = naive_classes(uni)
    assert partition(reference_classes(decl, uni)) == partition(naive)
    assert ref.MODELS[decl].classes(atoms, depth, 0) == len(naive)


@pytest.mark.parametrize("decl,atoms,depth,prefix", CASES + [("commvec", "ab", 3, 2)])
def test_reference_enumeration_matches_printed_universe(decl, atoms, depth, prefix):
    uni = universe(decl, atoms, depth, prefix)
    printed = sorted(show_term(t) for t in uni.terms)
    assert sorted(ref.show(t) for t in ref.enumerate_terms(
        ref.MODELS[decl], atoms, depth, prefix or 0)) == printed
    assert all(ref.show(ref.read_term(p)) == p for p in printed)


@pytest.mark.parametrize("atoms,depth", [(a, d) for a in ("a", "ab", "abc") for d in range(1, 5)])
def test_bag_canon_and_eq_verdicts_match_oracles(atoms, depth):
    uni = universe("bag", atoms, depth)
    cls = {n: i for i, c in enumerate(naive_classes(uni)) for n in c}
    texts = [show_term(t) for t in uni.terms]
    for a, ta in enumerate(uni.terms):
        assert ref.bag_canon(ref.read_term(texts[a]))[0] == bag_multiset(ta)
        for b in range(len(texts)):
            ok = ref.expect_eq("bag", texts[a], texts[b])
            verdict = "EQUAL" if cls[a] == cls[b] else "DISTINCT"
            assert ok(0 if verdict == "EQUAL" else 1, verdict + "\n") is None


def test_commvec_class_count_matches_naive_congruence():
    uni = universe("commvec", "ab", 3, prefix=2)
    assert ref.commvec_classes(2, 3, 2) == len(naive_classes(uni))


def test_closed_forms_at_the_benchmark_sizes():
    assert ref.tree_classes(3, 3) == 48
    assert ref.monoid1_classes(3) == 5
    assert ref.bag_classes(2, 2) == 3
    assert ref.size_members(3) == 5
    assert ref.size_members(5) == 677


def test_checkers_reject_wrong_output():
    construct = ref.expect_construct("bag", "ab", 3, 3, True)
    stages = "".join(f"stage (sz zero): {n}\n" for n in range(5))
    good = stages + "colimit: 6 classes\noracle: bijection over 6 classes (intro checked 7)\n"
    assert construct(0, good) is None
    assert construct(0, good.replace("6 classes\n", "5 classes\n", 1)) is not None
    assert construct(1, good) is not None
    check = ref.expect_check("qleft")
    assert check(1, "T: REJECT\n  REJECT StrictlyPositiveFunction at 4:3: x\n") is None
    assert check(1, "T: REJECT\n  REJECT ConstantParameter at 4:3: x\n") is not None
