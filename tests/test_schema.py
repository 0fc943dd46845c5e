"""Declaration checking, elaboration, symbolic tables, and eliminators."""

from __future__ import annotations

from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import bag_sig, bag_system, class_terms, commvec_indexed, commvec_system
from oracles import bag_multiset, naive_tokenize, replay
from qitbench.errors import (
    NameClash,
    ParseError,
    QitError,
    UnsupportedParameterType,
)
from qitbench.quotient import build_universe, close_congruence
from qitbench.schema import (
    EXAMPLE_NAMES,
    Accept,
    ConstT,
    Ctor,
    NatParam,
    Param,
    Pi,
    QRef,
    QitDecl,
    Reject,
    SetParam,
    TNum,
    builtin_examples,
    check_decl,
    derive_eliminator,
    elaborate,
    parse_decl,
    rule_sequence,
    symbolic_table,
)
from qitbench.schema.parser import _tokenize
from qitbench.sexpr import show_term
from qitbench.terms import NAT, Comp, Node, fin

FIXTURES = Path(__file__).parent.parent / "fixtures"


def load(name: str) -> str:
    return (FIXTURES / name).read_text()


BAG = parse_decl(load("bag.qit"))
COMMVEC = parse_decl(load("commvec.qit"))
INFTREE = parse_decl(load("inftree.qit"))


# --- parsing ---


def test_parse_bag_shape():
    assert BAG.name == "Bag"
    assert [p.name for p in BAG.params] == ["X"]
    assert isinstance(BAG.params[0].kind, SetParam)
    assert [c.name for c in BAG.element_ctors] == ["nil", "cons"]
    assert [c.name for c in BAG.equality_ctors] == ["swap"]
    assert BAG.index_sort is None
    assert BAG.element_ctors[0].type == QRef()
    assert BAG.element_ctors[1].type == Pi("_", ConstT("X"), Pi("_", QRef(), QRef()))


def test_parse_indexed_header_and_numerals():
    assert COMMVEC.index_sort == "Nat"
    assert COMMVEC.element_ctors[0].type == QRef(index=TNum(0))


def test_parse_records_constructor_positions():
    # swap sits on the third constructor line of the block
    swap = BAG.equality_ctors[0]
    assert swap.line == 5
    assert swap.col == 3


def test_parse_continuation_lines_join():
    # the swap type spans two physical lines
    got = BAG.equality_ctors[0].type
    assert isinstance(got, Pi)


def test_parse_rejects_missing_where():
    with pytest.raises(ParseError) as e:
        parse_decl("qit Foo (X : Set)\n  mk : Foo\n")
    assert e.value.line == 1


def test_parse_rejects_garbage_header():
    with pytest.raises(ParseError):
        parse_decl("quot Foo where\n")


def test_parse_rejects_unterminated_binder():
    with pytest.raises(ParseError) as e:
        parse_decl("qit Foo (X : Set where\n  mk : Foo\n")
    assert e.value.line == 1
    assert e.value.col > 1


def test_parse_error_formats_position():
    err = ParseError("boom", 3, 7)
    assert "3:7" in str(err)


def test_fin_param_parses():
    decl = parse_decl("qit Pair (a : {l, r}) where\n  mk : Pair\n")
    kind = decl.params[0].kind
    assert kind.values == ("l", "r")


# Pieces of generated lines: symbols, ASCII and Unicode letters, ASCII
# digits, a decimal digit of another script ('٣'), non-decimal numerics
# ('²', 'Ⅻ', '½'), spaces, and characters no token starts with.
_LINE_PIECES = ("->", "-", ">", "(", ")", "{", "}", ":", "=", "*", ",", "@", "'", "_",
                "a", "Z", "é", "x1", "0", "42", "²", "٣", "Ⅻ", "½", " ", "\xa0", "\t")


@settings(max_examples=300)
@given(st.lists(st.sampled_from(_LINE_PIECES) | st.characters(), max_size=12).map("".join))
@example("  nil : Vec ²")
@example("n٣ : Vec ٣")
@example("mk : Ⅻ")
@example("1½")
@example("é' : X")
@example("X\xa0-> Q")
@example("f' x'' ")
@example("_ _x_1")
@example("a @ b")
@example("a - > b")
def test_tokenizer_equals_naive_loop(line):
    try:
        want = naive_tokenize(line, 3)
    except ParseError as e:
        with pytest.raises(ParseError) as got:
            _tokenize(line, 3)
        assert (str(got.value), got.value.line, got.value.col) == (str(e), e.line, e.col)
        return
    assert [tuple(t) for t in _tokenize(line, 3)] == want


# --- checking: golden rule sequences ---


def judgement(report, name):
    for n, j in report.element + report.equality:
        if n == name:
            return j
    raise KeyError(name)


def expect_accept(report, name):
    j = judgement(report, name)
    assert isinstance(j, Accept), j
    return j.derivation


def test_bag_rule_sequences():
    report = check_decl(BAG)
    assert report.ok
    assert rule_sequence(expect_accept(report, "nil")) == ("Target", "ElCon")
    assert rule_sequence(expect_accept(report, "cons")) == (
        "ConstantParameter",
        "InductiveArgument",
        "Target",
        "ElArgument",
        "ElArgument",
        "ElCon",
    )
    assert rule_sequence(expect_accept(report, "swap")) == (
        "EqTarget",
        "EqArg",
        "EqArg",
        "EqArg",
        "EqCon",
    )


def test_commvec_rule_sequences():
    report = check_decl(COMMVEC)
    assert report.ok
    assert rule_sequence(expect_accept(report, "cons")) == (
        "ConstantParameter",
        "ConstantParameter",
        "InductiveArgument",
        "Target",
        "ElArgument",
        "ElArgument",
        "ElArgument",
        "ElCon",
    )
    assert rule_sequence(expect_accept(report, "swap")) == (
        "EqTarget",
        "EqArg",
        "EqArg",
        "EqArg",
        "EqArg",
        "EqCon",
    )


def test_inftree_rule_sequences():
    report = check_decl(INFTREE)
    assert report.ok
    assert rule_sequence(expect_accept(report, "node")) == (
        "ConstantParameter",
        "InductiveArgument",
        "StrictlyPositiveFunction",
        "Target",
        "ElArgument",
        "ElArgument",
        "ElCon",
    )


def test_replay_accepted_reports():
    for decl in (BAG, COMMVEC, INFTREE):
        report = check_decl(decl)
        assert report.ok
        assert replay(decl, report)


def test_replay_rejects_tampered_tree():
    from qitbench.schema import DeclReport, Derivation

    report = check_decl(BAG)
    bad = Derivation("Target", "made up", premises=(Derivation("Target", "x"),))
    forged = DeclReport(BAG, (("nil", Accept(bad)),) + report.element[1:], report.equality)
    with pytest.raises(QitError):
        replay(BAG, forged)


# --- checking: rejections ---


def first_reject(source: str) -> Reject:
    report = check_decl(parse_decl(source))
    assert not report.ok
    _, rej = report.first_reject()
    assert isinstance(rej, Reject)
    return rej


def test_conditional_equation_rejected():
    rej = first_reject(load("bagprime.qit"))
    assert rej.rule == "ConditionalEquation"


def test_q_left_of_arrow_rejected():
    rej = first_reject(load("qleft.qit"))
    assert rej.rule == "StrictlyPositiveFunction"
    assert "left of an arrow" in rej.message


def test_dependent_pair_on_q_rejected():
    rej = first_reject(load("qsigma.qit"))
    assert rej.rule == "StrictlyPositiveProduct"


def test_q_inside_parameter_type_rejected():
    rej = first_reject(load("qparam.qit"))
    assert rej.rule == "ConstantParameter"


def test_reject_position_points_at_constructor():
    rej = first_reject(load("qleft.qit"))
    assert rej.position[0] >= 2


def test_unbound_variable_in_type_rejected():
    rej = first_reject("qit T (X : Set) where\n  mk : (P y) -> T\n")
    assert rej.rule == "ConstantParameter"
    assert "y" in rej.message


def test_unit_erased_product_accepted():
    # the pair's second component ignores the Q-mentioning binder
    src = "qit T (X : Set) where\n  mk : ((t : T) * X) -> T\n"
    report = check_decl(parse_decl(src))
    assert report.ok
    seq = rule_sequence(judgement(report, "mk").derivation)
    assert "StrictlyPositiveProduct" in seq


def test_duplicate_constructor_names_clash():
    with pytest.raises(NameClash):
        QitDecl("T", (), (Ctor("mk", QRef()), Ctor("mk", QRef())), ())


def test_strictly_positive_entry_point():
    # a function argument out of a constant type into Q
    report = check_decl(parse_decl("qit T (X : Set) where\n  mk : (Nat -> T) -> T\n"))
    j = judgement(report, "mk")
    assert isinstance(j, Accept)
    (spine,) = j.derivation.premises
    assert spine.premises[0].rule == "StrictlyPositiveFunction"


def test_index_arity_must_match_declaration():
    rej = first_reject("qit V (X : Set) : Nat -> Set where\n  mk : V\n")
    assert not isinstance(rej, Accept)


# --- elaboration ---


def test_bag_elaborates_to_handwritten_presentation():
    sig, sys = elaborate(BAG, {"X": ("a", "b")})
    assert sig == bag_sig()
    assert sys == bag_system()


def test_commvec_elaborates_to_handwritten_presentation():
    isig, sys = elaborate(COMMVEC, {"X": ("a", "b")}, prefix=2)
    assert isig == commvec_indexed()
    assert sys == commvec_system()


def test_commvec_prefix_controls_stage_count():
    isig, sys = elaborate(COMMVEC, {"X": ("a", "b")}, prefix=4)
    assert isig == commvec_indexed(prefix=4)
    assert sys == commvec_system(prefix=4)


def test_elaborated_bag_quotient_matches_multiset_oracle():
    sig, sys = elaborate(BAG, {"X": ("a", "b")})
    part = close_congruence(build_universe(sig, sys, 3))
    images = [{bag_multiset(t) for t in cls} for cls in class_terms(part)]
    assert all(len(im) == 1 for im in images)
    assert len({next(iter(im)) for im in images}) == len(images)


def test_inftree_elaboration_is_countable():
    sig, sys = elaborate(INFTREE, {"X": ("a", "b")})
    arities = {d.op.show(): d.arity for d in sig.ops}
    assert arities["leaf"] == fin(0)
    assert arities["node a"] == NAT
    assert [e.name for e in sys.equations] == [
        "perm a id",
        "perm a tr01",
        "perm b id",
        "perm b tr01",
    ]
    assert all(e.vars == NAT for e in sys.equations)
    assert all(isinstance(e.lhs, Node) and isinstance(e.lhs.children, Comp) for e in sys.equations)


def test_elaborate_requires_carriers_for_set_params():
    with pytest.raises(UnsupportedParameterType):
        elaborate(BAG)


def test_elaborate_rejects_nat_params():
    decl = QitDecl("T", (Param("n", NatParam()),), (Ctor("mk", QRef()),), ())
    with pytest.raises(UnsupportedParameterType):
        elaborate(decl)


def test_elaborate_gate_raises_on_ill_formed_declarations():
    with pytest.raises(QitError):
        elaborate(parse_decl(load("qleft.qit")), {"X": ("a",), "T": ("t",)})


def test_fin_params_need_no_carrier():
    src = "qit Flip (a : {l, r}) where\n  stop : Flip\n  put : a -> Flip -> Flip\n"
    sig, sys = elaborate(parse_decl(src))
    names = sorted(d.op.show() for d in sig.ops)
    assert names == ["put l", "put r", "stop"]
    assert sys.equations == ()


def test_each_endpoint_application_reads_its_own_constructor():
    src = "qit T (X : Set) where\n  b : X -> T -> T\n  a : T\n  e : (x : X) -> b x a = a\n"
    _, sys = elaborate(parse_decl(src), {"X": ("p", "q")})
    got = [(e.name, show_term(e.lhs), show_term(e.rhs)) for e in sys.equations]
    assert got == [("e p", "(op b p (op a))", "(op a)"), ("e q", "(op b q (op a))", "(op a)")]


def test_equality_over_erasable_hypothesis():
    # b' : Iso b never appears in the endpoints, so it is erased
    sig, sys = elaborate(INFTREE, {"X": ("a",)})
    assert len(sys.equations) == 2


# --- symbolic tables ---


@pytest.mark.parametrize("name", ["bag", "commvec", "inftree", "wsusp", "wred", "blass"])
def test_tables_match_frozen_renders(name):
    entry = next(e for e in builtin_examples() if e.name == name)
    assert entry.table.render() == load(f"tables/{name}.txt")


def test_computed_tables_come_from_sources():
    for entry in builtin_examples():
        if entry.source is not None:
            assert symbolic_table(parse_decl(entry.source)).render() == entry.table.render()


def test_library_covers_expected_names():
    assert [e.name for e in builtin_examples()] == [
        "bag",
        "commvec",
        "inftree",
        "wsusp",
        "wred",
        "blass",
    ]
    assert EXAMPLE_NAMES == tuple(e.name for e in builtin_examples())


# --- eliminators ---


def test_bag_eliminator_matches_golden():
    assert derive_eliminator(BAG).render() == load("tables/bagelim.txt")


def test_eliminator_without_equations_has_no_coherences():
    src = "qit L (X : Set) where\n  stop : L\n  put : X -> L -> L\n"
    elim = derive_eliminator(parse_decl(src))
    assert elim.coherences == ()
    assert elim.name == "Lelim"
    assert [h for h, _ in elim.steps] == ["stop'", "put'"]
    assert elim.computation[0] == "Lelim stop' put' stop = stop'"


def test_indexed_eliminator_threads_indices():
    elim = derive_eliminator(COMMVEC)
    assert elim.motive == "P : (i : Nat) -> CommVec i -> Set"
    assert elim.conclusion == "(i : Nat) -> (q : CommVec i) -> P i q"
    assert "P (suc i) (cons x i (fst xs'))" in dict(elim.steps)["cons'"]


def test_infinitary_eliminator_composes_families():
    elim = derive_eliminator(INFTREE)
    assert "node' x f' == node' x (f' . b)" in dict(elim.coherences)["perm'"]
    assert elim.computation[1] == (
        "InfTreeelim leaf' node' perm' (node x f) ="
        " node' x (\\n. (f n, InfTreeelim leaf' node' perm' (f n)))"
    )
