"""Declaration checking, elaboration, symbolic tables, and eliminators."""

from __future__ import annotations

import gc
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
from qitbench.schema.ast import EqT, Sigma, TApp, TVar
from qitbench.schema.checker import _norm_type, _subst_type, _uses_var
from qitbench.schema.parser import _tokenize
from qitbench.sexpr import show_term
from qitbench.terms import NAT, Comp, Node, Tab, Var, fin

FIXTURES = Path(__file__).parent.parent / "fixtures"
PERF_INPUTS = Path(__file__).parent.parent / "perfbench" / "inputs"


def load(name: str) -> str:
    return (FIXTURES / name).read_text()


def source(name: str) -> str:
    """a declaration under fixtures/, or else under perfbench/inputs/"""
    path = FIXTURES / f"{name}.qit"
    return (path if path.exists() else PERF_INPUTS / f"{name}.qit").read_text()


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


def test_binder_group_is_not_a_term_argument():
    # the application Vec 0 ends before the group, which then trails
    with pytest.raises(ParseError) as e:
        parse_decl("qit T (X : Set) where\n  mk : Vec 0 (x : X) -> T\n")
    assert (str(e.value), e.value.col) == ("2:14: trailing '(' in constructor mk", 14)


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


def test_application_head_is_not_a_variable():
    # suc heads an application without being bound; its argument must be
    assert check_decl(parse_decl("qit T where\n  mk : (i : Nat) -> Fin (suc i) -> T\n")).ok
    rej = first_reject("qit T where\n  mk : (i : Nat) -> Fin (suc j) -> T\n")
    assert (rej.rule, rej.message) == ("ConstantParameter", "unknown name j in (Fin (suc j))")


@pytest.mark.parametrize("ty, ok", [
    ("(i : Nat) -> (g : Nat -> Nat) -> Fin (g i) -> T", True),
    ("(i : Nat) -> (g : Nat -> Nat) -> (h : Nat -> Nat) -> Fin (comp g h) -> T", True),
    ("(i : Nat) -> Fin (foo i) -> T", False),
    ("(i : Nat) -> (g : Nat -> Nat) -> Fin (comp foo g) -> T", False),
])
def test_application_head_must_be_bound_or_known(ty, ok):
    # a head is an earlier binder, suc, comp or an element constructor
    report = check_decl(parse_decl(f"qit T where\n  mk : {ty}\n"))
    assert report.ok == ok
    if not ok:
        assert first_reject(f"qit T where\n  mk : {ty}\n").message.startswith("unknown name foo in ")


@pytest.mark.parametrize("ctor, reject", [
    ("mk : (x : X) -> (x : X) -> T", ("ElArgument", "argument name x is bound twice")),
    ("mk : (x : X) -> (t : T) -> (x : X) -> T", ("ElArgument", "argument name x is bound twice")),
    ("mk : (_ : X) -> (_ : X) -> T", None),
    # a binder inside an argument's type is not an argument of mk
    ("mk : (x : X) -> (f : (x : Nat) -> T) -> T", None),
    ("e : (t : T) -> (t : T) -> t = t", ("EqArg", "argument name t is bound twice")),
])
def test_a_constructor_binds_each_name_once(ctor, reject):
    src = f"qit T (X : Set) where\n  {ctor}\n"
    if reject is None:
        assert check_decl(parse_decl(src)).ok
    else:
        rej = first_reject(src)
        assert (rej.rule, rej.message) == reject


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


# --- checking: the type walks on generated types ---

# the variables tested; binders may shadow them, and application heads
# come from other names, so only a variable occurrence can change under
# substitution
_WALK_VARS = ("x", "y")
_WALK_TERMS = st.recursive(
    st.builds(TVar, st.sampled_from(_WALK_VARS + ("n",))) | st.builds(TNum, st.integers(0, 3)),
    lambda sub: st.builds(TApp, st.sampled_from(("suc", "h", "cons")),
                          st.lists(sub, min_size=1, max_size=3).map(tuple)),
    max_leaves=6,
)
_WALK_TYPES = st.recursive(
    st.builds(QRef, st.none() | _WALK_TERMS)
    | st.builds(ConstT, st.sampled_from(("Nat", "Vec", "X")), st.lists(_WALK_TERMS, max_size=2).map(tuple))
    | st.builds(EqT, _WALK_TERMS, _WALK_TERMS),
    lambda sub: st.builds(Pi, st.sampled_from(("_",) + _WALK_VARS), sub, sub)
    | st.builds(Sigma, st.sampled_from(("_",) + _WALK_VARS), sub, sub),
    max_leaves=8,
)


@settings(max_examples=300)
@given(_WALK_TYPES, st.sampled_from(_WALK_VARS))
def test_uses_var_exactly_when_substitution_changes_the_type(t, x):
    assert _uses_var(t, x) == (_subst_type(t, x, TVar("fresh")) != t)


@settings(max_examples=300)
@given(_WALK_TYPES)
def test_norm_type_is_idempotent(t):
    once = _norm_type(t)
    assert _norm_type(once) == once


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


def _elaborated_sources() -> list:
    """(stem, signature, system) of each declaration under fixtures/ and
    perfbench/inputs/ that check accepts and elaborate, with every Set
    parameter at carrier a, b, does not refuse."""
    out = []
    for path in sorted(FIXTURES.glob("*.qit")) + sorted(PERF_INPUTS.glob("*.qit")):
        decl = parse_decl(path.read_text())
        if not check_decl(decl).ok:
            continue
        carriers = {p.name: ("a", "b") for p in decl.params if isinstance(p.kind, SetParam)}
        try:
            sig, sys = elaborate(decl, carriers)
        except QitError:
            continue
        out.append((path.stem, sig, sys))
    return out


ELABORATED = _elaborated_sources()


def test_the_elaborated_sources_are_the_accepted_fixtures():
    assert [stem for stem, _, _ in ELABORATED] == [
        "bag", "commtree", "commvec", "htree", "inftree", "mixeq", "vsuc", "cmon", "commtree",
    ]


@pytest.mark.parametrize("stem, sig, sys", ELABORATED, ids=[stem for stem, _, _ in ELABORATED])
def test_elaborated_sides_stand_at_their_child_sorts(stem, sig, sys):
    """Each node of an equation side stands where its parent takes it: at
    the equation's sort, or at the parent operator's child sort; each
    variable at its var_sorts entry.  Unindexed, every sort is None."""
    for eq in sys.equations:
        for side in (eq.lhs, eq.rhs):
            todo = [(side, eq.sort)]
            while todo:
                t, at = todo.pop()
                if isinstance(t, Var):
                    assert (eq.var_sorts[eq.vars.index(t.name)] if eq.var_sorts else None) == at, eq.name
                elif isinstance(t, Node):
                    d = sig.decl(t.op)
                    assert d.sort == at, eq.name
                    if isinstance(t.children, Tab):
                        kids = t.children.entries
                        todo.extend(zip(kids, d.child_sorts or (None,) * len(kids)))


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


@pytest.mark.parametrize("name", ["commtree", "cmon", "vsuc"])
def test_symbolic_table_matches_golden(name):
    assert symbolic_table(parse_decl(source(name))).render() == load(f"tables/{name}.txt")


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


def _refused(path: Path) -> bool:
    """check rejects the declaration, or an element constructor takes a map"""
    decl = parse_decl(path.read_text())
    if not check_decl(decl).ok:
        return True
    for ctor in decl.element_ctors:
        t = ctor.type
        while isinstance(t, Pi):
            if t.domain == Pi("_", ConstT("Nat"), ConstT("Nat")):
                return True
            t = t.codomain
    return False


REFUSED = [p for p in sorted(FIXTURES.glob("*.qit")) + sorted(PERF_INPUTS.glob("*.qit")) if _refused(p)]


def test_the_refused_sources_are_the_rejected_fixtures_and_mapctor():
    assert [p.stem for p in REFUSED] == [
        "bagprime", "dupbinder", "mapctor", "qleft", "qparam", "qsigma",
        "unboundfun", "unboundhead", "unboundparam", "vsucbad",
    ]


@pytest.mark.parametrize("path", REFUSED, ids=lambda p: p.stem)
def test_the_three_products_refuse_alike(path):
    """elaborate, symbolic_table and derive_eliminator refuse a refused
    declaration with one message."""
    decl = parse_decl(path.read_text())
    carriers = {p.name: ("a",) for p in decl.params if isinstance(p.kind, SetParam)}
    messages = []
    for product in (lambda: elaborate(decl, carriers), lambda: symbolic_table(decl),
                    lambda: derive_eliminator(decl)):
        with pytest.raises(QitError) as e:
            product()
        messages.append(str(e.value))
    assert messages[0] and messages == [messages[0]] * 3


@pytest.mark.parametrize("equation, lines", [
    # a recursive variable, at its declared index
    ("back : (x : X) -> (i : Nat) -> (xs : V i) -> xs = xs",
     ("E[i] = X", "V[i](x)(j) = (i = j)", "l[i](x) = eta[i] refl", "r[i](x) = eta[i] refl")),
    # a bare constructor, at its target index
    ("e : (x : X) -> one = cons x 0 nil",
     ("E[1] = X", "V[1](x)(j) = 0", "l[1](x) = sigma[1](0, !)",
      "r[1](x) = sigma[1](x, \\_. \\refl. sigma[0](0, !))")),
])
def test_an_endpoint_that_applies_no_arguments_renders_at_its_index(equation, lines):
    src = (
        "qit V (X : Set) : Nat -> Set where\n"
        "  nil : V 0\n"
        "  cons : X -> (i : Nat) -> V i -> V (suc i)\n"
        "  one : V 1\n"
        f"  {equation}\n"
    )
    assert symbolic_table(parse_decl(src)).lines[-4:] == lines


@pytest.mark.parametrize("name", ["commvec", "inftree", "commtree", "cmon"])
def test_eliminator_matches_golden(name):
    assert derive_eliminator(parse_decl(source(name))).render() == load(f"tables/{name}elim.txt")


@pytest.mark.parametrize("decl", [BAG, COMMVEC], ids=["bag", "commvec"])
def test_derive_eliminator_leaves_nothing_for_the_cyclic_collector(decl):
    """A recursive closure, or two that call each other, is a reference
    cycle that every derivation would leave to the cyclic collector."""
    derive_eliminator(decl)  # first-use caches
    gc.collect()
    gc.disable()
    try:
        elim = derive_eliminator(decl)
        found = gc.collect()
    finally:
        gc.enable()
    assert elim.coherences and found == 0


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
