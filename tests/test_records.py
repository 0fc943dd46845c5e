"""Record semantics the package relies on, whatever builds the records.

Two records of different classes are unequal even when their fields
are: checker._type_eq must not take a pair type for a function type,
nor a type-level variable for a term variable.  Records are truthy,
the records that were built immutable refuse assignment, and a record
shows as Name(field=value), which error messages embed.  A record is
not a tuple to order against another class's, to concatenate or to
repeat: those raise TypeError.  Each test
reads records through their constructors and fields only, so it holds
for any way of building them.  Two such records are checked to be kept
apart as keys, not to hash apart: records built as field tuples hashed
as those tuples, so their hashes collided.
"""

from __future__ import annotations

import functools
import operator

import pytest

from qitbench.algebras import SatReport
from qitbench.cli import RunConfig
from qitbench.construction import OracleComparison, StageClass, build_fixed_point
from qitbench.quotient import EliminatorInput, QwelimResult, QwrecResult, build_universe
from qitbench.schema import (
    Accept,
    ConstT,
    Ctor,
    Derivation,
    EqT,
    FamilyParam,
    FinParam,
    NatParam,
    Param,
    Pi,
    QRef,
    QitDecl,
    Reject,
    SetParam,
    Sigma,
    TApp,
    TNum,
    TVar,
    builtin_example,
    check_decl,
    derive_eliminator,
    elaborate,
    parse_decl,
)
from qitbench.schema.elaborate import SymbolicQW, _Arg, _SymIx
from qitbench.schema.examples import BAG_SOURCE
from qitbench.sizes import SizeSig, SizeUniverse
from qitbench.terms import (
    Comp,
    Equation,
    IndexedOpDecl,
    IndexedSignature,
    IndexMap,
    IxApp,
    IxC,
    IxV,
    IxVar,
    Node,
    OpDecl,
    OpSym,
    Signature,
    SystemOfEquations,
    Tab,
    Var,
    fin,
    instance_shape,
)

NIL = OpSym("nil")
Q, NAT_T = QRef(), ConstT("Nat")

# records of different classes whose field values are equal, per
# family, and across families where a value could meet another
SAME_FIELDS = [
    (Pi("b", Q, NAT_T), Sigma("b", Q, NAT_T)),
    (SetParam(), NatParam()),
    (Var("x"), IxV("x")),
    (Var("x"), IxVar("x")),
    (IxV("x"), IxVar("x")),
    (Var("x"), TVar("x")),
    (TVar(3), TNum(3)),
    (TNum(3), IxC(3)),
    (IxV("x"), TVar("x")),
    (FinParam(("a",)), FamilyParam(("a",))),
    (Tab((Var("x"),)), FinParam((Var("x"),))),
    (OpSym("c", ()), ConstT("c", ())),
    (TApp("c", ()), ConstT("c", ())),
    (EqT(TVar("x"), TVar("y")), IxApp(TVar("x"), TVar("y"))),
    (Comp("i", Var("x")), Param("i", Var("x"))),
    (Node(NIL, Tab(())), Param(NIL, Tab(()))),
]


@pytest.mark.parametrize("a, b", SAME_FIELDS, ids=lambda r: type(r).__name__)
def test_records_of_two_classes_are_unequal_and_keyed_apart(a, b):
    assert a != b and b != a
    assert not (a == b or b == a)
    assert len({a, b}) == 2
    assert {a: 1}.get(b) is None


@pytest.mark.parametrize("a, b", SAME_FIELDS, ids=lambda r: type(r).__name__)
def test_records_of_two_classes_do_not_order(a, b):
    for lhs, rhs in ((a, b), (b, a)):
        for order in (operator.lt, operator.le, operator.gt, operator.ge):
            with pytest.raises(TypeError):
                order(lhs, rhs)


def test_records_of_one_class_order_as_their_fields():
    assert OpSym("a", ("x",)) < OpSym("b") and OpSym("b") >= OpSym("a", ("x",))
    assert Var("x") <= Var("x") and not Var("x") < Var("x")
    ops = [OpSym("b"), OpSym("a", ("y",)), OpSym("a", ("x",))]
    assert sorted(ops) == [OpSym("a", ("x",)), OpSym("a", ("y",)), OpSym("b")]


@pytest.mark.parametrize("record", [Var("x"), Tab(()), OpSym("c"), Pi("b", Q, NAT_T), SetParam()],
                         ids=lambda r: type(r).__name__)
def test_records_refuse_concatenation_and_repetition(record):
    for other in (Var("y"), Tab(()), record, ("x",)):
        with pytest.raises(TypeError):
            record + other
    for count in (0, 2):
        with pytest.raises(TypeError):
            record * count
        with pytest.raises(TypeError):
            count * record


def test_a_record_equals_its_copy_only():
    assert Pi("b", Q, NAT_T) == Pi("b", Q, NAT_T)
    assert hash(Pi("b", Q, NAT_T)) == hash(Pi("b", Q, NAT_T))
    assert Var("x") != ("x",) and ("x",) != Var("x")
    assert SetParam() != ()
    assert fin(2) == fin(2) and fin(2) != fin(3)
    assert {fin(2): "two", SizeSig.minimal(): "sizes"}[fin(2)] == "two"


def test_records_without_fields_are_truthy():
    assert SetParam() and NatParam()
    assert bool(SetParam()) is True and bool(NatParam()) is True


def _bag():
    decl = parse_decl(BAG_SOURCE)
    sig, sys = elaborate(decl, {"X": ("a",)})
    return decl, sig, sys


@functools.cache
def frozen_records():
    """One record of each class that was built immutable, and a field of
    it (a record without fields gets a name it lacks)."""
    decl, sig, sys = _bag()
    eq = sys.equations[0]
    ix_op = IndexedOpDecl(NIL, "i", ())
    deriv = Derivation("Target", Q)
    appx = build_fixed_point(sig, sys, SizeUniverse(SizeSig.minimal(), 2), 1)
    return [
        (fin(2), "count"),
        (NIL, "name"),
        (sig.ops[0], "arity"),
        (sig, "ops"),
        (IxV("i"), "name"),
        (IxC(0), "n"),
        (IxApp("f", IxV("i")), "fn"),
        (IndexMap("id"), "table"),
        (Var("x"), "name"),
        (IxVar(IxV("i")), "expr"),
        (Tab(()), "entries"),
        (Comp("i", Var("x")), "body"),
        (Node(NIL, Tab(())), "op"),
        (Equation("e", ("x",), Var("x"), Var("x")), "lhs"),
        (instance_shape(eq), "sides"),
        (sys, "equations"),
        (ix_op, "sort"),
        (IndexedSignature(("i",), (ix_op,)), "indices"),
        (SetParam(), "name"),
        (FinParam(("a",)), "values"),
        (NatParam(), "name"),
        (FamilyParam("d"), "desc"),
        (decl.params[0], "kind"),
        (TVar("x"), "name"),
        (TNum(0), "value"),
        (TApp("suc", (TNum(0),)), "args"),
        (Q, "index"),
        (NAT_T, "name"),
        (Pi("_", Q, Q), "domain"),
        (Sigma("_", Q, Q), "right"),
        (EqT(TVar("x"), TVar("y")), "rhs"),
        (Ctor("nil", Q), "type"),
        (decl, "name"),
        (deriv, "rule"),
        (Accept(deriv), "derivation"),
        (Reject("r", (1, 1), "m"), "message"),
        (check_decl(decl), "decl"),
        (_Arg("x", Q, "q"), "kind"),
        (SymbolicQW("n", ()), "lines"),
        (_SymIx(None, 0), "offset"),
        (derive_eliminator(decl), "motive"),
        (builtin_example("bag"), "table"),
        (build_universe(sig, sys, 1), "depth"),
        (QwrecResult((), True, ()), "hom_ok"),
        (EliminatorInput({}, len), "steps"),
        (QwelimResult((), True, (), 0, 0), "comp_ok"),
        (StageClass(Var("x"), None, 1, 0), "fd"),
        (appx.stages[0], "classes"),
        (OracleComparison((), {}, 0), "intro_checked"),
        (appx.to_diagram(), "maps"),
        (SizeSig.minimal(), "ops"),
        (SatReport("SATISFIED", 0), "checked"),
        (RunConfig("check", "text"), "fmt"),
    ]


def test_every_class_is_sampled():
    # each class that was built immutable
    assert len({type(r) for r, _ in frozen_records()}) == 53


@pytest.mark.parametrize("index", range(53))
def test_immutable_records_refuse_assignment(index):
    record, field = frozen_records()[index]
    before = repr(record)
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    with pytest.raises(AttributeError):
        record.unheard_of = None
    with pytest.raises(AttributeError):
        delattr(record, field)
    assert repr(record) == before


@pytest.mark.parametrize("record, shown", [
    (Var("x"), "Var(name='x')"),
    (SetParam(), "SetParam()"),
    (Pi("_", Q, NAT_T),
     "Pi(binder='_', domain=QRef(index=None), codomain=ConstT(name='Nat', args=()))"),
    (TApp("suc", (TVar("i"),)), "TApp(head='suc', args=(TVar(name='i'),))"),
    (IxApp("tr01", IxC(1)), "IxApp(fn='tr01', arg=IxC(n=1))"),
    (Node(NIL, Tab((IxVar(IxV("i")),))),
     "Node(op=OpSym(name='nil', params=()), children=Tab(entries=(IxVar(expr=IxV(name='i')),)))"),
    (fin(2), "FIN(2)"),
    (OpDecl(NIL, fin(0)),
     "OpDecl(op=OpSym(name='nil', params=()), arity=FIN(0), sort=None, child_sorts=None)"),
    (Signature(()), "Signature(ops=())"),
    (SizeSig.minimal(), "SizeSig(ops=(('zero', 0), ('join', 2)))"),
    (QitDecl("Q", (), (), ()),
     "QitDecl(name='Q', params=(), element_ctors=(), equality_ctors=(), index_sort=None)"),
    (SystemOfEquations(()), "SystemOfEquations(equations=())"),
])
def test_a_record_shows_its_class_and_fields(record, shown):
    assert repr(record) == shown
