"""Built-in declaration library.

Six entries: three expressed in the surface syntax (their tables are
computed), and three that quantify over type families, which the
surface grammar cannot bind.  Those last three ship as hand-assembled
tables only; `source` is None for them.
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Optional

from ..records import tagged
from .elaborate import SymbolicQW, symbolic_table
from .parser import parse_decl

BAG_SOURCE = """\
-- finite multisets over an abstract carrier
qit Bag (X : Set) where
  nil : Bag
  cons : X -> Bag -> Bag
  swap : (x : X) -> (y : X) -> (zs : Bag) ->
    cons x (cons y zs) = cons y (cons x zs)
"""

COMMVEC_SOURCE = """\
-- length-indexed multisets: vectors modulo adjacent swaps
qit CommVec (X : Set) : Nat -> Set where
  nil : CommVec 0
  cons : X -> (i : Nat) -> CommVec i -> CommVec (suc i)
  swap : (x : X) -> (y : X) -> (i : Nat) -> (zs : CommVec i) ->
    cons x (suc i) (cons y i zs) = cons y (suc i) (cons x i zs)
"""

INFTREE_SOURCE = """\
-- countably-branching trees, unordered: children permute along any bijection
qit InfTree (X : Set) where
  leaf : InfTree
  node : X -> (Nat -> InfTree) -> InfTree
  perm : (x : X) -> (b : Nat -> Nat) -> (b' : Iso b) -> (f : Nat -> InfTree) ->
    node x f = node x (comp f b)
"""


@tagged
class ExampleEntry(NamedTuple):
    name: str
    title: str
    source: Optional[str]
    table: SymbolicQW


def _wsusp() -> SymbolicQW:
    # W-suspensions: a W-type over (A', B') with a path constructor cell
    # for every c : C', joining sup (l' c) to sup (r' c).
    return SymbolicQW("WSusp", (
        "A = A'",
        "B = B'",
        "E = C'",
        "V(c) = (B' (l' c)) * (B' (r' c))",
        "l(c) = sigma(l' c, eta)",
        "r(c) = sigma(r' c, eta)",
    ))


def _wred() -> SymbolicQW:
    # W-types with reductions over Z: at each index z, a node sigma_z(y, f)
    # collapses to the child picked out by R_z y.
    return SymbolicQW("WRed", (
        "I = Z",
        "A = Y",
        "B = X",
        "E = Y",
        "V = X",
        "l[z](y) = sigma[z](y, eta)",
        "r[z](y) = eta[z] (R[z] y)",
    ))


def _blass() -> SymbolicQW:
    # Countable ordinal notations: three node shapes (zero, successor,
    # countable sup) and five equation families.  Interpreting the sup
    # equations requires choice-like strength, so the type cannot be
    # proved to exist in ZF alone.
    return SymbolicQW("F", (
        "A = 3",
        "B = [0, 1, Nat]",
        "E = 1 + ((f g : Nat -> Nat) * (E f g)) + 1 + 1"
        " + ((b c : Nat -> Nat) * (L : Nat -> Nat -> Nat)"
        " * (JointSurj b c) * (Lrel L b c) * (Lrel L c b))",
        "V = [0, Nat, Nat + Nat, Nat + Nat, Nat]",
        "l(i1 _) = sigma(2, \\_. sigma(0, !))",
        "r(i1 _) = sigma(0, !)",
        "l(i2 f g) = sigma(2, eta . f)",
        "r(i2 f g) = sigma(2, eta . g)",
        "l(i3 _) = sigma(2, (eta . i1) U \\_. sigma(1, (eta . i1) U (eta . i2)))",
        "r(i3 _) = sigma(2, (eta . i1) U (eta . i2))",
        "l(i4 _) = sigma(2, (eta . i1) U \\_. sigma(1, sigma(2, (eta . i1) U (eta . i2))))",
        "r(i4 _) = sigma(1, sigma(2, (eta . i1) U (eta . i2)))",
        "l(i5 b c L _ _ _) = sigma(2, \\n. k L (unpair1 n) (b (unpair2 n)))",
        "r(i5 b c L _ _ _) = sigma(2, \\n. k L (unpair1 n) (c (unpair2 n)))",
        "where k L 0 = eta",
        "      k L (x+1) = \\y. sigma(2, (k L x) . (L y))",
    ))


def _declared(title: str, source: str) -> Callable[[str], ExampleEntry]:
    return lambda name: ExampleEntry(name, title, source, symbolic_table(parse_decl(source)))


def _library(title: str, table: Callable[[], SymbolicQW]) -> Callable[[str], ExampleEntry]:
    return lambda name: ExampleEntry(name, title, None, table())


# The library in order: each entry's name and the builder of that entry
# alone, so that one name costs one table.
EXAMPLES: dict[str, Callable[[str], ExampleEntry]] = {
    "bag": _declared("finite multisets", BAG_SOURCE),
    "commvec": _declared("length-indexed multisets", COMMVEC_SOURCE),
    "inftree": _declared("unordered countably-branching trees", INFTREE_SOURCE),
    "wsusp": _library("W-suspensions", _wsusp),
    "wred": _library("W-types with reductions", _wred),
    "blass": _library("countable ordinal notations", _blass),
}

EXAMPLE_NAMES = tuple(EXAMPLES)


def builtin_example(name: str) -> ExampleEntry:
    return EXAMPLES[name](name)


def builtin_examples() -> tuple[ExampleEntry, ...]:
    return tuple(builtin_example(name) for name in EXAMPLES)
