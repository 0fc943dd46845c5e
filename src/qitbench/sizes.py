"""Well-founded tree sizes under the plump order.

Sizes are finite trees over a size signature (at least one nullary and
one binary operator).  The order is the mutual structural recursion

    le(node(a, cs), j)  iff  every c in cs has lt(c, j)
    lt(i, node(a, cs))  iff  some c in cs has le(i, c)

On finite trees it is the height preorder: x < y iff ht x < ht y, and
x <= y iff ht x <= ht y.  By induction on ht x + ht y, x <= y iff every
child c of x has ht c < ht y, iff ht x - 1 < ht y; and x < y iff some
child d of y has ht x <= ht d, iff ht x <= ht y - 1.  So the order is
transitive and total, has joins as strict upper bounds, and is not
antisymmetric: trees of one height are <= each other.  Countable joins
(ROADMAP item 9) have no finite height, and this argument does not
cover them.

Sizes are hash-consed, so equal trees are one object and a size hashes
and compares by identity.  A SizeUniverse generates its members as the
first listing of a TermTable over the size signature, the enumeration
the term universes use, so they come by height, then operator, then
children.  It lists them below-first (stably sorted by height) and
decides the order on them by height, so every member's strict
down-set (below) is the members of lower heights, a prefix of the
member order, its up-set (above) the suffix of higher heights, and
there is one distinct down-segment per height (segments).  The
universe decides the order on its members only; the recursion above,
memoized, is its reference (tests/oracles.py's PlumpOrder).
"""

from __future__ import annotations

import weakref
from itertools import groupby
from typing import Optional, Sequence

from .errors import ArityMismatch, InfinitaryArity, QitError
from .records import Record
from .terms import Signature, SystemOfEquations, TermTable, signature


class SizeSig(Record):
    _fields = ("ops",)

    def __init__(self, ops: tuple[tuple[str, int], ...]):
        names = [n for n, _ in ops]
        if len(set(names)) != len(names):
            raise ArityMismatch("duplicate size operator")
        if not any(a == 0 for _, a in ops) or not any(a == 2 for _, a in ops):
            raise ArityMismatch("size signature needs a nullary and a binary operator")
        self._set(ops=ops)

    @classmethod
    def minimal(cls) -> "SizeSig":
        return cls((("zero", 0), ("join", 2)))

    @property
    def binary(self) -> str:
        return next(n for n, a in self.ops if a == 2)

    def join(self, i: "SizeVal", j: "SizeVal") -> "SizeVal":
        return SizeVal(self.binary, (i, j))

    def suc(self, i: "SizeVal") -> "SizeVal":
        return self.join(i, i)


class SizeVal:
    """Immutable size tree, hash-consed through a weak intern table:
    equal trees are one object, so the order procedures and the diagrams,
    which key on sizes, hash and compare them by identity."""

    __slots__ = ("op", "children", "__weakref__")
    _interned: "weakref.WeakValueDictionary[tuple, SizeVal]" = weakref.WeakValueDictionary()

    def __new__(cls, op: str, children: tuple["SizeVal", ...] = ()):
        key = (op, children)
        node = cls._interned.get(key)
        if node is None:
            node = object.__new__(cls)
            object.__setattr__(node, "op", op)
            object.__setattr__(node, "children", children)
            cls._interned[key] = node
        return node

    def __setattr__(self, *_):
        raise AttributeError("SizeVal is immutable")

    def __repr__(self):
        return show_size(self)


# Both recursions below take an optional memo, known, in which each size
# they reach is recorded: a loop over many sizes that share subtrees,
# passing one memo, visits each shared subtree once.


def show_size(i: SizeVal, known: Optional[dict[SizeVal, str]] = None) -> str:
    text = None if known is None else known.get(i)
    if text is None:
        if not i.children:
            text = f"(sz {i.op})"
        else:
            text = f"(sz {i.op} " + " ".join(show_size(c, known) for c in i.children) + ")"
        if known is not None:
            known[i] = text
    return text


def height(i: SizeVal, known: Optional[dict[SizeVal, int]] = None) -> int:
    h = None if known is None else known.get(i)
    if h is None:
        h = 1 + max((height(c, known) for c in i.children), default=0)
        if known is not None:
            known[i] = h
    return h


def size_signature_for(sig: Signature, sys: SystemOfEquations) -> SizeSig:
    """Nullary and binary structural operators, plus one operator per
    signature operator (arity of its child family) and one per equation
    (arity of its variable family).

    No command builds this signature yet (construct runs on
    SizeSig.minimal): it is kept for ROADMAP item 9, whose per-arity
    joins for countable operators start here."""
    ops: list[tuple[str, int]] = [("zero", 0), ("join", 2)]
    for d in sig.ops:
        if not d.arity.finite:
            raise InfinitaryArity(f"{d.op.show()} has countable arity")
        ops.append(("op_" + "_".join(d.op.show().split()), d.arity.count))
    for e in sys.equations:
        names = e.var_names()
        if names is None:
            raise InfinitaryArity(f"equation {e.name} has a countable variable family")
        ops.append(("eq_" + "_".join(e.name.split()), len(names)))
    return SizeSig(tuple(ops))


class SizeUniverse:
    """All sizes of height <= h over a signature, ranked by height, with
    the strict down- and up-sets precomputed.  Members must include
    their children and be listed once; they are kept in height order,
    stable, so everything below a member comes before it.  Members of
    one height share their below, above and segments tuples.  Immutable
    once built."""

    def __init__(self, sig: SizeSig, height_bound: int, members: Optional[Sequence[SizeVal]] = None):
        if height_bound < 1:
            raise ArityMismatch("height bound must be at least 1")
        self.sig = sig
        self.height = height_bound

        if members is None:
            # a first listing hands out ids in listing order, children first
            table = TermTable(signature(sig.ops))
            table.upto(height_bound)
            members = []
            for op, kids in table.nodes:
                members.append(SizeVal(sig.ops[op][0], tuple(members[k] for k in kids)))
        # below-first: whatever lies below a member has a smaller height
        self._heights: dict[SizeVal, int] = {}
        self.members: tuple[SizeVal, ...] = tuple(
            sorted(members, key=lambda m: height(m, self._heights))
        )
        self._position = {m: p for p, m in enumerate(self.members)}
        for p, m in enumerate(self.members):
            if self._position[m] != p:
                raise QitError(f"{show_size(m)} is listed twice as a universe member")
            for c in m.children:
                if c not in self._position:
                    raise QitError(f"child {show_size(c)} of {show_size(m)} is not a universe member")

        self.below: dict[SizeVal, tuple[SizeVal, ...]] = {}
        self.above: dict[SizeVal, tuple[SizeVal, ...]] = {}
        # each distinct down-segment -> the members whose down-segment it
        # is, both in member order: one entry per height
        self.segments: dict[tuple[SizeVal, ...], tuple[SizeVal, ...]] = {}
        end = 0
        for _, level in groupby(self.members, self._heights.__getitem__):
            level = tuple(level)
            below, end = self.members[:end], end + len(level)
            self.segments[below] = level
            self.below.update(dict.fromkeys(level, below))
            self.above.update(dict.fromkeys(level, self.members[end:]))

    def __contains__(self, i: SizeVal) -> bool:
        return i in self._position

    def shown(self) -> list[str]:
        """show_size of each member, in member order, printing each shared
        subtree once."""
        known: dict[SizeVal, str] = {}
        return [show_size(m, known) for m in self.members]

    def _ranks(self, i: SizeVal, j: SizeVal) -> tuple[int, int]:
        hi, hj = self._heights.get(i), self._heights.get(j)
        if hi is None or hj is None:
            outside = show_size(i if hi is None else j)
            raise QitError(f"{outside} is not a member of the height-{self.height} universe")
        return hi, hj

    def lt(self, i: SizeVal, j: SizeVal) -> bool:
        """i < j, for members i and j."""
        hi, hj = self._ranks(i, j)
        return hi < hj

    def le(self, i: SizeVal, j: SizeVal) -> bool:
        """i <= j, for members i and j.  The order's other half: nothing
        in the package asks it, and tests/test_sizes.py checks the
        plump laws and lt against it."""
        hi, hj = self._ranks(i, j)
        return hi <= hj
