"""Well-founded tree sizes under the plump order.

Sizes are finite trees over a size signature (at least one nullary and
one binary operator).  The order is the mutual structural recursion

    le(node(a, cs), j)  iff  every c in cs has lt(c, j)
    lt(i, node(a, cs))  iff  some c in cs has le(i, c)

which is transitive, has joins as strict upper bounds, and admits
height as a ranking function; totality is deliberately not assumed.

Sizes are hash-consed, so equal trees are one object and a size hashes
and compares by identity.  A SizeUniverse generates its members as the
first listing of a TermTable over the size signature, the enumeration
the term universes use, so they come by height, then operator, then
children.  It lists them below-first (stably sorted by height) and
decides the order on them with bitsets: member positions are bits of
Python ints.  In one pass over the members, lt_bits[p] is the OR of
the <=-sets of p's children, and q <= p iff q's child mask lies inside
lt_bits[p].  The strict down-sets (below) and up-sets (above) are read
off those bits, so loops over ordered pairs or chains walk only the
pairs that exist.  The covering pairs (covered: the members strictly
below j with no member strictly between) come from the same bits, and
so do the distinct down-segments with the members whose down-segment
each is (segments), which let a loop over member pairs run once per
segment instead.  The universe decides the order on its members only;
the recursion above, memoized, is its reference (tests/oracles.py's
PlumpOrder).
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import ArityMismatch, InfinitaryArity, QitError
from .terms import Signature, SystemOfEquations, TermTable, signature


@dataclass(frozen=True)
class SizeSig:
    ops: tuple[tuple[str, int], ...]

    def __post_init__(self):
        names = [n for n, _ in self.ops]
        if len(set(names)) != len(names):
            raise ArityMismatch("duplicate size operator")
        if not any(a == 0 for _, a in self.ops) or not any(a == 2 for _, a in self.ops):
            raise ArityMismatch("size signature needs a nullary and a binary operator")

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
    """All sizes of height <= h over a signature, with the order as
    bitsets and the strict down- and up-sets precomputed.  Members must
    include their children and be listed once; they are kept in height
    order, stable, so everything below a member comes before it.  q <= p
    iff every child of q is < p, so le reads child masks against lt_bits,
    and <=-sets are built only for members that are someone's child.
    Immutable once built.

    covered[j] is the transitive reduction of below[j]: the k < j with no
    member strictly between k and j.  It is read off j's children.  Every
    child c of j lies below j, and every l < j has l <= c for some child
    c; since k < l <= c gives k < c, the k with a member strictly between
    them and j are exactly those below some child.  So covered[j] is
    lt_bits[j] without the lt_bits of j's children."""

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
        heights: dict[SizeVal, int] = {}
        self.members: tuple[SizeVal, ...] = tuple(
            sorted(members, key=lambda m: height(m, heights))
        )
        self._position = {m: p for p, m in enumerate(self.members)}

        # bit q of _masks[p] / _lt_bits[p]: members[q] is a child of / < members[p]
        self._masks: list[int] = []
        self._lt_bits: list[int] = []
        covered_bits: list[int] = []
        children_of: dict[int, int] = {}  # child mask -> members with those children
        le_bits: dict[int, int] = {}  # child q -> members <= members[q]
        for p, m in enumerate(self.members):
            if self._position[m] != p:
                raise QitError(f"{show_size(m)} is listed twice as a universe member")
            mask = strict = between = 0
            for c in m.children:
                q = self._position.get(c)
                if q is None:
                    raise QitError(f"child {show_size(c)} of {show_size(m)} is not a universe member")
                if q not in le_bits:
                    # a member <= c is no higher than c, so it is listed before m
                    le_bits[q] = 0
                    for kids, qs in children_of.items():
                        if not kids & ~self._lt_bits[q]:
                            le_bits[q] |= qs
                mask |= 1 << q
                strict |= le_bits[q]
                between |= self._lt_bits[q]
            self._masks.append(mask)
            self._lt_bits.append(strict)
            covered_bits.append(strict & ~between)
            children_of[mask] = children_of.get(mask, 0) | 1 << p

        # each distinct down-set -> the members whose down-set it is
        tops: dict[int, int] = {}
        for p, bits in enumerate(self._lt_bits):
            tops[bits] = tops.get(bits, 0) | 1 << p
        # k is above j iff j lies in k's down-set
        above_bits = [0] * len(self.members)
        for bits, ks in tops.items():
            for j in self._positions_at(bits):
                above_bits[j] |= ks
        # members with equal bits share one tuple: the 677 members of height
        # <= 5 have only 5 distinct down-sets and 5 distinct covering sets
        shared = {
            bits: tuple(map(self.members.__getitem__, self._positions_at(bits)))
            for bits in {*self._lt_bits, *covered_bits, *above_bits, *tops.values()}
        }
        self.below: dict[SizeVal, tuple[SizeVal, ...]] = {
            m: shared[self._lt_bits[p]] for p, m in enumerate(self.members)
        }
        self.covered: dict[SizeVal, tuple[SizeVal, ...]] = {
            m: shared[covered_bits[p]] for p, m in enumerate(self.members)
        }
        self.above: dict[SizeVal, tuple[SizeVal, ...]] = {
            m: shared[above_bits[p]] for p, m in enumerate(self.members)
        }
        # each distinct down-segment -> the members whose down-segment it
        # is, both in member order
        self.segments: dict[tuple[SizeVal, ...], tuple[SizeVal, ...]] = {
            shared[bits]: shared[ks] for bits, ks in tops.items()
        }

    def __contains__(self, i: SizeVal) -> bool:
        return i in self._position

    def position(self, i: SizeVal) -> int:
        return self._position[i]

    def shown(self) -> list[str]:
        """show_size of each member, in member order, printing each shared
        subtree once."""
        known: dict[SizeVal, str] = {}
        return [show_size(m, known) for m in self.members]

    @staticmethod
    def _positions_at(bits: int) -> list[int]:
        out = []
        while bits:
            low = bits & -bits
            out.append(low.bit_length() - 1)
            bits ^= low
        return out

    def lt(self, i: SizeVal, j: SizeVal) -> bool:
        """i < j, for members i and j."""
        p, q = self._position.get(i), self._position.get(j)
        if p is None or q is None:
            outside = show_size(i if p is None else j)
            raise QitError(f"{outside} is not a member of the height-{self.height} universe")
        return self._lt_bits[q] >> p & 1 == 1

    def le(self, i: SizeVal, j: SizeVal) -> bool:
        """i <= j, for members i and j.  The order's other half: nothing
        in the package asks it, and tests/test_sizes.py checks the
        plump laws and lt against it."""
        p, q = self._position.get(i), self._position.get(j)
        if p is None or q is None:
            outside = show_size(i if p is None else j)
            raise QitError(f"{outside} is not a member of the height-{self.height} universe")
        return not self._masks[p] & ~self._lt_bits[q]
