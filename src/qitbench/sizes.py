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
below j with no member strictly between) come from the same bits.  The
memoized PlumpOrder decides the order on sizes outside the universe,
such as the successor of a top member or an upper bound of a family.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Callable, Mapping, Optional, Sequence

from .errors import ArityMismatch, CycleDetected, InfinitaryArity, ParseError, QitError
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

    def arity(self, name: str) -> int:
        for n, a in self.ops:
            if n == name:
                return a
        raise ArityMismatch(f"unknown size operator {name!r}")

    @property
    def nullary(self) -> str:
        return next(n for n, a in self.ops if a == 0)

    @property
    def binary(self) -> str:
        return next(n for n, a in self.ops if a == 2)

    def zero(self) -> "SizeVal":
        return SizeVal(self.nullary, ())

    def join(self, i: "SizeVal", j: "SizeVal") -> "SizeVal":
        return SizeVal(self.binary, (i, j))

    def suc(self, i: "SizeVal") -> "SizeVal":
        return self.join(i, i)

    def upper_bound(self, op: str, family: Sequence["SizeVal"]) -> "SizeVal":
        """A size strictly above every member of the family: the node
        whose children are exactly the family."""
        if len(family) != self.arity(op):
            raise ArityMismatch(f"{op} expects {self.arity(op)} children, got {len(family)}")
        return SizeVal(op, tuple(family))


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


def show_size(i: SizeVal) -> str:
    if not i.children:
        return f"(sz {i.op})"
    return f"(sz {i.op} " + " ".join(show_size(c) for c in i.children) + ")"


def parse_size(text: str, sig: Optional[SizeSig] = None) -> SizeVal:
    from .sexpr import _Reader, _form

    r = _Reader(text)
    item = _form(r)
    r.done()

    def build(it) -> SizeVal:
        if isinstance(it, tuple) and isinstance(it[0], str):
            raise ParseError(f"expected (sz ...), got atom {it[0]!r}", it[1], it[2])
        items, line, col = it
        if not items or not (isinstance(items[0], tuple) and items[0][0] == "sz"):
            raise ParseError("expected (sz <op> <child>...)", line, col)
        if len(items) < 2 or not isinstance(items[1][0], str):
            raise ParseError("sz needs an operator name", line, col)
        op = items[1][0]
        children = tuple(build(c) for c in items[2:])
        if sig is not None and sig.arity(op) != len(children):
            raise ArityMismatch(f"size operator {op} expects {sig.arity(op)} children")
        return SizeVal(op, children)

    return build(item)


def height(i: SizeVal) -> int:
    return 1 + max((height(c) for c in i.children), default=0)


class PlumpOrder:
    """Memoized decision procedures for the plump order."""

    def __init__(self):
        self._lt: dict[tuple[SizeVal, SizeVal], bool] = {}
        self._le: dict[tuple[SizeVal, SizeVal], bool] = {}

    def le(self, i: SizeVal, j: SizeVal) -> bool:
        key = (i, j)
        hit = self._le.get(key)
        if hit is None:
            hit = all(self.lt(c, j) for c in i.children)
            self._le[key] = hit
        return hit

    def lt(self, i: SizeVal, j: SizeVal) -> bool:
        key = (i, j)
        hit = self._lt.get(key)
        if hit is None:
            hit = any(self.le(i, c) for c in j.children)
            self._lt[key] = hit
        return hit


def size_signature_for(sig: Signature, sys: SystemOfEquations) -> SizeSig:
    """Nullary and binary structural operators, plus one operator per
    signature operator (arity of its child family) and one per equation
    (arity of its variable family)."""
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
        self.order = PlumpOrder()

        if members is None:
            # a first listing hands out ids in listing order, children first
            table = TermTable(signature(sig.ops))
            table.upto(height_bound)
            members = []
            for op, kids in table.nodes:
                members.append(SizeVal(sig.ops[op][0], tuple(members[k] for k in kids)))
        # below-first: whatever lies below a member has a smaller height
        self.members: tuple[SizeVal, ...] = tuple(sorted(members, key=height))
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

        # members with equal bits share one tuple: the 677 members of height
        # <= 5 have only 5 distinct down-sets and 5 distinct covering sets
        segments = {bits: self._members_at(bits) for bits in {*self._lt_bits, *covered_bits}}
        self.below: dict[SizeVal, tuple[SizeVal, ...]] = {
            m: segments[self._lt_bits[p]] for p, m in enumerate(self.members)
        }
        self.covered: dict[SizeVal, tuple[SizeVal, ...]] = {
            m: segments[covered_bits[p]] for p, m in enumerate(self.members)
        }
        above: dict[SizeVal, list[SizeVal]] = {m: [] for m in self.members}
        for k, lower in self.below.items():
            for j in lower:
                above[j].append(k)
        self.above: dict[SizeVal, tuple[SizeVal, ...]] = {m: tuple(ks) for m, ks in above.items()}

    @classmethod
    def chain(cls, sig: SizeSig, height_bound: int) -> "SizeUniverse":
        """The linearly ordered sub-universe of iterated successors.
        Unlike the full tree universe, every truncation of it is
        directed below its single maximal member."""
        steps = [sig.zero()]
        while len(steps) < height_bound:
            steps.append(sig.suc(steps[-1]))
        return cls(sig, height_bound, members=steps)

    def __contains__(self, i: SizeVal) -> bool:
        return i in self._position

    def position(self, i: SizeVal) -> int:
        return self._position[i]

    def _members_at(self, bits: int) -> tuple[SizeVal, ...]:
        out = []
        while bits:
            low = bits & -bits
            out.append(self.members[low.bit_length() - 1])
            bits ^= low
        return tuple(out)

    def lt(self, i: SizeVal, j: SizeVal) -> bool:
        p, q = self._position.get(i), self._position.get(j)
        if p is None or q is None:
            return self.order.lt(i, j)
        return self._lt_bits[q] >> p & 1 == 1

    def le(self, i: SizeVal, j: SizeVal) -> bool:
        p, q = self._position.get(i), self._position.get(j)
        if p is None or q is None:
            return self.order.le(i, j)
        return not self._masks[p] & ~self._lt_bits[q]


def wf_rec(
    u: SizeUniverse,
    step: Callable[[SizeVal, Mapping[SizeVal, object]], object],
    schedule: Optional[Sequence[SizeVal]] = None,
) -> dict[SizeVal, object]:
    """Well-founded recursion over the universe: step receives a member
    and the finished values of everything strictly below it.  The result
    is schedule-independent; a cycle in the order would surface as
    CycleDetected."""
    values: dict[SizeVal, object] = {}
    in_progress: set[SizeVal] = set()

    def visit(i: SizeVal):
        if i in values:
            return values[i]
        if i in in_progress:
            raise CycleDetected(show_size(i))
        in_progress.add(i)
        partial = {j: visit(j) for j in u.below[i]}
        values[i] = step(i, partial)
        in_progress.discard(i)
        return values[i]

    for i in schedule if schedule is not None else u.members:
        visit(i)
    return values
