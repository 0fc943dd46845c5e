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

A size is its id in its universe's size table, as a class is its
flat_id.  A SizeUniverse generates its members as the first listing of
a TermTable over the size signature, the enumeration the term universes
use: ids come children first, by depth, which is height, then
operator, then children, so each member is one node (operator
position, child ids) and one depth.  The universe decides the order on
them by depth, so every member's strict down-set (below) is the members
of lower heights, a prefix of the ids, its up-set (above) the suffix of
higher heights, and there is one distinct down-segment per height
(segments).  The universe decides the order on its members only; the
recursion above, on trees, is its reference (tests/oracles.py's
PlumpOrder).
"""

from __future__ import annotations

from itertools import groupby
from typing import Iterator, Optional, Sequence

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
    """All sizes of height <= h over a signature, as ids into nodes (the
    operator position and child ids of each member) with their depths,
    and the strict down- and up-sets as ranges of ids.  Members may be
    given as (operator name, child ids), children first and by height;
    otherwise they are the size table's first listing.  Members of one
    height share their below, above and segments ranges.  Immutable once
    built."""

    def __init__(
        self,
        sig: SizeSig,
        height_bound: int,
        members: Optional[Sequence[tuple[str, Sequence[int]]]] = None,
    ):
        if height_bound < 1:
            raise ArityMismatch("height bound must be at least 1")
        self.sig = sig
        self.height = height_bound
        if members is None:
            # a first listing hands out ids by depth, children first
            table = TermTable(signature(sig.ops))
            table.upto(height_bound)
            self.nodes, self.lookup, self.depths = table.nodes, table.lookup, table.depths
        else:
            self._listed(members)
        self._binary = [n for n, _ in sig.ops].index(sig.binary)

        n = len(self.nodes)
        self.members = range(n)
        self.below: dict[int, range] = {}
        self.above: dict[int, range] = {}
        # each distinct down-segment -> the members whose down-segment it
        # is: one entry per height
        self.segments: dict[range, range] = {}
        end = 0
        for _, level in groupby(self.depths):
            start, end = end, end + sum(1 for _ in level)
            below, tops = range(start), range(start, end)
            self.segments[below] = tops
            self.below.update(dict.fromkeys(tops, below))
            self.above.update(dict.fromkeys(tops, range(end, n)))

    def _listed(self, members: Sequence[tuple[str, Sequence[int]]]) -> None:
        """Read given members into nodes, lookup and depths, refusing
        what the size table would not list."""
        ops = {name: (pos, arity) for pos, (name, arity) in enumerate(self.sig.ops)}
        self.nodes: list[tuple[int, tuple[int, ...]]] = []
        self.lookup: dict[tuple[int, tuple[int, ...]], int] = {}
        self.depths: list[int] = []
        for name, kids in members:
            p, kids = len(self.nodes), tuple(kids)
            if name not in ops:
                raise QitError(f"member {p} has operator {name!r}, which the size signature lacks")
            op, arity = ops[name]
            if len(kids) != arity:
                raise ArityMismatch(
                    f"member {p}: size operator {name} takes {arity} children, got {len(kids)}"
                )
            for k in kids:
                if not 0 <= k < p:
                    raise QitError(f"child {k} of member {p} is not a universe member listed before it")
            node = (op, kids)
            if node in self.lookup:
                raise QitError(f"{self.show(self.lookup[node])} is listed twice as a universe member")
            depth = 1 + max(map(self.depths.__getitem__, kids), default=0)
            self.nodes.append(node)
            if depth > self.height:
                raise QitError(f"{self.show(p)} has height {depth}, above the bound {self.height}")
            if p and depth < self.depths[-1]:
                raise QitError(f"{self.show(p)} of height {depth} is listed after a higher member")
            self.lookup[node] = p
            self.depths.append(depth)

    def _member(self, i: int) -> int:
        # exactly int: isinstance passes a bool; 1.0 hashes like 1
        if i.__class__ is not int or not 0 <= i < len(self.nodes):
            raise QitError(f"size {i!r} is not a member of the height-{self.height} universe")
        return i

    def show(self, i: int) -> str:
        """The literal of member i, (sz op child ...)."""
        op, kids = self.nodes[self._member(i)]
        return f"(sz {self.sig.ops[op][0]}" + "".join(" " + self.show(k) for k in kids) + ")"

    def shown(self) -> Iterator[str]:
        """show of each member, in member order, in one pass: children
        come first, so each text is built from its children's.  Only the
        texts of members below the top height are kept, since no member
        has a top one as its child."""
        names = [name for name, _ in self.sig.ops]
        # the top height's down-segment, the members below it
        keep = next(reversed(self.segments), range(0)).stop
        texts: list[str] = []
        for i, (op, kids) in enumerate(self.nodes):
            text = f"(sz {names[op]}" + "".join([" " + texts[k] for k in kids]) + ")"
            if i < keep:
                texts.append(text)
            yield text

    def suc(self, i: int) -> Optional[int]:
        """The member join(i, i), or None if the universe lacks it."""
        i = self._member(i)
        return self.lookup.get((self._binary, (i, i)))

    def lt(self, i: int, j: int) -> bool:
        """i < j, for members i and j."""
        return self.depths[self._member(i)] < self.depths[self._member(j)]

    def le(self, i: int, j: int) -> bool:
        """i <= j, for members i and j.  The order's other half: nothing
        in the package asks it, and tests/test_sizes.py checks the
        plump laws and lt against it."""
        return self.depths[self._member(i)] <= self.depths[self._member(j)]
