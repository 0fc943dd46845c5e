"""Size-indexed diagrams and their colimits.

A diagram assigns a finite carrier to every universe member and a
transition map to every strictly ordered pair.  It carries them
factored through a labelling: label sends each member to a label,
family sends a label to its carrier, and maps sends a label pair (a, b)
to the transition from any member labelled a to any strictly larger
member labelled b.  The construction labels a member by its stage, so
a diagram there has one map per distinct stage transition; a diagram
given per member labels each member by itself.  The colimit glues
carriers along transitions.  The check that finite powers commute with
the colimit is in tests/theorems.py.

Diagram.check walks label pairs and triples, not member pairs and
triples.  A member pair i < j is sound when maps[(label i, label j)]
exists and sends family[label i] into family[label j]; a member triple
i < j < k commutes when maps[(label j, label k)] after maps[(label i,
label j)] is maps[(label i, label k)] on family[label i].  Both read
the members only through their labels, so each label pair and each
label triple that some member pair or triple has is checked once, and
every member pair and triple is decided by its own labels' check.  The
walk finds exactly those labels, per distinct down-segment S of the
universe (SizeUniverse.segments) and the members T whose down-segment
S is.  Every member pair i < j has i in S = below[j] and j in T, and
every i in S and j in T form a pair: the label pairs are the union of
labels(S) x labels(T).  Every member triple i < j < k has j in S =
below[k], k in T and i in below[j], and every such choice is a triple:
the label triples are the union of labels(below[j]) x {label j} x
labels(T) over j in S.  None is skipped and none is spurious.  Within
a triple, i < k by transitivity, so its third map is a checked pair's.
The error names the first failing member pair or triple in member
order (then up-set order), found by a walk that runs only on failure.

The colimit's nodes are (member, element), member by member, each
member's carrier in family order; node (i, x) has id base[i] plus x's
position in its carrier.  The gluing is the least equivalence with
(i, x) ~ (j, maps[(label i, label j)][x]) for every i < j.  It is
generated by fewer seeds, per distinct down-segment S: with r_a the
first member of S labelled a,
- (r_a, x) ~ (j, maps[(a, label j)][x]) for each j whose down-segment
  is S and each label a in S;
- (i, x) ~ (r_a, x) for each other i in S labelled a.
Each seed holds in the full gluing: the first is a transition, and for
the second, both (i, x) and (r_a, x) are glued to (j, F x) for any j
whose down-segment is S (some is, by the definition of segments), with
F = maps[(a, label j)] for both since they share label a.  Conversely,
a transition (i, x) ~ (j, F x) has i in S = below[j]; the seeds join
(i, x) to (r_a, x) (nothing when i is r_a) and (r_a, x) to (j, F x).
So both seed sets generate one equivalence; neither argument uses
functoriality.  The classes come from one congruence_roots call over a
table of leaves, in the order of their first node, nodes ascending.

check_cocone still decides every member pair.  Per member, its class
row is the classes of its nodes; per member j and label a below it,
the expected row is the classes of (j, maps[(a, label j)][x]) over
family[a].  The cocone holds at i < j iff i's row is j's expected row
for label i.  Per down-segment S, the rows of S's members labelled a
are collected into a set, which must be exactly {expected row} for
every j whose down-segment is S; so every i in S is compared with
every such j.
"""

from __future__ import annotations

from typing import Hashable, Iterator, Mapping, NamedTuple, Optional

from .errors import FunctorialityViolation, QitError
from .quotient import congruence_roots, root_groups
from .records import tagged
from .sizes import SizeUniverse, SizeVal, show_size


@tagged
class Diagram(NamedTuple):
    universe: SizeUniverse
    label: Mapping[SizeVal, Hashable]
    family: Mapping[Hashable, tuple]
    maps: Mapping[tuple[Hashable, Hashable], Mapping[Hashable, Hashable]]

    def check(self) -> None:
        u, label, family = self.universe, self.label, self.family
        for i in u.members:
            if i not in label or label[i] not in family:
                raise FunctorialityViolation(f"no carrier at {show_size(i)}")
        pairs, triples = self._transitions()
        member_pairs = ((i, j) for i in u.members for j in u.above[i])
        member_triples = (
            (i, j, k) for i in u.members for j in u.above[i] for k in u.above[j]
        )
        # pairs first, so each triple's maps exist and are total
        for found, fault, walk in (
            (pairs, self._step_fault, member_pairs),
            (triples, self._chain_fault, member_triples),
        ):
            bad = {labels for labels, members in found.items() if fault(*members)}
            if bad:
                for members in walk:
                    if tuple(map(label.__getitem__, members)) in bad:
                        raise FunctorialityViolation(fault(*members))

    def _transitions(self) -> tuple[dict[tuple, tuple], dict[tuple, tuple]]:
        """Each label pair of a member pair and each label triple of a
        member triple, with one member pair or triple that has it (see
        the module docstring)."""
        u, label = self.universe, self.label
        pairs: dict[tuple, tuple] = {}
        triples: dict[tuple, tuple] = {}
        # member -> number of its down-segment; per segment number, its
        # labels with the first member of the segment labelled so
        seg_of: dict[SizeVal, int] = {}
        firsts: list[dict[Hashable, SizeVal]] = []
        for below, tops in u.segments.items():
            low: dict[Hashable, SizeVal] = {}
            for i in below:
                low.setdefault(label[i], i)
            high: dict[Hashable, SizeVal] = {}
            for k in tops:
                high.setdefault(label[k], k)
                seg_of[k] = len(firsts)
            firsts.append(low)
            for a, i in low.items():
                for c, k in high.items():
                    pairs.setdefault((a, c), (i, k))
            # a member of the segment below another is listed before the
            # members above it, so its own segment is numbered already
            mids: dict[tuple[int, Hashable], SizeVal] = {}
            for j in below:
                mids.setdefault((seg_of[j], label[j]), j)
            for (s, b), j in mids.items():
                for a, i in firsts[s].items():
                    for c, k in high.items():
                        triples.setdefault((a, b, c), (i, j, k))
        return pairs, triples

    def _step_fault(self, i: SizeVal, j: SizeVal) -> Optional[str]:
        """What is wrong with the transition i -> j, if anything."""
        a, b = self.label[i], self.label[j]
        step = self.maps.get((a, b))
        if step is None:
            return f"no map {show_size(i)} -> {show_size(j)}"
        into = set(self.family[b])
        for x in self.family[a]:
            if x not in step:
                return f"map {show_size(i)} -> {show_size(j)} undefined at {x!r}"
            if step[x] not in into:
                return f"map {show_size(i)} -> {show_size(j)} escapes the carrier at {x!r}"
        return None

    def _chain_fault(self, i: SizeVal, j: SizeVal, k: SizeVal) -> Optional[str]:
        """Where i -> j -> k differs from i -> k, if anywhere."""
        a, b, c = self.label[i], self.label[j], self.label[k]
        lo, mid, hi = self.maps[(a, b)], self.maps[(b, c)], self.maps[(a, c)]
        for x in self.family[a]:
            if mid[lo[x]] != hi[x]:
                return f"composition mismatch at {x!r} through {show_size(j)}"
        return None


class Colimit:
    """Classes of (member, element) nodes glued along every transition
    (see the module docstring for the seeds)."""

    def __init__(self, diagram: Diagram):
        diagram.check()
        self.diagram = diagram
        u, label, family = diagram.universe, diagram.label, diagram.family
        nodes: list[tuple[SizeVal, Hashable]] = []
        self._base: dict[SizeVal, int] = {}
        for i in u.members:
            self._base[i] = len(nodes)
            nodes.extend([(i, x) for x in family[label[i]]])
        self._where = {a: {x: n for n, x in enumerate(xs)} for a, xs in family.items()}
        self._targets: dict[tuple[Hashable, Hashable], list[int]] = {}
        groups = root_groups(congruence_roots(range(len(nodes)), self._seeds()))
        self.classes: tuple[tuple[tuple[SizeVal, Hashable], ...], ...] = tuple(
            tuple(map(nodes.__getitem__, grp)) for grp in groups
        )
        self._class_of = [0] * len(nodes)
        for cid, grp in enumerate(groups):
            for n in grp:
                self._class_of[n] = cid

    def _target(self, a: Hashable, b: Hashable) -> list[int]:
        """Per element of family[a], the position in family[b] of its
        image under maps[(a, b)]."""
        got = self._targets.get((a, b))
        if got is None:
            d = self.diagram
            step, where = d.maps[(a, b)], self._where[b]
            got = self._targets[(a, b)] = [where[step[x]] for x in d.family[a]]
        return got

    def _seeds(self) -> Iterator[tuple[int, int]]:
        d, base = self.diagram, self._base
        u, label, family = d.universe, d.label, d.family
        for below, tops in u.segments.items():
            # label -> base of the first member of the segment labelled so
            first: dict[Hashable, int] = {}
            for i in below:
                at = base[i]
                r = first.setdefault(label[i], at)
                if r != at:
                    n = len(family[label[i]])
                    yield from zip(range(at, at + n), range(r, r + n))
            for j in tops:
                b, at = label[j], base[j]
                for a, r in first.items():
                    for n, t in enumerate(self._target(a, b), r):
                        yield n, at + t

    def __len__(self) -> int:
        return len(self.classes)

    def inject(self, i: SizeVal, x: Hashable) -> int:
        try:
            return self._class_of[self._base[i] + self._where[self.diagram.label[i]][x]]
        except KeyError:
            raise QitError(f"({show_size(i)}, {x!r}) is not a diagram node") from None

    def check_cocone(self) -> None:
        d, cls, base = self.diagram, self._class_of, self._base
        u, label, family = d.universe, d.label, d.family
        row = {i: tuple(cls[base[i]:base[i] + len(family[label[i]])]) for i in u.members}
        whole = True
        for below, tops in u.segments.items():
            rows: dict[Hashable, set[tuple[int, ...]]] = {}
            for i in below:
                rows.setdefault(label[i], set()).add(row[i])
            whole = whole and all(
                seen == {tuple([cls[base[j] + t] for t in self._target(a, label[j])])}
                for j in tops
                for a, seen in rows.items()
            )
        if whole:
            return
        # name the first broken node, member pairs in member then up-set order
        for i in u.members:
            for j in u.above[i]:
                for n, (x, t) in enumerate(zip(family[label[i]], self._target(label[i], label[j]))):
                    if cls[base[i] + n] != cls[base[j] + t]:
                        raise QitError(f"cocone broken at ({show_size(i)}, {x!r})")


def colim(diagram: Diagram) -> Colimit:
    return Colimit(diagram)
