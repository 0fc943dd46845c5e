"""Size-indexed diagrams and their colimits.

A diagram assigns a finite carrier to every universe member and a
transition map to every strictly ordered pair.  It carries them
factored through a labelling: label sends each member to a label,
family sends a label to its carrier, and maps sends a label pair (a, b)
to the transition from any member labelled a to any strictly larger
member labelled b.  The construction labels a member by its stage, so
a diagram there has one map per distinct stage transition; a diagram
given per member labels each member by itself.  The check that finite
powers commute with the colimit is in tests/theorems.py.

Diagram.check walks label pairs and triples, not member pairs and
triples.  A member pair i < j is sound when maps[(label i, label j)]
exists and sends family[label i] into family[label j]; a member triple
i < j < k commutes when maps[(label j, label k)] after maps[(label i,
label j)] is maps[(label i, label k)] on family[label i].  Both read
the members only through their labels, so each label pair and each
label triple that some member pair or triple has is checked once, and
every member pair and triple is decided by its own labels' check.  The
order is the height preorder (sizes.py), so with L_h the labels of the
members of height h, the member pairs i < j are exactly the pairs of
members of heights h < h', and their label pairs the union of L_h x
L_h' over h < h'; likewise the label triples are the union of L_h x
L_h' x L_h'' over h < h' < h''.  None is skipped and none is spurious.
Within a triple, i < k by transitivity, so its third map is a checked
pair's.  check finds each L_h in one pass over the heights, in
first-seen order with the first member labelled so, tests each
member's carrier on the way, and returns them for Colimit.  The error
names the first failing member pair or triple in member order (then
up-set order), found by a walk that runs only on failure.

The colimit glues the nodes (i, x), x in member i's carrier: it is the
least equivalence with (i, x) ~ (j, maps[(label i, label j)][x]) for
every i < j.  Colimit glues label groups instead.  Let H be the top
height; the order is the height preorder (sizes.py), so every member
below H lies below every top member, and a top member below nothing.
A label group is a label on one level, below H or at H, with a node
per element of its carrier; the seeds are (a, x) ~ (c, maps[(a, c)][x])
for each group a below H and c at H, and a top node no seed names is
unreached.  A member node (i, x) lies in its group node (label i, x)'s
class, or alone if that is unreached:
- members i, i' below H labelled a glue (i, x) and (i', x), both being
  glued to (t, maps[(a, label t)][x]) for any top member t;
- for i < j below H labelled a and b, and t at H labelled c,
  maps[(b, c)] after maps[(a, b)] is maps[(a, c)] (Diagram.check
  certified i < j < t), so seeds glue (i, x) and (j, maps[(a, b)][x])
  to (t, maps[(a, c)][x]);
- a transition into a top member is a seed read on members, and none
  leaves one, so an unreached node is glued to nothing.
So the seeds read on members are transitions and generate them all.
The classes come from one congruence_classes call over the group
nodes, numbered by first member node (members in member order, carriers
in family order) as a member-by-member gluing numbers them: groups
below H come first, each at the first member of its label, so a class
is numbered by its first group node, as the call numbers it, and those
first met below H come first; then each unreached element gets a class
per top member labelled so, in member order.  classes holds each
class's group nodes at their groups' first members, or its one
unreached node.

check_cocone still decides every member pair i < j: each (i, x) must
share a class with (j, maps[(label i, label j)][x]).  i lies below H,
and those images at a top j are reached, so the test reads classes
through label groups and depends only on label i and j's group.  Per
height h', it runs once per label in the union of L_h over h < h' and
label in L_h', read off check's levels: every member pair i < j has its
labels there for h' = ht j.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import combinations, product
from typing import Hashable, Mapping, NamedTuple, Optional

from .errors import FunctorialityViolation, QitError
from .quotient import congruence_classes, root_groups
from .records import tagged
from .sizes import SizeUniverse

# the label of a member the labelling lacks, which no family holds
_UNLABELLED = object()


@tagged
class Diagram(NamedTuple):
    universe: SizeUniverse
    label: Mapping[int, Hashable]
    family: Mapping[Hashable, tuple]
    maps: Mapping[tuple[Hashable, Hashable], Mapping[Hashable, Hashable]]

    def check(self) -> list[dict[Hashable, int]]:
        """Check the diagram (see the module docstring); return each
        height's labels in first-seen order, each with the first member
        labelled so, lowest height first."""
        u, label, family = self.universe, self.label, self.family
        levels: list[dict[Hashable, int]] = []
        for tops in u.segments.values():
            level: dict[Hashable, int] = {}
            for k in tops:
                a = label.get(k, _UNLABELLED)
                if a not in level:
                    if a not in family:
                        raise FunctorialityViolation(f"no carrier at {u.show(k)}")
                    level[a] = k
            levels.append(level)
        # each label pair, then triple, -> a member pair or triple that has
        # it, one (label, first member) per height: zip reads ((a, i),
        # (c, k)) as ((a, c), (i, k))
        pairs, triples = (
            dict(zip(*chosen) for heights in combinations(levels, r)
                 for chosen in product(*(level.items() for level in heights)))
            for r in (2, 3)
        )
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
        return levels

    def _step_fault(self, i: int, j: int) -> Optional[str]:
        """What is wrong with the transition i -> j, if anything."""
        a, b = self.label[i], self.label[j]
        step = self.maps.get((a, b))
        show = self.universe.show
        if step is None:
            return f"no map {show(i)} -> {show(j)}"
        into = set(self.family[b])
        for x in self.family[a]:
            if x not in step:
                return f"map {show(i)} -> {show(j)} undefined at {x!r}"
            if step[x] not in into:
                return f"map {show(i)} -> {show(j)} escapes the carrier at {x!r}"
        return None

    def _chain_fault(self, i: int, j: int, k: int) -> Optional[str]:
        """Where i -> j -> k differs from i -> k, if anywhere."""
        a, b, c = self.label[i], self.label[j], self.label[k]
        lo, mid, hi = self.maps[(a, b)], self.maps[(b, c)], self.maps[(a, c)]
        for x in self.family[a]:
            if mid[lo[x]] != hi[x]:
                return f"composition mismatch at {x!r} through {self.universe.show(j)}"
        return None


class Colimit:
    """Classes of (member, element) nodes glued along every transition,
    computed on label groups (see the module docstring)."""

    def __init__(self, diagram: Diagram):
        self._levels = diagram.check()
        self.diagram = diagram
        u, label, family, maps = diagram.universe, diagram.label, diagram.family, diagram.maps
        self._where = {a: {x: n for n, x in enumerate(xs)} for a, xs in family.items()}
        *lows, top = self._levels
        # each label group, keyed (at H?, label), -> its first member
        firsts: dict[tuple[bool, Hashable], int] = {}
        for level in lows:
            for a, i in level.items():
                firsts.setdefault((False, a), i)
        firsts.update(((True, c), k) for c, k in top.items())
        nodes: list[tuple[int, Hashable]] = []
        self._start: dict[tuple[bool, Hashable], int] = {}  # each label group's first node id
        for group, i in firsts.items():
            self._start[group] = len(nodes)
            nodes.extend([(i, x) for x in family[group[1]]])
        below = self._start[(True, next(iter(top)))]
        seeds = [
            (self._start[(False, a)] + n, self._start[(True, c)] + self._where[c][maps[(a, c)][x]])
            for a_top, a in firsts if not a_top
            for c in top
            for n, x in enumerate(family[a])
        ]
        class_at, flats = congruence_classes(range(len(nodes)), seeds)
        # classes first met below H come first; the rest are one unreached
        # top node each
        reached = bisect_left(flats, below)
        self._class_of = [c if c < reached else -1 for c in class_at]
        classes = [tuple(map(nodes.__getitem__, grp)) for grp in root_groups(class_at)[:reached]]
        self._alone: dict[tuple[int, Hashable], int] = {}
        if -1 in self._class_of:
            for t in next(reversed(u.segments.values())):
                c = label[t]
                for n, y in enumerate(family[c], self._start[(True, c)]):
                    if self._class_of[n] < 0:
                        self._alone[(t, y)] = len(classes)
                        classes.append(((t, y),))
        self.classes: tuple[tuple[tuple[int, Hashable], ...], ...] = tuple(classes)

    def __len__(self) -> int:
        return len(self.classes)

    def inject(self, i: int, x: Hashable) -> int:
        d = self.diagram
        i = d.universe._member(i)
        try:
            a = d.label[i]
            cid = self._class_of[self._start[(not d.universe.above[i], a)] + self._where[a][x]]
            return cid if cid >= 0 else self._alone[(i, x)]
        except KeyError:
            raise QitError(f"({d.universe.show(i)}, {x!r}) is not a diagram node") from None

    def check_cocone(self) -> None:
        d, cls, start = self.diagram, self._class_of, self._start
        u, label, family, maps = d.universe, d.label, d.family, d.maps
        whole = True
        top = len(self._levels) - 1
        under: dict[Hashable, int] = {}  # the labels below height h
        for h, level in enumerate(self._levels):
            for b in level:
                at, where = start[(h == top, b)], self._where[b]
                whole = whole and all(
                    cls[start[(False, a)] + n] == cls[at + where[maps[(a, b)][x]]]
                    for a in under
                    for n, x in enumerate(family[a])
                )
            under.update(level)
        if whole:
            return
        # name the first broken node, member pairs in member then up-set order
        for i in u.members:
            for j in u.above[i]:
                step = maps[(label[i], label[j])]
                for x in family[label[i]]:
                    if self.inject(i, x) != self.inject(j, step[x]):
                        raise QitError(f"cocone broken at ({u.show(i)}, {x!r})")
