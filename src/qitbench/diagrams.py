"""Size-indexed diagrams and their colimits.

A diagram assigns a finite carrier to every universe member and a
transition map to every strictly ordered pair.  The colimit glues
carriers along transitions.  The check that finite powers commute with
the colimit is in tests/theorems.py.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Mapping

from .errors import FunctorialityViolation, QitError
from .quotient import congruence_roots, root_groups
from .sizes import SizeUniverse, SizeVal, show_size


@dataclass(frozen=True)
class Diagram:
    universe: SizeUniverse
    family: Mapping[SizeVal, tuple]
    maps: Mapping[tuple[SizeVal, SizeVal], Mapping[Hashable, Hashable]]

    def check(self) -> None:
        u = self.universe
        for i in u.members:
            if i not in self.family:
                raise FunctorialityViolation(f"no carrier at {show_size(i)}")
        for i in u.members:
            for j in u.above[i]:
                step = self.maps.get((i, j))
                if step is None:
                    raise FunctorialityViolation(
                        f"no map {show_size(i)} -> {show_size(j)}"
                    )
                for x in self.family[i]:
                    if x not in step:
                        raise FunctorialityViolation(
                            f"map {show_size(i)} -> {show_size(j)} undefined at {x!r}"
                        )
                    if step[x] not in self.family[j]:
                        raise FunctorialityViolation(
                            f"map {show_size(i)} -> {show_size(j)} escapes the carrier at {x!r}"
                        )
        for i in u.members:
            for j in u.above[i]:
                for k in u.above[j]:
                    lo, mid, hi = self.maps[(i, j)], self.maps[(j, k)], self.maps.get((i, k))
                    if hi is None:
                        raise FunctorialityViolation(
                            f"no map {show_size(i)} -> {show_size(k)}"
                        )
                    for x in self.family[i]:
                        if mid[lo[x]] != hi[x]:
                            raise FunctorialityViolation(
                                f"composition mismatch at {x!r} through {show_size(j)}"
                            )


class Colimit:
    """Classes of (member, element) nodes glued along every transition."""

    def __init__(self, diagram: Diagram):
        diagram.check()
        self.diagram = diagram
        u = diagram.universe
        nodes: list[tuple[SizeVal, Hashable]] = []
        index: dict[tuple[SizeVal, Hashable], int] = {}
        for i in u.members:
            for x in diagram.family[i]:
                index[(i, x)] = len(nodes)
                nodes.append((i, x))
        glued = (
            (index[(i, x)], index[(j, step[x])])
            for (i, j), step in diagram.maps.items()
            for x in diagram.family[i]
        )
        self.classes: tuple[tuple[tuple[SizeVal, Hashable], ...], ...] = tuple(
            tuple(nodes[n] for n in grp)
            for grp in root_groups(congruence_roots(len(nodes), (), glued))
        )
        self._class_of: dict[tuple[SizeVal, Hashable], int] = {}
        for cid, grp in enumerate(self.classes):
            for node in grp:
                self._class_of[node] = cid

    def __len__(self) -> int:
        return len(self.classes)

    def inject(self, i: SizeVal, x: Hashable) -> int:
        node = (i, x)
        if node not in self._class_of:
            raise QitError(f"({show_size(i)}, {x!r}) is not a diagram node")
        return self._class_of[node]

    def check_cocone(self) -> None:
        d = self.diagram
        for (i, j), step in d.maps.items():
            for x in d.family[i]:
                if self.inject(i, x) != self.inject(j, step[x]):
                    raise QitError(f"cocone broken at ({show_size(i)}, {x!r})")


def colim(diagram: Diagram) -> Colimit:
    return Colimit(diagram)
