"""Size-indexed diagrams, their colimits, and the power-diagram check.

A diagram assigns a finite carrier to every universe member and a
transition map to every strictly ordered pair.  The colimit glues
carriers along transitions; cocontinuity of powers is decided exactly,
by testing whether the canonical comparison map is a bijection.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Hashable, Mapping, Sequence

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


def power_diagram(diagram: Diagram, points: Sequence[Hashable]) -> Diagram:
    """The pointwise diagram of functions from a fixed finite set,
    with functions represented as tuples over the point order."""
    pts = tuple(points)
    family = {
        i: tuple(itertools.product(carrier, repeat=len(pts)))
        for i, carrier in diagram.family.items()
    }
    maps = {
        pair: {f: tuple(step[v] for v in f) for f in family[pair[0]]}
        for pair, step in diagram.maps.items()
    }
    return Diagram(diagram.universe, family, maps)


@dataclass(frozen=True)
class CocontinuityReport:
    ok: bool
    power_classes: int
    product_size: int
    injective: bool
    surjective: bool
    witness_confirmed: int
    witness_skipped: int
    witness_failed: int


def check_power_cocontinuity(diagram: Diagram, points: Sequence[Hashable]) -> CocontinuityReport:
    """Decide whether taking functions from a fixed finite set commutes
    with the colimit, by testing the comparison map for bijectivity.
    Stage-level witness searches are reported alongside; pairs with no
    common upper bound in the universe are counted as skipped."""
    pts = tuple(points)
    u = diagram.universe
    base = colim(diagram)
    power = colim(power_diagram(diagram, pts))

    targets: list[tuple[int, ...]] = []
    for grp in power.classes:
        images = {tuple(base.inject(i, f[n]) for n in range(len(pts))) for i, f in grp}
        if len(images) != 1:
            raise QitError("comparison map not constant on a class")
        targets.append(next(iter(images)))

    product = set(itertools.product(range(len(base)), repeat=len(pts)))
    injective = len(set(targets)) == len(targets)
    surjective = set(targets) == product

    confirmed = skipped = failed = 0
    for grp in power.classes:
        for (i, f), (j, g) in itertools.combinations(grp, 2):
            uppers = [k for k in u.above[i] if u.lt(j, k)]
            if not uppers:
                skipped += 1
                continue
            pushed = any(
                tuple(diagram.maps[(i, k)][v] for v in f)
                == tuple(diagram.maps[(j, k)][v] for v in g)
                for k in uppers
            )
            if pushed:
                confirmed += 1
            else:
                failed += 1

    return CocontinuityReport(
        ok=injective and surjective,
        power_classes=len(power),
        product_size=len(product),
        injective=injective,
        surjective=surjective,
        witness_confirmed=confirmed,
        witness_skipped=skipped,
        witness_failed=failed,
    )


def constant_diagram(u: SizeUniverse, carrier: Sequence[Hashable]) -> Diagram:
    elems = tuple(carrier)
    family = {i: elems for i in u.members}
    maps = {
        (i, j): {x: x for x in elems}
        for i in u.members
        for j in u.above[i]
    }
    return Diagram(u, family, maps)


def growing_chain(u: SizeUniverse) -> Diagram:
    from .sizes import height

    family = {i: tuple(range(height(i))) for i in u.members}
    maps = {
        (i, j): {x: x for x in family[i]}
        for i in u.members
        for j in u.above[i]
    }
    return Diagram(u, family, maps)
