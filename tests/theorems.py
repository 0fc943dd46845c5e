"""The paper's theorem checks, run by the tests.

The paper gives a QWI type by four properties -- introduction,
equations, recursion and uniqueness -- and proves that the size-indexed
colimit has all four, and that taking functions from a finite set
commutes with the colimit.  The product path certifies the colimit
against the congruence quotient (construction.compare_with_oracle) on
every construct --compare-oracle.  The checks here test each property
on its own, as functions of a QwInterface, a CongruenceQuotient or a
Diagram, and read only their public state.  They read a stage's terms
over its class tokens through oracles.naive_view, since the package
reads every stage off the closed table.

qwrec is the recursor on the colimit (stage tables filled in sid order,
slices first); quotient.qwrec, the fold the fold command runs, is
checked against it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Hashable, Mapping, Optional, Sequence, Union

from qitbench.algebras import Algebra, Value, satisfies
from qitbench.construction import QwInterface
from qitbench.diagrams import Colimit, Diagram
from qitbench.errors import CoherenceFailure, NotSatisfying, PartialAlgebra, QitError, StageOverflow
from qitbench.quotient import CongruenceQuotient, qwrec as quotient_qwrec
from qitbench.sexpr import show_term
from qitbench.sizes import SizeUniverse
from qitbench.terms import Term

from oracles import NaiveView, naive_translate, naive_view, view_classes

# --- the colimit: equations, recursion, uniqueness, intro stability ---


@dataclass(frozen=True)
class QwequateReport:
    checked: int
    depth_skipped: int
    intro_checked: int
    intro_overflow: int


@dataclass(frozen=True)
class StabilityReport:
    confirmed: int
    skipped: int
    failed: int

    @property
    def ok(self) -> bool:
        return self.failed == 0


@dataclass
class ConstructionRec:
    by_class: dict[int, Value]
    stage_tables: Mapping[int, Mapping[int, Value]]
    coherence_checked: int


@dataclass(frozen=True)
class UniquenessReport:
    is_hom: bool
    hom_failures: tuple[str, ...]
    agrees: bool
    first_discrepancy: Optional[tuple[int, Value, Value]]

    @property
    def ok(self) -> bool:
        return self.is_hom and self.agrees


def fold_at(qw: QwInterface, i: int, view: NaiveView, n: int) -> int:
    """Fold the local id n of view, i's stage read as a slice, through
    the constructor."""
    node = view.table.nodes[n]
    if isinstance(node, int):
        return qw.inject(i, node)
    op, kids = node
    return qw.qwintro(qw.appx.sig.ops[op].op, [fold_at(qw, i, view, k) for k in kids])


def check_qwequate(qw: QwInterface) -> QwequateReport:
    """Every materialized equation instance lands in one class at the
    successor stage, and folding either side through the constructor
    gives that same colimit class."""
    appx = qw.appx
    u = appx.universe
    checked = depth_skipped = intro_checked = intro_overflow = 0
    views = [naive_view(st) for st in appx.stages]
    for i in u.members:
        sup = u.suc(i)
        if sup is None:
            continue
        view = views[appx.stage_of[i]]
        high = view_classes(appx.stage_at(sup), view)
        for shape, (pairs, overflow) in zip(appx.sys.instance_shapes, view.instances):
            depth_skipped += overflow
            for lhs, rhs in pairs:
                cl = high[lhs]
                if cl != high[rhs]:
                    raise CoherenceFailure(
                        f"instance of {shape.eq.name} splits at stage above {u.show(i)}",
                        witness=(show_term(view.table.terms[lhs]), show_term(view.table.terms[rhs])),
                    )
                checked += 1
                try:
                    vl = fold_at(qw, i, view, lhs)
                    vr = fold_at(qw, i, view, rhs)
                except StageOverflow:
                    intro_overflow += 1
                    continue
                if not (vl == vr == qw.inject(sup, cl)):
                    raise CoherenceFailure(
                        f"fold of {shape.eq.name} disagrees with the successor reading",
                        witness=(show_term(view.table.terms[lhs]), show_term(view.table.terms[rhs])),
                    )
                intro_checked += 1
    return QwequateReport(checked, depth_skipped, intro_checked, intro_overflow)


def qwrec(qw: QwInterface, alg: Algebra) -> ConstructionRec:
    """The recursor on the colimit: each stage's classes folded through
    alg, constant along every stage map and on every colimit class."""
    appx = qw.appx
    report = satisfies(alg, appx.sys)
    if not report.ok:
        raise NotSatisfying(f"algebra violates {report.witness_eq}", report)

    # each stage comes after its slices, so one pass in sid order
    views = [naive_view(st) for st in appx.stages]
    tables: dict[int, dict[int, Value]] = {}
    for sid, st in enumerate(appx.stages):
        vals: dict[int, Value] = {}
        for s in st.slices:
            # each term of the slice once, its children before it
            got: list[Value] = []
            for node, cls in zip(views[s].table.nodes, view_classes(st, views[s])):
                if isinstance(node, int):
                    v = tables[s][node]
                else:
                    op, kids = node
                    v = alg.interp(appx.sig.ops[op].op, tuple(got[k] for k in kids))
                got.append(v)
                if cls in vals and vals[cls] != v:
                    raise CoherenceFailure(
                        f"recursion incompatible at stage {sid}",
                        witness=show_term(st.classes[cls].flat),
                    )
                vals[cls] = v
        tables[sid] = vals

    coherence = 0
    for j, i in appx.stage_pairs():
        sj, si = appx.stage_of[j], appx.stage_of[i]
        for c in range(len(appx.stages[sj].classes)):
            if tables[sj][c] != tables[si][appx.delta(j, i, c)]:
                raise CoherenceFailure(
                    f"recursion not constant along {appx.universe.show(j)} -> {appx.universe.show(i)}",
                    witness=show_term(appx.stages[sj].classes[c].flat),
                )
            coherence += 1

    by_class: dict[int, Value] = {}
    for cid, grp in enumerate(qw.colimit.classes):
        values = {tables[appx.stage_of[m]][c] for m, c in grp}
        if len(values) != 1:
            raise QitError("recursion values disagree across a colimit class")
        by_class[cid] = values.pop()
    return ConstructionRec(by_class, tables, coherence)


def check_uniqueness(qw: QwInterface, alg: Algebra, h: Mapping[int, Value]) -> UniquenessReport:
    """A candidate map out of the colimit is the recursor iff it
    commutes with every materialized node application."""
    appx = qw.appx
    failures: list[str] = []
    # the first member with each stage
    first = {appx.stage_of[m]: m for m in reversed(appx.universe.members)}
    views = [naive_view(st) for st in appx.stages]
    for sid, st in enumerate(appx.stages):
        m = first[sid]
        for s in st.slices:
            classes = view_classes(st, views[s])
            for n, node in enumerate(views[s].table.nodes):
                if isinstance(node, int):
                    continue
                op, kids = node
                cls = classes[n]
                node_cid = qw.inject(m, cls)
                child_cids = [qw.inject(m, classes[k]) for k in kids]
                try:
                    expected = alg.interp(appx.sig.ops[op].op, [h[c] for c in child_cids])
                except PartialAlgebra:
                    failures.append(show_term(st.classes[cls].flat))
                    continue
                if expected != h[node_cid]:
                    failures.append(show_term(st.classes[cls].flat))
    rec = qwrec(qw, alg)
    discrepancy = None
    for cid, v in rec.by_class.items():
        if h.get(cid) != v:
            discrepancy = (cid, h.get(cid), v)
            break
    return UniquenessReport(
        is_hom=not failures,
        hom_failures=tuple(failures),
        agrees=discrepancy is None,
        first_discrepancy=discrepancy,
    )


def check_intro_stability(qw: QwInterface) -> StabilityReport:
    """Pushing a materialized term up before reading it off agrees,
    at some higher stage, with reading it off directly; pairs with
    nothing above them in the universe are counted as skipped."""
    appx = qw.appx
    u = appx.universe
    confirmed = skipped = failed = 0
    views = [naive_view(st) for st in appx.stages]
    for i, j in appx.stage_pairs():
        si, sj = appx.stage_of[i], appx.stage_of[j]
        src, dst = views[si], views[sj]
        uppers = u.above[j]
        if not uppers:
            skipped += len(src.flats)
            continue
        rename = [appx.delta(i, j, c) for c in range(len(appx.stages[si].classes))]
        tops = [appx.stage_at(k).class_at for k in uppers]
        for n, mapped in enumerate(naive_translate(src, dst, rename)):
            if mapped < 0:
                raise QitError(
                    f"{show_term(src.table.terms[n])} pushed from {u.show(i)} to "
                    f"{u.show(j)} leaves the depth bound"
                )
            if any(top[dst.flats[mapped]] == top[src.flats[n]] for top in tops):
                confirmed += 1
            else:
                failed += 1
    return StabilityReport(confirmed, skipped, failed)


# --- the quotient: uniqueness of the fold ---


@dataclass(frozen=True)
class UniqReport:
    is_hom: bool
    hom_failure: Optional[tuple[Term, Value, Value]]
    agrees: Optional[bool]
    first_discrepancy: Optional[tuple[int, Value, Value]]

    @property
    def ok(self) -> bool:
        return self.is_hom and bool(self.agrees)


def qwuniq_check(q: CongruenceQuotient, alg: Algebra, h: Union[Mapping[int, Value], Sequence[Value]]) -> UniqReport:
    """A candidate map out of the quotient either fails to be a
    homomorphism or agrees with the fold everywhere."""
    u = q.universe
    nodes, class_at = u.table.nodes, q.class_at
    ops = [d.op for d in u.sig.ops]
    for n in u.ids:
        op, kids = nodes[n]
        got = alg.interp(ops[op], tuple(h[class_at[k]] for k in kids))
        want = h[class_at[n]]
        if got != want:
            return UniqReport(False, (u.table.terms[n], got, want), None, None)
    rec = quotient_qwrec(q, alg)
    for cls in range(len(q)):
        if h[cls] != rec.values[cls]:
            return UniqReport(True, None, False, (cls, h[cls], rec.values[cls]))
    return UniqReport(True, None, True, None)


# --- diagrams: cocontinuity of finite powers ---


def power_diagram(diagram: Diagram, points: Sequence[Hashable]) -> Diagram:
    """The pointwise diagram of functions from a fixed finite set,
    with functions represented as tuples over the point order, under
    the same labels."""
    pts = tuple(points)
    family = {
        a: tuple(itertools.product(carrier, repeat=len(pts)))
        for a, carrier in diagram.family.items()
    }
    maps = {
        pair: {f: tuple(step[v] for v in f) for f in family[pair[0]]}
        for pair, step in diagram.maps.items()
    }
    return Diagram(diagram.universe, diagram.label, family, maps)


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
    u, label = diagram.universe, diagram.label

    def step(i: int, k: int) -> Mapping[Hashable, Hashable]:
        return diagram.maps[(label[i], label[k])]

    base = Colimit(diagram)
    power = Colimit(power_diagram(diagram, pts))
    power_classes = member_classes(power)

    targets: list[tuple[int, ...]] = []
    for grp in power_classes:
        images = {tuple(base.inject(i, f[n]) for n in range(len(pts))) for i, f in grp}
        if len(images) != 1:
            raise QitError("comparison map not constant on a class")
        targets.append(next(iter(images)))

    product = set(itertools.product(range(len(base)), repeat=len(pts)))
    injective = len(set(targets)) == len(targets)
    surjective = set(targets) == product

    confirmed = skipped = failed = 0
    for grp in power_classes:
        for (i, f), (j, g) in itertools.combinations(grp, 2):
            uppers = [k for k in u.above[i] if u.lt(j, k)]
            if not uppers:
                skipped += 1
                continue
            pushed = any(
                tuple(step(i, k)[v] for v in f) == tuple(step(j, k)[v] for v in g)
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


def member_classes(c: Colimit) -> list[list[tuple[int, Hashable]]]:
    """The colimit's classes over every (member, element) node, members
    in member order, each carrier in family order: node (i, x) lies in
    class inject(i, x)."""
    d = c.diagram
    classes: list[list[tuple[int, Hashable]]] = [[] for _ in range(len(c))]
    for i in d.universe.members:
        for x in d.family[d.label[i]]:
            classes[c.inject(i, x)].append((i, x))
    return classes


def constant_diagram(u: SizeUniverse, carrier: Sequence[Hashable]) -> Diagram:
    """One carrier and identity maps, labelled per member."""
    elems = tuple(carrier)
    maps = {(i, j): {x: x for x in elems} for i in u.members for j in u.above[i]}
    return Diagram(u, {i: i for i in u.members}, {i: elems for i in u.members}, maps)


def growing_chain(u: SizeUniverse) -> Diagram:
    """Carrier range(height) at each member and inclusions, labelled per
    member."""
    family = {i: tuple(range(u.depths[i])) for i in u.members}
    maps = {(i, j): {x: x for x in family[i]} for i in u.members for j in u.above[i]}
    return Diagram(u, {i: i for i in u.members}, family, maps)
