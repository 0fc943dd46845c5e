"""Size-indexed approximation stages and the derived algebra interface.

Every universe member i gets a stage: equivalence classes of pairs
(j, t) with j a strictly smaller member and t a depth-bounded term over
j's stage, closed under two clause families (equation instances, and
collapse of a class to its name one stage up) and congruence through
term structure, which keys every node, nullary ones included, and so
implies node-wise collapse (see diamond).  Collapse clauses are emitted
only along covering pairs k < j (SizeUniverse.covered, nothing strictly
between): those of any other k < j follow through a chain of covering
pairs, so the stage is the same (see diamond).  Members with identical
strict down-segments provably share a stage, so the build walks the
members once, below-first, and makes one stage per distinct
down-segment; the restriction check recomputes the literal per-member
reading independently and compares it through one label array per
member.

Terms are integer ids from enumeration to colimit.  Each build holds
one closed TermTable: every closed term within the depth bound, its ids
in the term order (see build_fixed_point; its reference is in
tests/oracles.py).  A stage read as a slice is read through its slice
view (SliceView), built once: a TermTable over its class tokens, whose
ids are the local ids, with the equation instances and, per local id,
the closed id of its flattening.  diamond lays the views side by side
at integer offsets, and the closure reads each view's node table in
place at its offset; classes rank by closed id, a stage stores the
class of each local id per slice, and the interface reads only those
arrays.  The collapse clauses of a slice into a higher stage are read
off the higher stage's class array for that slice and its tokens.
Trees are read off the closed table to print, to export and to hold
each class's flat; the (slice, term) mapping class_of_pair is kept for
readers outside the package.

The colimit of the stages carries the constructor map (children pushed
to a common stage, wrapped in a node, read off at the successor stage)
and the recursor (stage tables filled in sid order, slices first).
compareWithOracle certifies the whole construction against the
congruence-closure quotient on the shared depth-d fragment.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, count
from typing import Iterable, Iterator, Mapping, NamedTuple, Optional, Sequence, Union

from .algebras import Algebra, Value, satisfies
from .diagrams import Diagram, colim
from .errors import (
    ArityMismatch,
    CoherenceFailure,
    InfinitaryArity,
    NotSatisfying,
    NotStabilized,
    PartialAlgebra,
    QitError,
    StageOverflow,
)
from .quotient import CongruenceQuotient, congruence_roots, root_groups
from .sexpr import show_term
from .sizes import SizeUniverse, SizeVal, show_size
from .terms import (
    OpSym,
    Signature,
    SystemOfEquations,
    Term,
    TermTable,
    validate_system,
)


@dataclass(frozen=True)
class StageClass:
    flat: Term
    sort: Optional[str]
    fd: int
    # flat's id in the build's closed table, which the class ranks by
    flat_id: int = field(repr=False)


# The two records below are NamedTuples: a class of either kind is built
# on every import, and a NamedTuple builds about ten times faster.


class _Build(NamedTuple):
    """What the stages of one build share: the declaration, the depth
    bound, and the closed table of every closed term within the bound,
    whose ids run in the term order (see build_fixed_point)."""

    sig: Signature
    sys: SystemOfEquations
    depth: int
    closed: TermTable


class SliceView(NamedTuple):
    """A stage read as a slice.  table holds the depth-bounded terms over
    the stage's class tokens, leaf c being class c's token; a term's
    local id is its table id, which is its position in the enumeration,
    so a term's children always come before it."""

    table: TermTable
    # class -> local id of the class's token
    tokens: tuple[int, ...]
    # per equation, in the system's order: its instances within the
    # bound as local id pairs, and how many overflow the bound
    instances: tuple[tuple[tuple[tuple[int, int], ...], int], ...]
    # local id -> closed id of the term with every token flattened
    flats: tuple[int, ...]

    @property
    def terms(self) -> list[Term]:
        """The materialised term of each local id."""
        return self.table.terms


@dataclass(frozen=True)
class Stage:
    sid: int
    slices: tuple[int, ...]
    classes: tuple[StageClass, ...]
    # slice -> that slice's view, and the class of each of its local ids
    slice_views: Mapping[int, SliceView] = field(repr=False)
    slice_classes: Mapping[int, tuple[int, ...]] = field(repr=False)
    build: _Build = field(repr=False, compare=False)

    def __len__(self) -> int:
        return len(self.classes)

    @cached_property
    def view(self) -> SliceView:
        return _slice_view(self)

    @cached_property
    def class_of_pair(self) -> Mapping[tuple[int, Term], int]:
        """Kept for readers outside the package (tests/oracles.py,
        perfbench/tracing.py); the package reads slice_classes."""
        return {
            (s, t): c
            for s in self.slices
            for t, c in zip(self.slice_views[s].terms, self.slice_classes[s])
        }


def _slice_view(st: Stage) -> SliceView:
    """Enumerate the terms over st's class tokens once and index them."""
    sig, sys, bound, closed = st.build
    leaves = [(f"~{st.sid}.{c}", cls.sort, cls.fd) for c, cls in enumerate(st.classes)]
    table = TermTable(sig, leaves)
    table.upto(bound)
    flats: list[int] = []
    flat, lookup, classes = flats.__getitem__, closed.lookup, st.classes
    try:
        for node in table.nodes:
            if node.__class__ is int:
                flats.append(classes[node].flat_id)
            else:
                flats.append(lookup[(node[0], tuple(map(flat, node[1])))])
    except KeyError:
        term = show_term(table.terms[len(flats)])
        raise QitError(
            f"stage {st.sid} views {term}, whose flattening is deeper than {bound}"
        ) from None
    tokens = tuple(table.lookup[c] for c in range(len(st.classes)))
    instances = []
    for shape in sys.instance_shapes:
        # the class tuples under the budget rule, a class weighing its fd
        pools = [
            [c for c, cls in enumerate(st.classes) if want in (None, cls.sort)]
            for want in shape.sorts
        ]
        envs, overflow = shape.envs(pools, lambda c: st.classes[c].fd, bound)
        left, right = shape.sides
        read_left, read_right = table.reader(left), table.reader(right)
        pairs = []
        for combo in envs:
            ids = [tokens[c] for c in combo]
            lhs, rhs = read_left(ids)[left.out], read_right(ids)[right.out]
            if lhs is None or rhs is None:
                raise QitError(f"an instance of {shape.eq.name} escaped the slice view")
            pairs.append((lhs, rhs))
        instances.append((tuple(pairs), overflow))
    return SliceView(table, tokens, tuple(instances), tuple(flats))


def diamond(build: _Build, slices: Sequence[Stage], fire: set[tuple[int, int]], sid: int) -> Stage:
    """One quotient stage over the given slice stages.  fire lists the
    (lower, higher) slice pairs whose collapse clauses are emitted.

    Both callers fire only the covering pairs: (k, j) with j below the
    member this stage summarizes and k in covered[j].  The partition is
    still the one the full set of strictly ordered pairs gives.  Write
    d_kj t for the token of stage j's class of (k, t).  Take k < j with
    a member strictly between, and such an l with k covered by l.  The
    clause (k, t) ~ (l, d_kl t) is emitted.  By induction on the number
    of members strictly between, (l, d_kl t) ~ (j, d_lj d_kl t) is
    implied.  Stage j fires (k, l) itself, so (k, t) and (l, d_kl t)
    share a class there and d_lj d_kl t = d_kj t: the clause
    (k, t) ~ (j, d_kj t) is already implied.  So the least congruence
    does not change.  For shared stages a slice stands for every member
    with its down-segment; the argument carries over because same stage
    <=> same down-segment, which is the memo key.  The slices must come
    from build.

    No node-wise ("lifted") collapse clause is emitted either: (k, n) ~
    (j, op(d_kj k1 ... d_kj km)) for a node n = op(k1 ... km) of slice k.
    Every node is keyed in the closure, nullary ones included, so op()
    is one class across slices.  Each (k, ki) meets (j, d_kj ki), so by
    congruence (k, n) meets the lift, provided the lift lies in j's
    view.  It does: a class's fd is the depth of its least closed
    flattening, so it is at most the weighted depth of each of its
    members, and the lift weighs at most what n weighs, which fits the
    bound.  So the pool, its flats, the partition and every class rank
    are those the lifted clauses give.

    Equation instances are drawn per slice under the budget rule of
    InstanceShape.envs, a token weighing its class's fd: an instance is
    made exactly when both sides fit the bound with variables at depth 1
    and every variable v, at deepest position p_v (root = 1), gets a
    class with fd <= build.depth + 1 - p_v.  Overflowing instances are
    never built.  The stage is the least congruence on the pool that
    contains these clauses (congruence_roots).

    The pool is the slices' views laid end to end, slice s from offset
    base[s], so a pair (s, t) is the id base[s] + t's local id.  The
    closure reads each view's node table in place, as the block
    (base[s], view.table.nodes) whose child ids are local to the view;
    no node is copied to pool ids.  The collapse clauses of a fire pair
    (low, high) pair each of low's local ids with high's token of its
    class, read off high.slice_classes[low] and offset by the two bases.
    Each pool id carries the closed id of its flattening
    (SliceView.flats), and closed ids run in the term order, so a class
    ranks by its least closed id, then its first pool id; its flat, sort
    and fd are read off the closed table at that id."""
    closed = build.closed
    ordered = sorted(slices, key=lambda s: s.sid)
    by_sid = {st.sid: st for st in ordered}
    base: dict[int, int] = {}
    pool_flats: list[int] = []
    for st in ordered:
        base[st.sid] = len(pool_flats)
        pool_flats.extend(st.view.flats)

    # equation instances within one slice, as one list
    seeds: list[Iterable[tuple[int, int]]] = [[
        (b + lhs, b + rhs)
        for st in ordered
        for b in (base[st.sid],)
        for pairs, _ in st.view.instances
        for lhs, rhs in pairs
    ]]
    # each local id of low meets high's token of its class, offset
    # without a Python call; left lazy, as zip reuses its pair once the
    # closure has unpacked it, where a list would build one per pool id
    for low, high in sorted(fire):
        up = by_sid[high]
        tokens = map(up.view.tokens.__getitem__, up.slice_classes[low])
        seeds.append(zip(map(base[high].__add__, tokens), count(base[low])))

    blocks = [(base[st.sid], st.view.table.nodes) for st in ordered]
    groups = root_groups(congruence_roots(len(pool_flats), blocks, chain.from_iterable(seeds)))
    ranked = sorted(
        ((min(map(pool_flats.__getitem__, members)), members) for members in groups),
        key=lambda row: (row[0], row[1][0]),
    )

    classes = []
    class_of = [0] * len(pool_flats)
    terms, ops = closed.terms, build.sig.ops
    for cid, (flat, members) in enumerate(ranked):
        sort = ops[closed.nodes[flat][0]].sort
        classes.append(StageClass(terms[flat], sort, closed.depths[flat], flat))
        for n in members:
            class_of[n] = cid

    return Stage(
        sid=sid,
        slices=tuple(by_sid),
        classes=tuple(classes),
        slice_views={s: st.view for s, st in by_sid.items()},
        slice_classes={
            s: tuple(class_of[base[s] : base[s] + len(st.view.flats)]) for s, st in by_sid.items()
        },
        build=build,
    )


@dataclass
class Approximation:
    sig: Signature
    sys: SystemOfEquations
    universe: SizeUniverse
    depth: int
    stages: tuple[Stage, ...]
    stage_of: Mapping[SizeVal, int]
    build: _Build = field(repr=False)

    def stage_at(self, i: SizeVal) -> Stage:
        return self.stages[self.stage_of[i]]

    def delta(self, i: SizeVal, j: SizeVal, cls: int) -> int:
        """Push a class at member i one stage up to member j."""
        if not self.universe.lt(i, j):
            raise QitError(f"{show_size(i)} is not strictly below {show_size(j)}")
        si = self.stage_of[i]
        return self.stage_at(j).slice_classes[si][self.stages[si].view.tokens[cls]]

    def stage_pairs(self) -> Iterator[tuple[SizeVal, SizeVal]]:
        """The first member pair i < j, in member order then up-set
        order, for each distinct pair of their stages."""
        u = self.universe
        seen: set[tuple[int, int]] = set()
        for i in u.members:
            for j in u.above[i]:
                key = (self.stage_of[i], self.stage_of[j])
                if key not in seen:
                    seen.add(key)
                    yield i, j

    def check_fixed_diag(self) -> int:
        """Reading a pair off at a higher stage agrees with pushing its
        class up, for every ordered member pair and every pair."""
        checked = 0
        for i, j in self.stage_pairs():
            si = self.stage_of[i]
            low, high = self.stages[si], self.stage_at(j)
            # high's class of the token of each class of low
            via = [high.slice_classes[si][n] for n in low.view.tokens]
            for s in low.slices:
                for n, (ci, direct) in enumerate(zip(low.slice_classes[s], high.slice_classes[s])):
                    if direct != via[ci]:
                        term = low.slice_views[s].terms[n]
                        raise QitError(
                            f"stage diagram broken at {show_term(term)} between "
                            f"{show_size(i)} and {show_size(j)}"
                        )
                    checked += 1
        return checked

    def check_restriction(self) -> int:
        """Recompute every member's stage from the literal per-member sum
        (one slice per smaller member, no sharing) and demand the same
        partition.  This is the uniqueness of the shared fixed point.
        Every member gets its literal diamond; like the shared stages,
        each fires the covering pairs below the member only (see diamond
        for why that leaves the partition as the full fire set makes it).

        A literal slice's local ids are translated once into its shared
        stage's view, renaming its tokens through the class bijection
        found when that slice itself was checked; the translation must
        hold no -1 and cover the shared view, and the shared stage's
        slices must be the literal slices' stages.  Each member's label
        array maps literal class -> shared class through the translated
        ids: the labels must be well defined and the map a bijection.
        Together these make each literal class, translated, exactly one
        shared class."""
        u = self.universe
        literal: dict[int, Stage] = {}
        bij: dict[int, list[int]] = {}
        into: dict[int, list[int]] = {}
        checked = 0
        # by member position: the shared stage, and the covering pairs below
        # a member that has a member above it
        stage_of = [self.stage_of[m] for m in u.members]
        covering = {
            u.position(j): [u.position(k) for k in u.covered[j]] for j in u.members if u.above[j]
        }
        for pos, i in enumerate(u.members):
            below = [u.position(j) for j in u.below[i]]
            # k < j < i puts k below i; covering pairs suffice (see diamond)
            fire = {(k, j) for j in below for k in covering[j]}
            lit = diamond(self.build, [literal[j] for j in below], fire, sid=pos)
            literal[pos] = lit
            shared = self.stages[stage_of[pos]]
            if shared.slices != tuple(sorted({stage_of[pj] for pj in below})):
                raise QitError(f"restriction mismatch at {show_size(i)}: slices differ")
            # (literal class, shared class) of every translated local id
            pairs: set[tuple[int, int]] = set()
            for pj in below:
                sj = stage_of[pj]
                if pj not in into:
                    view = self.stages[sj].view
                    into[pj] = _translate(literal[pj].view, view, bij[pj])
                    if -1 in into[pj] or len(set(into[pj])) != len(view.flats):
                        raise QitError(f"restriction mismatch at {show_size(i)}: views differ")
                shared_of = shared.slice_classes[sj]
                pairs.update(zip(lit.slice_classes[pj], map(shared_of.__getitem__, into[pj])))
            label = [-1] * len(lit)
            for c, n in pairs:
                if label[c] != -1:
                    raise QitError(f"restriction mismatch at {show_size(i)}: partitions differ")
                label[c] = n
            if sorted(label) != list(range(len(shared))):
                raise QitError(f"restriction mismatch at {show_size(i)}: classes differ")
            bij[pos] = label
            checked += len(shared.classes)
        return checked

    def to_diagram(self) -> Diagram:
        """The stage diagram.  A transition depends only on the two
        members' stages, so member pairs over one stage pair share a map."""
        u = self.universe
        family = {i: tuple(range(len(self.stage_at(i)))) for i in u.members}
        by_stages: dict[tuple[int, int], dict[int, int]] = {}
        maps = {}
        for i in u.members:
            for j in u.above[i]:
                key = (self.stage_of[i], self.stage_of[j])
                step = by_stages.get(key)
                if step is None:
                    step = by_stages[key] = {c: self.delta(i, j, c) for c in family[i]}
                maps[(i, j)] = step
        return Diagram(u, family, maps)

    def dump(self) -> str:
        return (
            "\n".join(
                f"stage {show_size(i)}: {len(self.stage_at(i))}" for i in self.universe.members
            )
            + "\n"
        )

    def export(self) -> str:
        lines = [f"depth {self.depth} height {self.universe.height}"]
        for i in self.universe.members:
            lines.append(f"member {show_size(i)} -> stage {self.stage_of[i]}")
        for st in self.stages:
            slices = " ".join(str(s) for s in st.slices)
            lines.append(f"stage {st.sid}: slices ({slices}) classes {len(st)}")
            sizes = Counter(c for s in st.slices for c in st.slice_classes[s])
            for c, cls in enumerate(st.classes):
                lines.append(f"  class {c} {show_term(cls.flat)} | pairs {sizes[c]}")
        return "\n".join(lines) + "\n"


def _translate(src: SliceView, dst: SliceView, rename: Sequence[int]) -> list[int]:
    """The local id in dst of each term of src with its tokens renamed
    through the class map rename; -1 for a term dst does not hold.
    Children come before their parents, so one pass suffices."""
    out = [-1] * len(src.flats)
    for c, n in enumerate(src.tokens):
        out[n] = dst.tokens[rename[c]]
    get = dst.table.lookup.get
    for n, node in enumerate(src.table.nodes):
        if node.__class__ is not int:
            op, kids = node
            out[n] = get((op, tuple(map(out.__getitem__, kids))), -1)
    return out


def build_fixed_point(
    sig: Signature, sys: SystemOfEquations, u: SizeUniverse, depth_bound: int
) -> Approximation:
    """The stages of every member of u, certified: one stage per distinct
    strict down-segment, built in one below-first pass over the members.
    The build's closed table gets its first listing with want None, so
    its ids are handed out by depth, then by operator position, then
    children lexicographically by id: by induction on depth, the term
    order, whose reference is in tests/oracles.py."""
    validate_system(sig, sys)
    for decl in sig.ops:
        if not decl.arity.finite:
            raise InfinitaryArity(f"cannot materialize stages under {decl.op.show()}")
    build = _Build(sig, sys, depth_bound, TermTable(sig))
    build.closed.upto(depth_bound)
    stages: list[Stage] = []
    stage_of: dict[SizeVal, int] = {}
    by_segment: dict[tuple[SizeVal, ...], int] = {}
    # members come below-first, so every member below i already has its stage
    for i in u.members:
        below = u.below[i]
        sid = by_segment.get(below)
        if sid is None:
            slice_sids = sorted({stage_of[j] for j in below})
            # k < j < i puts k below i; covering pairs suffice (see diamond)
            fire = {(stage_of[k], stage_of[j]) for j in below for k in u.covered[j]}
            sid = by_segment[below] = len(stages)
            stages.append(diamond(build, [stages[s] for s in slice_sids], fire, sid=sid))
        stage_of[i] = sid
    appx = Approximation(
        sig=sig,
        sys=sys,
        universe=u,
        depth=depth_bound,
        stages=tuple(stages),
        stage_of=stage_of,
        build=build,
    )
    appx.check_fixed_diag()
    appx.check_restriction()
    return appx


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


class QwInterface:
    """Constructor, recursor, and checks on the stage colimit."""

    def __init__(self, appx: Approximation):
        self.appx = appx
        self.diagram = appx.to_diagram()
        self.colimit = colim(self.diagram)
        self.colimit.check_cocone()

    def __len__(self) -> int:
        return len(self.colimit)

    def inject(self, i: SizeVal, cls: int) -> int:
        return self.colimit.inject(i, cls)

    def class_flat(self, cid: int) -> Term:
        appx = self.appx
        classes = [appx.stage_at(m).classes[c] for m, c in self.colimit.classes[cid]]
        return min(classes, key=lambda cls: cls.flat_id).flat

    def _push(self, i: SizeVal, cid: int) -> Optional[int]:
        appx = self.appx
        for m, c in self.colimit.classes[cid]:
            if m == i:
                return c
            if appx.universe.lt(m, i):
                return appx.delta(m, i, c)
        return None

    def qwintro(self, op: Union[OpSym, str], children: Sequence[int]) -> int:
        appx = self.appx
        u = appx.universe
        for i in u.members:
            pushed = []
            for cid in children:
                c = self._push(i, cid)
                if c is None:
                    break
                pushed.append(c)
            if len(pushed) != len(children):
                continue
            opi = appx.sig.op_index(op)
            decl = appx.sig.ops[opi]
            if len(pushed) != decl.arity.count:
                raise ArityMismatch(
                    f"{decl.op.show()} takes {decl.arity.count} children, got {len(pushed)}"
                )
            sup = u.sig.suc(i)
            if sup not in u:
                raise StageOverflow(
                    f"no stage above {show_size(i)} in a height-{u.height} universe"
                )
            si = appx.stage_of[i]
            view = appx.stages[si].view
            n = view.table.lookup.get((opi, tuple(view.tokens[c] for c in pushed)))
            if n is None:
                raise StageOverflow(f"intro exceeds depth {appx.depth} at {show_size(i)}")
            return self.inject(sup, appx.stage_at(sup).slice_classes[si][n])
        raise StageOverflow("children have no common stage in the universe")

    def _fold_at(self, i: SizeVal, n: int) -> int:
        """Fold the local id n of i's stage view through the constructor."""
        appx = self.appx
        node = appx.stages[appx.stage_of[i]].view.table.nodes[n]
        if isinstance(node, int):
            return self.inject(i, node)
        op, kids = node
        return self.qwintro(appx.sig.ops[op].op, [self._fold_at(i, k) for k in kids])

    def check_qwequate(self) -> QwequateReport:
        """Every materialized equation instance lands in one class at the
        successor stage, and folding either side through the constructor
        gives that same colimit class."""
        appx = self.appx
        u = appx.universe
        checked = depth_skipped = intro_checked = intro_overflow = 0
        for i in u.members:
            sup = u.sig.suc(i)
            if sup not in u:
                continue
            si = appx.stage_of[i]
            view = appx.stages[si].view
            high = appx.stage_at(sup).slice_classes[si]
            for shape, (pairs, overflow) in zip(appx.sys.instance_shapes, view.instances):
                depth_skipped += overflow
                for lhs, rhs in pairs:
                    cl = high[lhs]
                    if cl != high[rhs]:
                        raise CoherenceFailure(
                            f"instance of {shape.eq.name} splits at stage above {show_size(i)}",
                            witness=(show_term(view.terms[lhs]), show_term(view.terms[rhs])),
                        )
                    checked += 1
                    try:
                        vl = self._fold_at(i, lhs)
                        vr = self._fold_at(i, rhs)
                    except StageOverflow:
                        intro_overflow += 1
                        continue
                    if not (vl == vr == self.inject(sup, cl)):
                        raise CoherenceFailure(
                            f"fold of {shape.eq.name} disagrees with the successor reading",
                            witness=(show_term(view.terms[lhs]), show_term(view.terms[rhs])),
                        )
                    intro_checked += 1
        return QwequateReport(checked, depth_skipped, intro_checked, intro_overflow)

    def qwrec(self, alg: Algebra) -> ConstructionRec:
        appx = self.appx
        report = satisfies(alg, appx.sys)
        if not report.ok:
            raise NotSatisfying(f"algebra violates {report.witness_eq}", report)

        # each stage comes after its slices, so one pass in sid order
        tables: dict[int, dict[int, Value]] = {}
        for sid, st in enumerate(appx.stages):
            vals: dict[int, Value] = {}
            for s in st.slices:
                # each term of the slice once, its children before it
                got: list[Value] = []
                for node, cls in zip(st.slice_views[s].table.nodes, st.slice_classes[s]):
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
                        f"recursion not constant along {show_size(j)} -> {show_size(i)}",
                        witness=show_term(appx.stages[sj].classes[c].flat),
                    )
                coherence += 1

        by_class: dict[int, Value] = {}
        for cid, grp in enumerate(self.colimit.classes):
            values = {tables[appx.stage_of[m]][c] for m, c in grp}
            if len(values) != 1:
                raise QitError("recursion values disagree across a colimit class")
            by_class[cid] = values.pop()
        return ConstructionRec(by_class, tables, coherence)

    def check_uniqueness(self, alg: Algebra, h: Mapping[int, Value]) -> UniquenessReport:
        """A candidate map out of the colimit is the recursor iff it
        commutes with every materialized node application."""
        appx = self.appx
        failures: list[str] = []
        # the first member with each stage
        first = {appx.stage_of[m]: m for m in reversed(appx.universe.members)}
        for sid, st in enumerate(appx.stages):
            m = first[sid]
            for s in st.slices:
                classes = st.slice_classes[s]
                for n, node in enumerate(st.slice_views[s].table.nodes):
                    if isinstance(node, int):
                        continue
                    op, kids = node
                    cls = classes[n]
                    node_cid = self.inject(m, cls)
                    child_cids = [self.inject(m, classes[k]) for k in kids]
                    try:
                        expected = alg.interp(appx.sig.ops[op].op, [h[c] for c in child_cids])
                    except PartialAlgebra:
                        failures.append(show_term(st.classes[cls].flat))
                        continue
                    if expected != h[node_cid]:
                        failures.append(show_term(st.classes[cls].flat))
        rec = self.qwrec(alg)
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

    def check_intro_stability(self) -> StabilityReport:
        """Pushing a materialized term up before reading it off agrees,
        at some higher stage, with reading it off directly; pairs with
        nothing above them in the universe are counted as skipped."""
        appx = self.appx
        u = appx.universe
        confirmed = skipped = failed = 0
        for i, j in appx.stage_pairs():
            si, sj = appx.stage_of[i], appx.stage_of[j]
            src = appx.stages[si].view
            uppers = u.above[j]
            if not uppers:
                skipped += len(src.flats)
                continue
            rename = [appx.delta(i, j, c) for c in range(len(appx.stages[si].classes))]
            tops = [appx.stage_at(k).slice_classes for k in uppers]
            for n, mapped in enumerate(_translate(src, appx.stages[sj].view, rename)):
                if mapped < 0:
                    raise QitError(
                        f"{show_term(src.terms[n])} pushed from {show_size(i)} to "
                        f"{show_size(j)} leaves the depth bound"
                    )
                if any(top[sj][mapped] == top[si][n] for top in tops):
                    confirmed += 1
                else:
                    failed += 1
        return StabilityReport(confirmed, skipped, failed)


def qw_from_colimit(appx: Approximation) -> QwInterface:
    return QwInterface(appx)


@dataclass(frozen=True)
class OracleComparison:
    class_pairs: tuple[tuple[int, int], ...]
    per_sort: Mapping[Optional[str], int]
    intro_checked: int


def compare_with_oracle(qw: QwInterface, q: CongruenceQuotient) -> OracleComparison:
    """Certify that colimit classes and congruence classes agree on the
    depth-bounded fragment: flattening is a bijection commuting with the
    constructor.  The oracle keeps its own table and ranking: each closed
    id is read into the oracle's table through its own lookup, operators
    by symbol, so no two ids are assumed to coincide."""
    appx = qw.appx
    u = q.universe
    oracle_op = [u.sig.op_index(d.op) if u.sig.has_op(d.op) else -1 for d in appx.sig.ops]
    # closed id -> the oracle's id of the same term, -1 if it lacks it;
    # children come before their parents
    oracle_id: list[int] = []
    for op, kids in appx.build.closed.nodes:
        key = (oracle_op[op], tuple(map(oracle_id.__getitem__, kids)))
        oracle_id.append(u.table.lookup.get(key, -1))
    class_at = q.class_at

    mapping: dict[int, int] = {}
    for cid, grp in enumerate(qw.colimit.classes):
        oids = set()
        for m, c in grp:
            cls = appx.stage_at(m).classes[c]
            n = oracle_id[cls.flat_id]
            if n < 0:
                raise QitError(f"flattening {show_term(cls.flat)} escaped the oracle universe")
            oids.add(class_at[n])
        if len(oids) != 1:
            raise QitError("a colimit class straddles congruence classes")
        mapping[cid] = oids.pop()

    reverse: dict[int, int] = {}
    for cid in sorted(mapping):
        oid = mapping[cid]
        if oid in reverse:
            raise NotStabilized(
                "two colimit classes flatten into one congruence class; raise the height",
                witness=(show_term(qw.class_flat(reverse[oid])), show_term(qw.class_flat(cid))),
            )
        reverse[oid] = cid
    missing = [oid for oid in range(len(q)) if oid not in reverse]
    if missing:
        raise NotStabilized(
            f"{len(missing)} congruence classes have no colimit counterpart; raise the height",
            witness=tuple(missing),
        )

    intro_checked = 0
    nodes, ops = u.table.nodes, u.sig.ops
    for n in u.ids:
        op, kids = nodes[n]
        cid = qw.qwintro(ops[op].op, [reverse[class_at[k]] for k in kids])
        if mapping[cid] != class_at[n]:
            raise QitError(f"constructor mismatch at {show_term(u.table.terms[n])}")
        intro_checked += 1

    per_sort: dict[Optional[str], int] = {}
    for cid in mapping:
        sort = appx.sig.decl(qw.class_flat(cid).op).sort
        per_sort[sort] = per_sort.get(sort, 0) + 1

    return OracleComparison(
        class_pairs=tuple(sorted(mapping.items())),
        per_sort=per_sort,
        intro_checked=intro_checked,
    )
