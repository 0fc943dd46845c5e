"""Size-indexed approximation stages and the derived algebra interface.

Every universe member i gets a stage: equivalence classes of pairs
(j, t) with j a strictly smaller member and t a depth-bounded term over
j's stage, closed under two clause families (equation instances, and
collapse of a class to its name one stage up) and congruence through
term structure, which keys every node, nullary ones included, and so
implies node-wise collapse (see diamond).  No collapse clause is a
seed: each lies in the congruence the slices' equation instances
already generate, as the slices are closed downward (see diamond).
Members with identical strict down-segments provably share a stage, so
the build makes one stage per distinct down-segment
(SizeUniverse.segments, one per height), below-first; the restriction
check recomputes the literal per-member reading independently and
compares it through one label array per member.

Terms are integer ids from enumeration to colimit.  Each build holds
one closed TermTable: every closed term within the depth bound, its ids
in the term order (see build_fixed_point; its reference is in
tests/oracles.py).  A stage read as a slice is read through its slice
view (SliceView), built once: a TermTable over its class tokens, whose
ids are the local ids, with the equation instances and, per local id,
the closed id of its flattening.  diamond closes each stage on the closed
table alone: every pair lies in the class of its flattening in the
least member's class-less slice, whose view is the closed table (see
diamond).  Classes rank by closed id, a stage stores the class of each
local id per slice, and the interface reads only those arrays.
Trees are read off the closed table to print, to export and to hold
each class's flat; the (slice, term) mapping class_of_pair is kept for
perfbench/tracing.py and the tests.

The stage diagram (to_diagram) labels each member by its stage: one
transition map per stage and slice, which diagrams.Colimit checks and
glues per stage transition, not per member pair.  Its colimit carries
the constructor map (children pushed to a common stage, wrapped in a
node, read off at the successor stage).
compare_with_oracle certifies the whole construction against the
congruence-closure quotient on the shared depth-d fragment.  The
paper's other checks on the colimit (equations, recursion, uniqueness,
intro stability) are in tests/theorems.py.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, combinations
from typing import Iterator, Mapping, NamedTuple, Optional, Sequence, Union

from .diagrams import Diagram, colim
from .errors import ArityMismatch, InfinitaryArity, NotStabilized, QitError, StageOverflow
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
    def flat_instances(self) -> frozenset[tuple[int, int]]:
        """The closed id pairs the view's equation instances flatten to."""
        flats = self.view.flats
        return frozenset(
            (flats[lhs], flats[rhs]) for pairs, _ in self.view.instances for lhs, rhs in pairs
        )

    @cached_property
    def class_of_pair(self) -> Mapping[tuple[int, Term], int]:
        """Kept for perfbench/tracing.py, which counts a traced build's
        stage pairs with it, and for the tests that compare a stage with
        tests/oracles.py's naive_diamond; the package reads
        slice_classes."""
        return {
            (s, t): c
            for s in self.slices
            for t, c in zip(self.slice_views[s].table.terms, self.slice_classes[s])
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


def diamond(build: _Build, slices: Sequence[Stage], sid: int) -> Stage:
    """One quotient stage over the given slice stages: the least
    congruence on the pairs (s, n) of a slice s and a local id n of its
    view (every node keyed, nullary ones included) that contains each
    slice's equation instances and, for each slice low of a slice high,
    the collapse clauses (low, n) ~ (high, token of high's class of
    (low, n)).  Instances are drawn per slice under the budget rule of
    InstanceShape.envs, a token weighing its class's fd (_slice_view);
    overflowing instances are never built.  The slices must come from
    build, each built by diamond, and be closed downward: every slice of
    a slice is one of them.  Both callers pass every stage below the
    member this stage summarizes, so the collapse clauses are those of
    every strictly ordered pair of members below it.

    The stage is computed on build.closed.  Unless slices is empty, one
    of them must be class-less, or this raises: call it z.  Its view is
    the closed table and its flats are the identity; in both callers it
    is the least member's stage, a slice of every stage with classes.
    Let C be the least congruence on the closed ids that contains each
    slice's instances read through its flats.  The stage relates two
    pairs exactly when C relates their flats (call that Q):
    - C holds every collapse clause read through the flats, (low's flat
      of n, flat_id of high's class of (low, n)).  Both ids lie in one
      class of high, which diamond computed as a class of the least
      congruence C_high holding high's slices' flat instances.  Those
      slices are slices here, so C_high lies in C.  This is why no
      collapse clause is a seed.
    - Q holds the stage: it is a congruence, as a node flattens to the
      closed node over its children's flats, and every clause flattens
      to a pair of C, a token to its class's flat_id.  So, child by
      child, do the lifted clauses (k, n) ~ (j, op(d_kj k1 ... d_kj km))
      that tests/oracles.py's naive_diamond also emits, d_kj t being
      the token of stage j's class of (k, t).
    - The stage holds Q: by induction on n, (s, n) lies in the class of
      (z, s's flat of n).  A token of class c meets (z, flat_id of c),
      which lies in c in stage s, by the collapse clause from z into s;
      a node meets its flattening, which lies in z's view (_slice_view
      raises otherwise), as its children do.  Read on z, the stage is a
      congruence holding every seed of C, so it holds C.
    So each slice reads its classes, through its flats, off one
    congruence_roots call over closed.nodes.  Each closed id is a pair
    of z, so the classes in first-id order rank by least closed id, with
    no ties; flat, sort and fd are read off the closed table there."""
    closed = build.closed
    by_sid = {st.sid: st for st in sorted(slices, key=lambda s: s.sid)}
    classes = []
    class_of: list[int] = []
    if by_sid:
        if all(st.classes for st in by_sid.values()):
            raise QitError(f"stage {sid} has no class-less slice to close on")
        seeds = chain.from_iterable(st.flat_instances for st in by_sid.values())
        groups = root_groups(congruence_roots(closed.nodes, seeds))
        class_of = [0] * len(closed.nodes)
        terms, depths, nodes, ops = closed.terms, closed.depths, closed.nodes, build.sig.ops
        for cid, members in enumerate(groups):
            flat = members[0]
            classes.append(StageClass(terms[flat], ops[nodes[flat][0]].sort, depths[flat], flat))
            for n in members:
                class_of[n] = cid

    return Stage(
        sid=sid,
        slices=tuple(by_sid),
        classes=tuple(classes),
        slice_views={s: st.view for s, st in by_sid.items()},
        # a tuple built from a list is sized exactly, one built from map is not
        slice_classes={
            s: tuple([class_of[n] for n in st.view.flats]) for s, st in by_sid.items()
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
        order, for each distinct pair of their stages.  A stage is a
        segment, and a segment a height, so every member of a later
        segment lies above the first member of an earlier one: these
        are the pairs of first members of two segments, in segment
        order."""
        return combinations([tops[0] for tops in self.universe.segments.values()], 2)

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
                        term = low.slice_views[s].table.terms[n]
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
        Every member gets its literal diamond.

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
        # the shared stage, by member position
        stage_of = [self.stage_of[m] for m in u.members]
        for pos, i in enumerate(u.members):
            below = [u.position(j) for j in u.below[i]]
            lit = diamond(self.build, [literal[j] for j in below], sid=pos)
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
        """The stage diagram, labelled by stage.  A transition depends
        only on the two members' stages, so there is one map per distinct
        stage pair, read off one member pair: per down-segment, the first
        member of each stage in it and the first member above it."""
        u = self.universe
        family = {sid: tuple(range(len(st))) for sid, st in enumerate(self.stages)}
        maps = {}
        for below, tops in u.segments.items():
            j = tops[0]
            firsts = {}
            for i in below:
                firsts.setdefault(self.stage_of[i], i)
            for si, i in firsts.items():
                maps[(si, self.stage_of[j])] = {c: self.delta(i, j, c) for c in family[si]}
        return Diagram(u, self.stage_of, family, maps)

    def dump(self) -> str:
        return "".join(
            f"stage {shown}: {len(self.stage_at(i))}\n"
            for i, shown in zip(self.universe.members, self.universe.shown())
        )

    def export(self) -> str:
        lines = [f"depth {self.depth} height {self.universe.height}"]
        for i, shown in zip(self.universe.members, self.universe.shown()):
            lines.append(f"member {shown} -> stage {self.stage_of[i]}")
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
    strict down-segment, built in one below-first pass over the segments.
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
    # segments come in the order of their first member, below-first, so
    # every member below a segment's members already has its stage
    for sid, (below, tops) in enumerate(u.segments.items()):
        slice_sids = sorted({stage_of[j] for j in below})
        stages.append(diamond(build, [stages[s] for s in slice_sids], sid=sid))
        stage_of.update(dict.fromkeys(tops, sid))
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


class QwInterface:
    """The constructor on the stage colimit."""

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
