"""Size-indexed approximation stages and the derived algebra interface.

Every universe member i gets a stage: equivalence classes of pairs
(j, t) with j a strictly smaller member and t a depth-bounded term over
j's stage, closed under two clause families (equation instances, and
collapse of a class to its name one stage up) and congruence through
term structure (see diamond, which also shows that no collapse clause
needs to be a seed).  Members with identical strict down-segments
provably share a stage, so the build makes one stage per distinct
down-segment (SizeUniverse.segments, one per height), below-first; the
restriction check recomputes every member's stage literally and
compares its partition with the shared one.

Terms are integer ids from enumeration to colimit, in one id space.
Each build holds one closed TermTable: every closed term within the
depth bound, its ids in the term order (see build_fixed_point).  A
class is its flat_id, the least closed id in it.  A pair (j, t) is read
at its flattening, the closed id of t with each class token read as its
class's flat_id: a token weighs its class's fd, the depth of its flat,
so t's weighted depth is its flattening's depth, and every pair lies in
the closed table.  A stage is one congruence on the closed table (see
diamond), stored as the class of each closed id, and a pair's class is
its flattening's; no stage keeps a table of its own.  A stage's classes
are their flat_ids, and a class's sort and fd are read off the closed
table there.  Trees are read off it only to export and for error
messages; the (slice, term) mapping class_of_pair is kept for
perfbench/tracing.py and the tests.

The stage diagram (to_diagram) labels each member by its stage, a
height: diagrams.Colimit checks it per stage transition and glues one
node per stage class, a node's member standing for its stage.  The
colimit carries the constructor map (children pushed to a common stage,
wrapped in a node, read off at the successor stage), tried at the first
member of each stage.
compare_with_oracle certifies the whole construction against the
congruence-closure quotient on the shared depth-d fragment.  The
paper's other checks on the colimit (equations, recursion, uniqueness,
intro stability) are in tests/theorems.py.
"""

from __future__ import annotations

from functools import cached_property
from itertools import combinations
from math import prod
from typing import Iterable, Iterator, Mapping, NamedTuple, Optional, Sequence, Union

from .diagrams import Colimit, Diagram
from .errors import ArityMismatch, InfinitaryArity, NotStabilized, QitError, StageOverflow
from .quotient import CongruenceQuotient, congruence_classes, draw_instances
from .records import Record, tagged
from .sexpr import show_term
from .sizes import SizeUniverse
from .terms import (
    OpSym,
    Signature,
    SystemOfEquations,
    Term,
    TermTable,
    validate_system,
)


class _Build(NamedTuple):
    """What the stages of one build share: the declaration, the depth
    bound, and the closed table of every closed term within the bound,
    whose ids run in the term order (see build_fixed_point).  A class's
    flat, sort and fd are read off it at the class's flat_id."""

    sig: Signature
    sys: SystemOfEquations
    depth: int
    closed: TermTable


class Stage(Record):
    """One quotient stage (see diamond).  slice_stages are its slice
    stages in sid order, classes holds each class's flat_id, and class_at
    gives the class of each closed id, empty for the class-less stage;
    two stages compare by sid, classes and class_at."""

    _fields = ("sid", "classes", "class_at")

    def __init__(
        self,
        sid: int,
        slice_stages: tuple["Stage", ...],
        classes: tuple[int, ...],
        class_at: tuple[int, ...],
        build: _Build,
    ):
        # a direct write: _set's keyword call measurably slows a diamond
        self.__dict__.update(sid=sid, slice_stages=slice_stages, classes=classes,
                             class_at=class_at, build=build)

    def __len__(self) -> int:
        return len(self.classes)

    @cached_property
    def slices(self) -> tuple[int, ...]:
        return tuple(st.sid for st in self.slice_stages)

    @cached_property
    def flat_instances(self) -> frozenset[tuple[int, int]]:
        """The stage's equation instances read on the closed table: each
        variable at the flat_id of a class of its sort, drawn by
        quotient.draw_instances, a class weighing its fd.  These are the
        instances over the class tokens, flattened: a token weighs what
        its flat does."""
        sig, sys, bound, closed = self.build
        by_sort: dict[Optional[str], list[int]] = {}
        for f in self.classes:
            by_sort.setdefault(sig.ops[closed.nodes[f][0]].sort, []).append(f)
        instances, _ = draw_instances(sys, closed, {**by_sort, None: self.classes}, bound)
        return frozenset((lhs, rhs) for _, _, lhs, rhs in instances)

    @cached_property
    def class_of_pair(self) -> Mapping[tuple[int, Term], int]:
        """(slice, term over its class tokens) -> the class of the term's
        flattening, per slice in enumeration order.  Kept for
        perfbench/tracing.py, which counts a traced build's stage pairs
        with it, and for the tests that compare a stage with
        tests/oracles.py's naive_diamond; the package never reads it.
        The TermTable over each slice's class tokens built here is the
        only token table in the package."""
        sig, _, bound, closed = self.build
        out: dict[tuple[int, Term], int] = {}
        for low in self.slice_stages:
            leaves = [(f"~{low.sid}.{c}", sig.ops[closed.nodes[f][0]].sort, closed.depths[f])
                      for c, f in enumerate(low.classes)]
            table = TermTable(sig, leaves)
            table.upto(bound)
            flats: list[int] = []
            for node in table.nodes:
                if node.__class__ is int:
                    flats.append(low.classes[node])
                else:
                    flats.append(closed.lookup[(node[0], tuple(map(flats.__getitem__, node[1])))])
            pairs = [(low.sid, t) for t in table.terms]
            out.update(zip(pairs, map(self.class_at.__getitem__, flats)))
        return out


def diamond(build: _Build, slices: tuple[Stage, ...], seeds: Iterable[tuple], sid: int) -> Stage:
    """One quotient stage over the given slice stages: the least
    congruence on the pairs (s, t) of a slice s and a term t over s's
    class tokens within the bound (a token weighing its class's fd;
    every node keyed, nullary ones included) that contains each slice's
    equation instances and, for each slice low of a slice high, the
    collapse clauses (low, t) ~ (high, token of high's class of
    (low, t)).  Instances are drawn per slice under the budget rule of
    InstanceShape.envs (Stage.flat_instances); overflowing instances are
    never built.  seeds must be those instances: the union of the
    slices' flat_instances, which both callers grow with their slices,
    reading each slice's once.  The slices must come from build, each
    built by diamond, in sid order, and be closed downward: every slice
    of a slice is one of them.  Both callers pass every stage below the
    member this stage summarizes, so the collapse clauses are those of
    every strictly ordered pair of members below it.

    The stage is computed on build.closed, with no table per slice.  A
    pair (s, t) flattens to a closed id: t with each token read as its
    class's flat_id.  A class's fd is its flat's depth, so t's weighted
    depth is its flattening's depth, and every pair flattens into the
    closed table.  Unless slices is empty, the first of them must be
    class-less, or this raises: call it z.  Its terms are the closed
    terms, each its own flattening; in both callers z is the least
    member's stage, a slice of every stage with classes.  Let C be the
    least congruence on the closed ids that contains each slice's
    instances flattened, the seeds.  The stage relates two pairs
    exactly when C relates their flattenings (call that Q):
    - C holds every collapse clause flattened, (low's flattening of t,
      flat_id of high's class of (low, t)).  Both ids lie in one class
      of high, which diamond computed as a class of the least
      congruence C_high holding high's slices' flat instances.  Those
      slices are slices here, so C_high lies in C.  This is why no
      collapse clause is a seed.
    - Q holds the stage: it is a congruence, as a node flattens to the
      closed node over its children's flattenings, and every clause
      flattens to a pair of C, a token to its class's flat_id.  So,
      child by child, do the lifted clauses (k, t) ~ (j, op(d_kj k1 ...
      d_kj km)) that tests/oracles.py's naive_diamond also emits, d_kj t
      being the token of stage j's class of (k, t).
    - The stage holds Q: by induction on t, (s, t) lies in the class of
      (z, t's flattening).  A token of class c meets (z, flat_id of c),
      which lies in c in stage s, by the collapse clause from z into s;
      a node meets its flattening, a term of z, as its children do.
      Read on z, the stage is a congruence holding every seed of C, so
      it holds C.
    So the stage is one congruence_classes call over closed.nodes, its
    class_at the class of each closed id; a pair's class is its
    flattening's.  Each closed id is a pair of z, so the classes, by
    first closed id, rank by least closed id, and a class's flat_id is
    its flat in the call's flats, which the stage keeps as its classes;
    a class's flat, sort and fd are read off the closed table at it."""
    flats: list[int] = []
    class_at: list[int] = []
    if slices:
        if slices[0].classes:
            raise QitError(f"stage {sid} has no class-less slice to close on")
        class_at, flats = congruence_classes(build.closed.nodes, seeds)
    return Stage(sid, slices, tuple(flats), tuple(class_at), build)


class Approximation:
    """The stages of every member of universe: stage_of maps a member to
    its stage's position in stages."""

    def __init__(
        self,
        sig: Signature,
        sys: SystemOfEquations,
        universe: SizeUniverse,
        depth: int,
        stages: tuple[Stage, ...],
        stage_of: Mapping[int, int],
        build: _Build,
    ):
        self.sig, self.sys, self.universe, self.depth = sig, sys, universe, depth
        self.stages, self.stage_of, self.build = stages, stage_of, build

    def stage_at(self, i: int) -> Stage:
        return self.stages[self.stage_of[i]]

    def stage_class(self, i: int, cls: int) -> int:
        """cls, if it is a class of member i's stage."""
        n = len(self.stage_at(self.universe._member(i)))
        # exactly int: isinstance passes a bool, and a negative id would
        # index from the end
        if cls.__class__ is not int or not 0 <= cls < n:
            raise QitError(f"{cls!r} is not one of the {n} classes of the stage at {self.universe.show(i)}")
        return cls

    def delta(self, i: int, j: int, cls: int) -> int:
        """Push a class at member i one stage up to member j: j's class
        of the class's flat."""
        if not self.universe.lt(i, j):
            raise QitError(f"{self.universe.show(i)} is not strictly below {self.universe.show(j)}")
        return self.stage_at(j).class_at[self.stage_at(i).classes[self.stage_class(i, cls)]]

    def stage_pairs(self) -> Iterator[tuple[int, int]]:
        """The first member pair i < j, in member order then up-set
        order, for each distinct pair of their stages.  A stage is a
        segment, and a segment a height, so every member of a later
        segment lies above the first member of an earlier one: these
        are the pairs of first members of two segments, in segment
        order."""
        return combinations([tops[0] for tops in self.universe.segments.values()], 2)

    def check_fixed_diag(self) -> int:
        """Reading a pair off at a higher stage agrees with pushing its
        class up, for every ordered member pair and every pair.  A pair's
        class is its flattening's (see diamond), and the class-less slice
        z of every stage with classes holds each closed id as a pair, so
        checking the closed ids checks every pair, and the first failing
        closed id is the first failing pair of z, the first slice.
        Returns how many closed ids were checked."""
        checked = 0
        for i, j in self.stage_pairs():
            low, high = self.stage_at(i), self.stage_at(j)
            # high's class of the flat of each class of low
            via = [high.class_at[f] for f in low.classes]
            for n, (ci, direct) in enumerate(zip(low.class_at, high.class_at)):
                if direct != via[ci]:
                    raise QitError(
                        f"stage diagram broken at {show_term(self.build.closed.terms[n])} between "
                        f"{self.universe.show(i)} and {self.universe.show(j)}"
                    )
            checked += len(low.class_at)
        return checked

    def check_restriction(self) -> int:
        """Recompute every member's stage from the literal per-member sum
        (one slice per smaller member, no sharing) and demand the same
        partition: the uniqueness of the shared fixed point.  Every
        member gets its literal diamond.

        The shared stage's slices must be the literal slices' stages.
        Each literal slice's flat_ids must be its shared stage's under
        the class bijection found when that slice was checked ("views
        differ" otherwise).
        Each member's label maps literal class -> shared class through
        the pairs (lit.class_at[f], shared.class_at[f]) over the closed
        ids f; it must be well defined and a bijection.

        Two tiers find the label.  With equal class arrays and class
        counts it is the identity; otherwise the pairs are walked, and
        each rejection keeps its message.  They agree: diamond numbers
        lit's classes by least closed id, each holding its flat, so each
        number below len(lit) occurs in lit.class_at, and with equal
        arrays the walk meets exactly the pairs (c, c).  It accepts with
        the identity when the counts agree, and says "classes differ"
        when shared has an extra class no closed id reaches.
        Conversely, a bijective label makes the partitions equal, and a
        stage diamond built is numbered by least closed id too, so the
        walk runs only on a shared stage diamond did not build.

        The flat-id check decides the translation test of the terms
        over the slice's class tokens within the bound (kept in
        tests/oracles.py): that renaming each literal token through the
        bijection maps these terms totally onto the shared stage's and
        keeps every flattening.  A class's flat, sort and fd are
        functions of its flat_id, read off the closed table there.  So
        if the flat_ids agree, the renaming matches tokens of one sort
        and one weight, so it maps the terms within the bound one to one
        onto the shared ones, and each token keeps its flat_id, so every
        term keeps its flattening.  Conversely a renamed token keeps its
        flattening only if the two flat_ids agree.

        The per-slice walk (tests/oracles.py's naive_check_restriction)
        pairs lit's class of (pj, t) with shared's class of (sj, t
        renamed), for each literal slice pj, its shared stage sj and
        term t over pj's tokens.  A pair's class is its
        flattening's, and renaming keeps it, so that is
        (lit.class_at[f], shared.class_at[f]), f the flattening of t.
        The least member's literal stage z is class-less, a slice of
        every member with slices, and holds every closed id as a term,
        so z alone gives every pair of the zip.  So each member gets the
        walk's label, and this rejects all the walk rejects.

        below is a member-order prefix, one per height, so the literal
        slice tuple, the union of its stages' flat_instances (diamond's
        seeds) and the shared slice sids it must match are built once
        per height, each literal stage's instances read once, when it
        joins; this is linear in members where one chain per member was
        quadratic.  Sharing these inputs is not memoising literal stages
        by down-segment: every member still closes its own congruence
        over them and gets its own label checks, and the least
        congruence holding a set of seeds does not depend on their order
        or repeats, so each literal stage is what one chain per member
        gave.  A literal stage is kept only while some member lies above
        it.

        The union must take in each height's literal stages as that
        height joins below: without the newest height's, a stage of the
        next height misses its instances, and the per-slice walk tells.
        But a union that stops growing after height 2 gives the same
        stages, so no output and no comparison of stages tells the two
        apart.  A literal stage S at height 3 or more has every height-2
        literal stage H among its slices, so S's seeds hold H's and S's
        congruence holds H's: each class of S is a union of classes of
        H, and its flat, the least id in it, is the flat of one of them,
        with the same sort and fd.  The budget rule of InstanceShape.envs
        filters each variable's pool by weight, so the instances over
        S's classes are among those over H's: S's flat_instances already
        lie in the union."""
        u = self.universe
        literal: list[Stage] = []
        bij: list[Sequence[int]] = []
        # the literal slices below the current height, the union of their
        # flat_instances, and the shared slice sids they must match
        slices, seeds, want = (), set(), ()
        # literal slices whose flat_ids are checked: a prefix of the members
        compared = 0
        checked = 0
        # the shared stage, by member position
        stage_of = [self.stage_of[m] for m in u.members]
        for pos, i in enumerate(u.members):
            below = len(u.below[i])
            if below != len(slices):
                seeds.update(*(st.flat_instances for st in literal[len(slices) : below]))
                slices, want = tuple(literal[:below]), tuple(sorted(set(stage_of[:below])))
            lit = diamond(self.build, slices, seeds, sid=pos)
            shared = self.stages[stage_of[pos]]
            if shared.slices != want:
                raise QitError(f"restriction mismatch at {u.show(i)}: slices differ")
            for pj in range(compared, below):
                flats = self.stages[stage_of[pj]].classes
                if tuple(map(flats.__getitem__, bij[pj])) != literal[pj].classes:
                    raise QitError(f"restriction mismatch at {u.show(i)}: views differ")
            compared = below
            if lit.class_at == shared.class_at and len(lit) == len(shared):
                label = range(len(lit))
            else:
                label = [-1] * len(lit)
                for c, n in set(zip(lit.class_at, shared.class_at)):
                    if label[c] != -1:
                        raise QitError(f"restriction mismatch at {u.show(i)}: partitions differ")
                    label[c] = n
                if sorted(label) != list(range(len(shared))):
                    raise QitError(f"restriction mismatch at {u.show(i)}: classes differ")
            if u.above[i]:
                literal.append(lit)
                bij.append(label)
            # free a top-height literal stage before the next diamond:
            # no later member reads it
            del lit
            checked += len(shared.classes)
        return checked

    def to_diagram(self) -> Diagram:
        """The stage diagram, labelled by stage.  A transition depends
        only on the two members' stages, so there is one map per distinct
        stage pair, read off its stage_pairs member pair: the higher
        stage's class of each lower class's flat, as delta pushes it."""
        family = {sid: tuple(range(len(st))) for sid, st in enumerate(self.stages)}
        maps = {}
        for i, j in self.stage_pairs():
            low, high = self.stage_at(i), self.stage_at(j)
            maps[self.stage_of[i], self.stage_of[j]] = dict(enumerate([high.class_at[f] for f in low.classes]))
        return Diagram(self.universe, self.stage_of, family, maps)

    def dump(self) -> Iterator[str]:
        """Each member's stage size, one line at a time, read once per
        height: a height's members share a stage."""
        texts = self.universe.shown()
        for tops in self.universe.segments.values():
            size = f": {len(self.stage_at(tops[0]))}\n"
            for _, text in zip(tops, texts):
                yield f"stage {text}{size}"

    def export(self) -> Iterator[str]:
        """Members, stages and classes, one line at a time; a class's
        pairs are counted on the closed table.  Per slice, mult[f] terms
        over its class tokens flatten to closed id f: its class's token
        when f is a flat, and one node per choice of a term for each
        child.  A term's weighted depth is its flattening's depth, so each
        such term is within the bound, and a pair's class is its
        flattening's."""
        nodes, terms = self.build.closed.nodes, self.build.closed.terms
        yield f"depth {self.depth} height {self.universe.height}\n"
        for i, shown in zip(self.universe.members, self.universe.shown()):
            yield f"member {shown} -> stage {self.stage_of[i]}\n"
        for st in self.stages:
            slices = " ".join(str(s) for s in st.slices)
            yield f"stage {st.sid}: slices ({slices}) classes {len(st)}\n"
            sizes = [0] * len(st)
            for low in st.slice_stages:
                flats = set(low.classes)
                mult: list[int] = []
                for f, (_, kids) in enumerate(nodes):
                    mult.append((f in flats) + prod(map(mult.__getitem__, kids)))
                for c, m in zip(st.class_at, mult):
                    sizes[c] += m
            for c, f in enumerate(st.classes):
                yield f"  class {c} {show_term(terms[f])} | pairs {sizes[c]}\n"


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
    stage_of: dict[int, int] = {}
    # segments come one per height, below-first, so a segment's slices are
    # every stage built so far (check_restriction checks them); seeds is
    # the union of their flat_instances
    seeds: set[tuple[int, int]] = set()
    for sid, tops in enumerate(u.segments.values()):
        seeds.update(stages[-1].flat_instances if stages else ())
        stages.append(diamond(build, tuple(stages), seeds, sid=sid))
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
        self.colimit = Colimit(self.diagram)
        self.colimit.check_cocone()

    def __len__(self) -> int:
        return len(self.colimit)

    def inject(self, i: int, cls: int) -> int:
        return self.colimit.inject(i, self.appx.stage_class(i, cls))

    def _class(self, cid: int) -> int:
        # exactly int: isinstance passes a bool, and a negative id would
        # index from the end
        if cid.__class__ is not int or not 0 <= cid < len(self):
            raise QitError(f"{cid!r} is not one of the {len(self)} colimit classes")
        return cid

    def class_flat(self, cid: int) -> Term:
        appx = self.appx
        flat = min(appx.stage_at(m).classes[c] for m, c in self.colimit.classes[self._class(cid)])
        return appx.build.closed.terms[flat]

    def _push(self, i: int, cid: int) -> Optional[int]:
        """i's class in colimit class cid, or None, off its first node: a
        stage's nodes share one member, so a later node at or below i puts
        the first there too."""
        appx = self.appx
        m, c = self.colimit.classes[cid][0]
        if m == i:
            return c
        return appx.delta(m, i, c) if appx.universe.lt(m, i) else None

    def qwintro(self, op: Union[OpSym, str], children: Sequence[int]) -> int:
        children = list(map(self._class, children))
        appx = self.appx
        u = appx.universe
        # a stage's members push alike, and its colimit nodes sit at its first
        for i in (tops[0] for tops in u.segments.values()):
            pushed = [self._push(i, cid) for cid in children]
            if None in pushed:
                continue
            opi = appx.sig.op_index(op)
            decl = appx.sig.ops[opi]
            if len(pushed) != decl.arity.count:
                raise ArityMismatch(
                    f"{decl.op.show()} takes {decl.arity.count} children, got {len(pushed)}"
                )
            sup = u.suc(i)
            if sup is None:
                raise StageOverflow(f"no stage above {u.show(i)} in a height-{u.height} universe")
            flats = appx.stage_at(i).classes
            n = appx.build.closed.lookup.get((opi, tuple(map(flats.__getitem__, pushed))))
            if n is None:
                raise StageOverflow(f"intro exceeds depth {appx.depth} at {u.show(i)}")
            return self.inject(sup, appx.stage_at(sup).class_at[n])
        raise StageOverflow("children have no common stage in the universe")


def qw_from_colimit(appx: Approximation) -> QwInterface:
    return QwInterface(appx)


@tagged
class OracleComparison(NamedTuple):
    class_pairs: tuple[tuple[int, int], ...]
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
            f = appx.stage_at(m).classes[c]
            n = oracle_id[f]
            if n < 0:
                flat = show_term(appx.build.closed.terms[f])
                raise QitError(f"flattening {flat} escaped the oracle universe")
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

    return OracleComparison(
        class_pairs=tuple(sorted(mapping.items())),
        intro_checked=intro_checked,
    )
