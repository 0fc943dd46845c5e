"""Depth-bounded term universes and their congruence quotients.

The universe holds every closed term up to a depth bound, as the ids of
one TermTable, together with the equation instances whose sides stay
inside the bound, as id pairs.  The table gets its first listing with
want None, so its ids run in the term order (depth, then the root
operator's declaration position, then the children lexicographically;
its reference is in tests/oracles.py), as the construction's closed
table does.  The quotient is the least congruence containing those
instances.  congruence_classes computes it by union-find with upward
congruence propagation, keying each node once and re-keying it only
when a child's class is merged, and numbers the classes by first id.
It reads one node table in place and is the one closure in the
package: close_congruence (the universe's table), each construction
stage (construction.diamond, the build's closed table) and the
colimit's gluing (diagrams.Colimit, a table of leaves) all call it.
Folds (qwrec) and eliminations (qwelim) run over the ids, one step per
id, with their side conditions checked exhaustively over the universe.
Terms are built from the ids only to print them and for readers that
ask for them (TermUniverse.terms and instance_pairs,
CongruenceQuotient.canon).
"""

from __future__ import annotations

import itertools
from functools import cached_property
from typing import Callable, Iterable, Mapping, NamedTuple, Optional, Sequence, Union

from .algebras import Algebra, Value, satisfies
from .errors import CoherenceFailure, NotSatisfying, QitError
from .records import Record, tagged
from .sexpr import show_term
from .terms import (
    InstanceShape,
    OpSym,
    Side,
    Signature,
    SystemOfEquations,
    Term,
    TermTable,
    compile_side,
    enumerate_terms,
)

# perfbench/tracing.py wraps quotient.enumerate_terms by name and
# tests/test_tracing_targets.py checks that it exists; the universe does
# not call it, so that span reads 0 until the trace moves into src/.
_TRACED_NAMES = (enumerate_terms,)


class InstancePair(NamedTuple):
    eq_name: str
    env: tuple[tuple[str, Term], ...]
    lhs: Term
    rhs: Term


class TermUniverse(Record):
    """The closed terms within a depth bound, as the ids of table, and
    the equation instances whose sides stay within it.

    ids lists the terms: in id order, or sort by sort in an indexed
    signature (each sort in id order), which is not id order.  instances
    holds one (shape, the id of each variable, lhs id, rhs id) per
    instance, in the order they are drawn.  The Terms are built only
    when terms or instance_pairs is read; instance_pairs is kept for
    perfbench/tracing.py, which counts a traced universe's instances
    with it, and for the tests."""

    _fields = ("sig", "sys", "depth", "table", "ids", "instances", "skipped")

    def __init__(
        self,
        sig: Signature,
        sys: SystemOfEquations,
        depth: int,
        table: TermTable,
        ids: tuple[int, ...],
        instances: tuple[tuple[InstanceShape, tuple[int, ...], int, int], ...],
        skipped: int = 0,
    ):
        self._set(sig=sig, sys=sys, depth=depth, table=table, ids=ids, instances=instances,
                  skipped=skipped)

    @cached_property
    def terms(self) -> tuple[Term, ...]:
        terms = self.table.terms
        return tuple(terms[n] for n in self.ids)

    @cached_property
    def instance_pairs(self) -> tuple[InstancePair, ...]:
        terms = self.table.terms
        return tuple(
            InstancePair(shape.eq.name, tuple(zip(shape.names, map(terms.__getitem__, combo))),
                         terms[lhs], terms[rhs])
            for shape, combo, lhs, rhs in self.instances
        )

    def id_of(self, t: Term) -> Optional[int]:
        """The id of the closed term t; None if the universe lacks it."""
        side = compile_side(t, ())
        return self.table.reader(side)(())[side.out]


def build_universe(sig: Signature, sys: SystemOfEquations, depth_bound: int) -> TermUniverse:
    """Closed terms to the bound, plus every equation instance whose
    substituted sides stay within it.  Environments draw from the
    universe itself (respecting variable indices) in listing order;
    instances that would overflow the bound are counted as skipped.
    Each side is read off the table by its compiled form
    (InstanceShape.sides), the variables' registers holding the ids; a
    side the table lacks raises.

    The budget rule of InstanceShape.envs decides which instances fit
    without building the others: with p_v the deepest position of v in
    the equation (root = 1), an instance fits exactly when both sides fit
    with variables at depth 1 and every v gets a term of depth at most
    depth_bound + 1 - p_v.

    In an indexed signature every operator needs a target index: the
    terms are listed sort by sort, and an operator without one would be
    listed once per sort.  Each sort's terms keep the id order, which is
    the term order, so the listing is the one enumerate_terms gives sort
    by sort.
    """
    sorts = sig.sorts
    if sorts is not None:
        for d in sig.ops:
            if d.sort is None:
                raise QitError(
                    f"operator {d.op.show()} has no target index in an indexed signature"
                )
    table = TermTable(sig)
    ids = table.upto(depth_bound)
    by_sort: dict[Optional[str], list[int]] = {}
    if sorts is not None:
        by_sort = {s: [] for s in sorts}
        ops, nodes = sig.ops, table.nodes
        for n in ids:
            by_sort[ops[nodes[n][0]].sort].append(n)
        ids = [n for s in sorts for n in by_sort[s]]
    by_sort[None] = ids

    instances = []
    skipped = 0
    for shape in sys.instance_shapes:
        pools = [by_sort.get(s, ()) for s in shape.sorts]
        envs, overflow = shape.envs(pools, table.depths.__getitem__, depth_bound)
        skipped += overflow
        left, right = shape.sides
        read_left, read_right = table.reader(left), table.reader(right)
        for combo in envs:
            lhs, rhs = read_left(combo)[left.out], read_right(combo)[right.out]
            if lhs is None or rhs is None:
                raise QitError(f"an instance of {shape.eq.name} escaped the universe")
            instances.append((shape, combo, lhs, rhs))
    return TermUniverse(sig, sys, depth_bound, table, tuple(ids), tuple(instances), skipped)


class CongruenceQuotient:
    """Partition of the universe's ids into congruence classes.

    classes lists each class's ids, ascending, and the classes by their
    least id; class_at gives the class of each id.  Both orders are the
    term order, whose reference is in tests/oracles.py (depth, then the
    root operator's declaration position, then the children
    lexicographically): the universe's table got its first listing with
    want None, so its ids were handed out by depth, then by operator
    position, then children lexicographically by id, which by induction
    on depth is the term order.  So a class's least id is its least
    term, and ranking the classes by it ranks them by their least terms,
    across sorts too.  In an indexed signature the members of a class
    share one sort (an equation's two sides stand at its one index, and
    a congruence step relates two nodes of one operator), and a sort's
    ids ascend in its listing order, so members also come in the
    universe's listing order.

    canon holds each class's least Term, built when first read;
    class_id reads a Term's id off the universe's table.
    """

    def __init__(self, universe: TermUniverse, class_at: list[int]):
        self.universe = universe
        self.class_at = class_at
        self.classes: list[list[int]] = root_groups(class_at)

    def __len__(self) -> int:
        return len(self.classes)

    @cached_property
    def canon(self) -> tuple[Term, ...]:
        terms = self.universe.table.terms
        return tuple(terms[members[0]] for members in self.classes)

    def class_id(self, t: Term) -> Optional[int]:
        n = self.universe.id_of(t)
        return None if n is None else self.class_at[n]


def congruence_classes(
    nodes: Sequence[Union[int, tuple[object, Sequence[int]]]],
    seeds: Iterable[tuple[int, int]],
) -> tuple[list[int], list[int]]:
    """The least congruence on the ids 0..len(nodes)-1 containing the
    seed pairs, as (class_at, flats): class_at[n] is the class of id n,
    numbered in the order of first ids, and flats[c] is class c's first
    id.  The node table is read in place: nodes[n] is the node of id n,
    either an int (a leaf) or (op, kids), nullary nodes included, kids
    being ids.  Two non-leaf ids whose ops agree and whose children are
    pairwise related are related, so two nullary nodes of one op always
    are.

    A worklist closure in the style of Downey-Sethi-Tarjan that keys
    each node once, in one pass over the ids in order, and re-keys a
    node only when a union changes a child's root.  The seeds are
    joined first, before any node is keyed.  When the pass keys a node
    it adds the node to parents[r] for the current root r of each child,
    and looks its key (op, child roots) up in a signature table.
    parents is a list indexed by root, each entry a list of nodes; a
    node with two children in one class is listed there twice.  Two keys
    that meet join their nodes' classes; a union goes by class size and
    moves the absorbed root's parent list onto the kept root's, queueing
    each node in it for a re-key.  The queue is drained before the pass
    moves on; a node is re-keyed from its last key, whose roots lie in
    its children's classes.  A node listed or queued twice is re-keyed
    twice; the second re-key reads the same roots, meets its own or an
    already joined entry, and changes nothing.

    Why the result is the least congruence:
    - every union is justified: two seeds, or two nodes of one op whose
      children were related when the keys met; so the result lies in
      the least congruence;
    - a node not yet keyed reads current roots when it is keyed;
    - a keyed node stays in parents[find(c)] for each child c, since a
      parent list moves with its root, so a union that changes its key
      queues it for a re-key (a repeated entry only re-keys it again);
    - so at the end every node's last key is current, and two nodes
      with one current key met the same signature table entry (a stale
      entry holds a non-root, so no current key meets it), which joined
      them; so the result is a congruence.
    Finds are inlined with path halving, so the loops over seeds and
    children make no Python call per item.  The last pass walks the ids
    in order: the first to reach a root numbers its class, and every id
    takes its root's number.  Only an id of a root's class writes the
    root's entry, so class_at is the root -> class table too."""
    n = len(nodes)
    parent = list(range(n))
    size = [1] * n
    for a, b in seeds:
        while parent[a] != a:
            parent[a] = a = parent[parent[a]]
        while parent[b] != b:
            parent[b] = b = parent[parent[b]]
        if a != b:
            if size[a] < size[b]:
                a, b = b, a
            parent[b] = a
            size[a] += size[b]

    # root -> the keyed nodes with a child in its class, None for none
    parents: list[Optional[list[int]]] = [None] * n
    # keyed id -> its last key, (op, child roots)
    keys: list[Optional[tuple]] = [None] * n
    sigtab: dict[tuple, int] = {}
    pending: list[int] = []

    for pos, node in enumerate(nodes):
        if node.__class__ is int:
            continue
        op, kids = node
        key = [op]
        for c in kids:
            while parent[c] != c:
                parent[c] = c = parent[parent[c]]
            key.append(c)
            ps = parents[c]
            if ps is None:
                parents[c] = [pos]
            else:
                ps.append(pos)
        # look the key up, then re-key queued nodes until none is left
        x = pos
        while True:
            key = tuple(key)
            a = sigtab.setdefault(key, x)
            if a == x:
                keys[x] = key
            else:
                # a's last key is this one: share it
                keys[x] = keys[a]
                b = x
                while parent[a] != a:
                    parent[a] = a = parent[parent[a]]
                while parent[b] != b:
                    parent[b] = b = parent[parent[b]]
                if a != b:
                    if size[a] < size[b]:
                        a, b = b, a
                    parent[b] = a
                    size[a] += size[b]
                    # b is a root no more, so parents[b] is never read again
                    gone = parents[b]
                    if gone is not None:
                        pending.extend(gone)
                        kept = parents[a]
                        if kept is None:
                            parents[a] = gone
                        elif len(kept) < len(gone):
                            gone += kept
                            parents[a] = gone
                        else:
                            kept += gone
            if not pending:
                break
            x = pending.pop()
            # the roots of x's last key lie in its children's classes
            key = [*keys[x]]
            for i in range(1, len(key)):
                c = key[i]
                while parent[c] != c:
                    parent[c] = c = parent[parent[c]]
                key[i] = c

    class_at = [-1] * n
    flats: list[int] = []
    for x in range(n):
        r = x
        while parent[r] != r:
            parent[r] = r = parent[parent[r]]
        c = class_at[r]
        if c < 0:
            c = class_at[r] = len(flats)
            flats.append(x)
        class_at[x] = c
    return class_at, flats


def root_groups(roots: Sequence[int]) -> list[list[int]]:
    """The ids grouped by root, each group ascending, the groups in the
    order of their first id: on a class_at, class by class."""
    by_root: list[Optional[list[int]]] = [None] * len(roots)
    groups = []
    for n, root in enumerate(roots):
        group = by_root[root]
        if group is None:
            group = by_root[root] = []
            groups.append(group)
        group.append(n)
    return groups


def close_congruence(universe: TermUniverse) -> CongruenceQuotient:
    """The least congruence on the universe containing its equation
    instances.  The universe's node table is read in place; every node
    is keyed, nullary ones included, by the rule the construction's
    stages use."""
    seeds = ((lhs, rhs) for _, _, lhs, rhs in universe.instances)
    class_at, _ = congruence_classes(universe.table.nodes, seeds)
    return CongruenceQuotient(universe, class_at)


def decide_eq(q: CongruenceQuotient, a: Term, b: Term) -> str:
    ca, cb = q.class_id(a), q.class_id(b)
    if ca is None or cb is None:
        return "UNKNOWN"
    return "EQUAL" if ca == cb else "DISTINCT"


@tagged
class QwrecResult(NamedTuple):
    values: tuple[Value, ...]
    hom_ok: bool
    hom_failures: tuple[tuple[Term, Value, Value], ...]


def qwrec(q: CongruenceQuotient, alg: Algebra) -> QwrecResult:
    """Fold every class through a satisfying algebra.

    Requires an exhaustively satisfying algebra: otherwise NotSatisfying
    carries the report.  The fold makes one interp per id, children
    first, so it is evaluated at every class member (well-definedness:
    the fold must be constant on each class), and the induced map is
    checked to be a homomorphism at every universe node.
    """
    report = satisfies(alg, q.universe.sys)
    if not report.ok:
        raise NotSatisfying(
            f"algebra violates {report.witness_eq} at {dict(report.witness_env or ())!r}", report
        )
    u = q.universe
    nodes, interp = u.table.nodes, alg.interp
    ops = [d.op for d in u.sig.ops]
    # ids run children first
    folded: list[Value] = []
    for op, kids in nodes:
        folded.append(interp(ops[op], tuple(map(folded.__getitem__, kids))))
    values: list[Value] = []
    for cls, members in enumerate(q.classes):
        value = folded[members[0]]
        if any(folded[n] != value for n in members[1:]):
            raise QitError(f"fold not constant on the class of {show_term(q.canon[cls])}")
        values.append(value)
    class_at = q.class_at
    failures = []
    for n in u.ids:
        op, kids = nodes[n]
        got = interp(ops[op], tuple(values[class_at[k]] for k in kids))
        want = values[class_at[n]]
        if got != want:
            failures.append((u.table.terms[n], got, want))
    return QwrecResult(tuple(values), not failures, tuple(failures))


@tagged
class EliminatorInput(NamedTuple):
    """motive: class id -> finite tuple of admissible tags.
    steps: (op, child class ids, child tags) -> tag."""

    motive: Union[Mapping[int, tuple], Callable[[int], tuple]]
    steps: Callable[[OpSym, tuple[int, ...], tuple], Value]


@tagged
class QwelimResult(NamedTuple):
    values: tuple[Value, ...]
    comp_ok: bool
    comp_failures: tuple[tuple[Term, Value, Value], ...]
    instances_checked: int
    envs_checked: int


def qwelim(q: CongruenceQuotient, inp: EliminatorInput) -> QwelimResult:
    """Dependent elimination over the quotient.

    Coherence is checked for every equation instance under every
    assignment of admissible tags to its variables.  Each side runs as
    its compiled program (InstanceShape.sides): the instance's ids are
    read into its registers once, giving each step its children's
    classes, and per assignment the steps run over the tags.  The
    computed values are verified at every class member and replayed as
    computation rules at every universe node.
    """
    motive = inp.motive if callable(inp.motive) else (lambda cls: inp.motive[cls])
    steps = inp.steps
    u = q.universe
    class_at, table = q.class_at, u.table
    readers: dict[str, tuple] = {}

    instances = 0
    envs = 0
    for shape, combo, _, _ in u.instances:
        instances += 1
        names = shape.names
        if shape.eq.name not in readers:
            readers[shape.eq.name] = tuple(map(table.reader, shape.sides))
        # the class of every register of each side
        left_cls, right_cls = ([class_at[n] for n in read(combo)] for read in readers[shape.eq.name])
        left_side, right_side = shape.sides
        choices = [motive(class_at[n]) for n in combo]
        for tags in itertools.product(*choices):
            envs += 1
            left = _lift(steps, left_side, left_cls, tags)
            right = _lift(steps, right_side, right_cls, tags)
            if left != right:
                terms, assignment = u.table.terms, dict(zip(names, tags))
                witness = (shape.eq.name,
                           tuple((v, terms[n], assignment[v]) for v, n in zip(names, combo)),
                           left, right)
                raise CoherenceFailure(
                    f"steps disagree on {shape.eq.name}: {left!r} vs {right!r}", witness
                )

    nodes = u.table.nodes
    ops = [d.op for d in u.sig.ops]
    memo: dict[int, Value] = {}
    values: list[Value] = []
    for cls, members in enumerate(q.classes):
        vals = [_eval_closed(n, nodes, ops, class_at, steps, memo) for n in members]
        if any(v != vals[0] for v in vals[1:]):
            raise QitError(f"elimination not constant on the class of {show_term(q.canon[cls])}")
        if vals[0] not in motive(cls):
            raise QitError(f"step value {vals[0]!r} outside the motive of class {cls}")
        values.append(vals[0])

    failures = []
    for n in u.ids:
        op, kids = nodes[n]
        child_cls = tuple(class_at[k] for k in kids)
        got = steps(ops[op], child_cls, tuple(values[c] for c in child_cls))
        want = values[class_at[n]]
        if got != want:
            failures.append((u.table.terms[n], got, want))
    return QwelimResult(tuple(values), not failures, tuple(failures), instances, envs)


def _eval_closed(n: int, nodes: list, ops: list, class_at: list[int], steps: Callable,
                 memo: dict[int, Value]) -> Value:
    """The step value of id n, its children's first, each id's once.  A
    module function, not a closure: a recursive closure is a reference
    cycle, which would keep the steps and the memo alive until a
    collection."""
    if n in memo:
        return memo[n]
    op, kids = nodes[n]
    val = steps(ops[op], tuple(class_at[k] for k in kids),
                tuple(_eval_closed(k, nodes, ops, class_at, steps, memo) for k in kids))
    memo[n] = val
    return val


def _lift(steps: Callable, side: Side, classes: list[int], tags: tuple) -> Value:
    """Run side's steps over the variables' tags, children first, each
    step given its children's classes."""
    vals = list(tags)
    for op, kids, _ in side.steps:
        vals.append(steps(op, tuple([classes[k] for k in kids]), tuple([vals[k] for k in kids])))
    return vals[side.out]
