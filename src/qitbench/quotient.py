"""Depth-bounded term universes and their congruence quotients.

The universe holds every closed term up to a depth bound, as the ids of
one TermTable, together with the equation instances whose sides stay
inside the bound, as id pairs.  The table gets its first listing with
want None, so its ids run in the term order (depth, then the root
operator's declaration position, then the children lexicographically;
its reference is in tests/oracles.py), as the construction's closed
table does.  draw_instances draws the instances from pools of ids by
sort, each id weighing its depth; a construction build draws once with
it, over its closed table, and each stage selects its own instances
from that draw (construction.Stage.flat_instances).
The quotient is the least congruence containing those instances.
CongruenceTable computes it by union-find with upward congruence
propagation, keying each node once and re-keying it only when a
child's class is merged, and numbers the classes by first id.  It
reads one node table in place and is the one closure in the package.
close_congruence (the universe's table) and the colimit's gluing
(diagrams.Colimit, a table of leaves) build one and read its classes.
A construction build keys its closed table once, in a table with no
seeds, and each stage (construction.diamond) closes its own seeds from
it (CongruenceTable.close), re-keying only what those seeds merge.
Folds (qwrec) and eliminations (qwelim) make one pass over the ids in
order, one step per id, each over its children's class values
(_by_class).  Ids run children first and classes are numbered by first
id, so the first id of a class sets its value, and every later one must
reach it: that one comparison is both well-definedness on the class
and the homomorphism law (the computation rule) at the id's node.  An
elimination also checks coherence over every equation instance first.
The commands print ids from their table's texts (TermTable.texts).
Terms are built from the ids only for error messages and for readers
that ask for them (TermUniverse.terms and instance_pairs,
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
    when terms or instance_pairs is read; both are kept for
    perfbench/tracing.py, which counts a traced universe's terms and
    instances with them, and for the tests."""

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
    substituted sides stay within it (draw_instances).  Environments
    draw from the universe itself (respecting variable indices) in
    listing order; instances that would overflow the bound are counted
    as skipped.

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

    instances, skipped = draw_instances(sys, table, by_sort, depth_bound)
    return TermUniverse(sig, sys, depth_bound, table, tuple(ids), tuple(instances), skipped)


def draw_instances(
    sys: SystemOfEquations,
    table: TermTable,
    pools: Mapping[Optional[str], Sequence[int]],
    bound: int,
) -> tuple[list[tuple[InstanceShape, tuple[int, ...], int, int]], int]:
    """The equation instances over table's ids within bound, as (shape,
    the id of each variable, lhs id, rhs id), and how many overflow it.
    Each variable draws from the pool of its sort, none for a sort pools
    lacks, each id weighing its depth, under the budget rule of
    InstanceShape.envs; each equation's instances come in the product's
    order.  Each side is read off the table by its compiled form
    (InstanceShape.sides), the variables' registers holding the ids; a
    side the table lacks raises."""
    instances = []
    skipped = 0
    for shape in sys.instance_shapes:
        envs, overflow = shape.envs([pools.get(s, ()) for s in shape.sorts],
                                    table.depths.__getitem__, bound)
        skipped += overflow
        left, right = shape.sides
        read_left, read_right = table.reader(left), table.reader(right)
        for combo in envs:
            lhs, rhs = read_left(combo)[left.out], read_right(combo)[right.out]
            if lhs is None or rhs is None:
                raise QitError(f"an instance of {shape.eq.name} escaped the universe")
            instances.append((shape, combo, lhs, rhs))
    return instances, skipped


class CongruenceQuotient:
    """Partition of the universe's ids into congruence classes.

    class_at gives the class of each id, the classes numbered by their
    least id, and flats[c] is class c's least id.  Ids and classes both
    run in the term order, whose reference is in tests/oracles.py
    (depth, then the root operator's declaration position, then the
    children lexicographically): the universe's table got its first
    listing with want None, so its ids were handed out by depth, then
    by operator position, then children lexicographically by id, which
    by induction on depth is the term order.  So a class's least id is
    its least term, and ranking the classes by it ranks them by their
    least terms, across sorts too.  In an indexed signature the members of a class
    share one sort (an equation's two sides stand at its one index, and
    a congruence step relates two nodes of one operator), and a sort's
    ids ascend in its listing order, so a class's ids in ascending
    order also come in the universe's listing order.

    canon holds each class's least Term, built when first read;
    class_id reads a Term's id off the universe's table.
    """

    def __init__(self, universe: TermUniverse, class_at: Sequence[int], flats: Sequence[int]):
        self.universe = universe
        self.class_at = class_at
        self.flats = flats

    def __len__(self) -> int:
        return len(self.flats)

    @cached_property
    def canon(self) -> tuple[Term, ...]:
        terms = self.universe.table.terms
        return tuple(map(terms.__getitem__, self.flats))

    def class_id(self, t: Term) -> Optional[int]:
        n = self.universe.id_of(t)
        return None if n is None else self.class_at[n]


class CongruenceTable:
    """The least congruence on the ids 0..len(nodes)-1 containing the
    seed pairs, kept keyed so that more seeds can be closed from it.
    class_at[n] is the class of id n, numbered in the order of first
    ids, and flats[c] is class c's first id, both tuples.  The node
    table is read in place, once: nodes[n] is the node of id n, either
    an int (a leaf) or (op, kids), nullary nodes included, kids being
    ids.  Two non-leaf ids whose ops agree and whose children are
    pairwise related are related, so two nullary nodes of one op always
    are.  close(seeds) gives the least congruence containing the table's
    seeds and seeds, numbered the same way, and leaves the table as it
    was: a build prepares one table over its closed table, with no
    seeds, and closes every stage from it.

    A worklist closure in the style of Downey-Sethi-Tarjan (_close).
    The constructor joins the seeds first, before any node is keyed,
    then keys each node once, in one pass over the ids in order.  When
    the pass keys a node it adds the node to parents[r] for the current
    root r of each child, and looks its key (op, child roots) up in a
    signature table.  parents is a list indexed by root, each entry a
    list of nodes; a node with two children in one class is listed
    there twice.  Two keys that meet join their nodes' classes.  A union
    goes by class size, queues each node in the absorbed root's parent
    list for a re-key and moves the list onto the kept root's.  Before
    the pass moves on, the pending joins are made and then the queued
    nodes re-keyed, each once, from its last key, whose roots lie in its
    children's classes; keys that meet there are joined in turn, until
    neither is left.  This is deferred rebuilding as in egg (Willsey et
    al., POPL 2021): a node queued by several unions is re-keyed once.

    Why the result is the least congruence:
    - every union is justified: two seeds, or two nodes of one op whose
      children were related when the keys met; so the result lies in
      the least congruence;
    - a node not yet keyed reads current roots when it is keyed;
    - a keyed node stays in parents[find(c)] for each child c, since a
      parent list moves with its root, and its key changes only when
      the root of a child is absorbed, which queues it for a re-key;
    - so at the end every node's last key is current, and two nodes
      with one current key met the same signature table entry (a stale
      entry holds a non-root, so no current key meets it), which joined
      them; so the result is a congruence.

    close continues the same loop from the constructor's end state, on
    private copies of it: it joins the new seeds, re-keys the parents of
    each absorbed root, and keys no node afresh, since every node is
    keyed already.  That end state is what the last two steps above
    ask of a state, with no join or re-key pending: every keyed node's
    last key is current, the node is filed under each of its roots, and
    the key's signature table entry is a node of its class.  So the
    re-keys of close restore it after its unions, the argument above
    runs unchanged, and the result is a congruence.  It holds the
    table's seeds and the new ones, and every union, the table's own
    included, is justified by them: so it is the least congruence
    holding both.  A node whose children no union of close touched
    keeps its key and is never re-keyed.  A seed whose ids share a
    class of the table joins nothing, so close drops it first; with no
    seed left, the least congruence is the table's own, and close
    returns its numbering and copies nothing.

    close leaves the table unchanged: it copies parent, size, parents,
    keys and the signature table before it writes to them.  The first
    close with a seed left stores a copy of each parent list as a
    tuple, which close never extends: on its first write to one it
    builds a list of its own.  Keys, class_at and flats are tuples too.
    So every close starts from the same state, and closes in any order
    give what each gives alone.  A table that is never closed, as the
    oracle's and the colimit's are not, copies no parent list.

    Finds are inlined with path halving, so the loops over seeds and
    children make no Python call per item; _numbered numbers the
    classes."""

    def __init__(
        self,
        nodes: Sequence[Union[int, tuple[object, Sequence[int]]]],
        seeds: Iterable[tuple[int, int]],
    ):
        n = len(nodes)
        parent = list(range(n))
        size = [1] * n
        # root -> the keyed nodes with a child in its class, None for none
        parents: list[Optional[list[int]]] = [None] * n
        # keyed id -> its last key, (op, child roots)
        keys: list[Optional[tuple]] = [None] * n
        sigtab: dict[tuple, int] = {}
        _close(nodes, seeds, parent, size, parents, keys, sigtab)
        self.class_at, self.flats = _numbered(parent)
        self._parent, self._size, self._keys, self._sigtab = parent, size, keys, sigtab
        self._parents = parents

    def close(self, seeds: Iterable[tuple[int, int]]) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """(class_at, flats) of the least congruence containing the
        table's seeds and seeds; the table's own if every seed lies in
        one of its classes."""
        class_at = self.class_at
        seeds = [(a, b) for a, b in seeds if class_at[a] != class_at[b]]
        if not seeds:
            return class_at, self.flats
        parent = self._parent.copy()
        _close((), seeds, parent, self._size.copy(), self._frozen_parents.copy(), self._keys.copy(),
               self._sigtab.copy())
        return _numbered(parent)

    @cached_property
    def _frozen_parents(self) -> list[Optional[tuple[int, ...]]]:
        """Each parent list as a tuple, built on the first close."""
        return [ps and tuple(ps) for ps in self._parents]


def _close(
    nodes: Sequence[Union[int, tuple[object, Sequence[int]]]],
    seeds: Iterable[tuple[int, int]],
    parent: list[int],
    size: list[int],
    parents: list,
    keys: list[Optional[tuple]],
    sigtab: dict[tuple, int],
) -> None:
    """Join the seeds, then key each node of nodes in id order (see
    CongruenceTable).  joins holds the pairs to join: the seeds, then
    each two nodes whose keys met.  pending holds the nodes to re-key:
    those filed under a root that a union absorbed.  Both are emptied before the next node is keyed,
    in rounds: every pending join, then every queued node, once however
    often it was queued; its re-key may add joins for the next round."""
    joins = [*seeds]
    pending: list[int] = []
    todo = enumerate(nodes)
    while True:
        for a, b in joins:
            while parent[a] != a:
                parent[a] = a = parent[parent[a]]
            while parent[b] != b:
                parent[b] = b = parent[parent[b]]
            if a == b:
                continue
            if size[a] < size[b]:
                a, b = b, a
            parent[b] = a
            size[a] += size[b]
            # b is a root no more, so parents[b] is never read again
            gone = parents[b]
            if gone is None:
                continue
            pending += gone
            kept = parents[a]
            if kept is None:
                parents[a] = gone
            else:
                if len(kept) < len(gone):
                    kept, gone = gone, kept
                if kept.__class__ is tuple:
                    # a prepared table's list: copy it on the first write
                    kept = [*kept, *gone]
                else:
                    kept += gone
                parents[a] = kept
        joins.clear()
        if pending:
            for x in set(pending):
                # the roots of x's last key lie in its children's classes
                key = [*keys[x]]
                for i in range(1, len(key)):
                    c = key[i]
                    while parent[c] != c:
                        parent[c] = c = parent[parent[c]]
                    key[i] = c
                key = tuple(key)
                y = sigtab.setdefault(key, x)
                if y == x:
                    keys[x] = key
                else:
                    # y's last key is this one: share it
                    keys[x] = keys[y]
                    joins.append((y, x))
            pending.clear()
            continue
        for pos, node in todo:
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
            key = tuple(key)
            a = sigtab.setdefault(key, pos)
            if a == pos:
                keys[pos] = key
            else:
                keys[pos] = keys[a]
                joins.append((a, pos))
                break
        else:
            return


def _numbered(parent: list[int]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(class_at, flats) of the partition parent finds, its classes
    numbered by first id.  The pass walks the ids in order: the first
    to reach a root numbers its class, and every id takes its root's
    number.  Only an id of a root's class writes the root's entry, so
    class_at is the root -> class table too."""
    n = len(parent)
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
    return tuple(class_at), tuple(flats)


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
    table = CongruenceTable(universe.table.nodes, seeds)
    return CongruenceQuotient(universe, table.class_at, table.flats)


def decide_eq(q: CongruenceQuotient, a: Term, b: Term) -> str:
    ca, cb = q.class_id(a), q.class_id(b)
    if ca is None or cb is None:
        return "UNKNOWN"
    return "EQUAL" if ca == cb else "DISTINCT"


@tagged
class QwrecResult(NamedTuple):
    values: tuple[Value, ...]


def qwrec(q: CongruenceQuotient, alg: Algebra) -> QwrecResult:
    """Fold every class through a satisfying algebra.

    Requires an exhaustively satisfying algebra: otherwise NotSatisfying
    carries the report.  The fold makes one interp per id (_by_class):
    each id's value is its operator's interp of its children's class
    values, and must be its class's value.  That one check is both the
    fold's well-definedness on the class and the homomorphism law at
    the id's node.
    """
    report = satisfies(alg, q.universe.sys)
    if not report.ok:
        raise NotSatisfying(
            f"algebra violates {report.witness_eq} at {dict(report.witness_env or ())!r}", report
        )
    interp = alg.interp
    return QwrecResult(_by_class(q, lambda op, _, vals: interp(op, vals), "fold"))


@tagged
class EliminatorInput(NamedTuple):
    """motive: class id -> finite tuple of admissible tags.
    steps: (op, child class ids, child tags) -> tag."""

    motive: Callable[[int], tuple]
    steps: Callable[[OpSym, tuple[int, ...], tuple], Value]


@tagged
class QwelimResult(NamedTuple):
    values: tuple[Value, ...]
    instances_checked: int
    envs_checked: int


def qwelim(q: CongruenceQuotient, inp: EliminatorInput) -> QwelimResult:
    """Dependent elimination over the quotient.

    Coherence is checked for every equation instance under every
    assignment of admissible tags to its variables.  Each side runs as
    its compiled program (InstanceShape.sides): the instance's ids are
    read into its registers once, giving each step its children's
    classes, and per assignment the steps run over the tags.  Then the
    steps run once per id (_by_class), over its children's classes and
    class values: every id's value must be its class's value, which is
    both the elimination's well-definedness and its computation rule at
    the id's node, and every class's value must lie in its motive.
    """
    motive, steps = inp.motive, inp.steps
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

    values = _by_class(q, steps, "elimination")
    for cls, value in enumerate(values):
        if value not in motive(cls):
            raise QitError(f"step value {value!r} outside the motive of class {cls}")
    return QwelimResult(values, instances, envs)


def _by_class(q: CongruenceQuotient, step: Callable[[OpSym, tuple[int, ...], tuple], Value],
              what: str) -> tuple[Value, ...]:
    """Each class's value, in one pass over the ids in order, one step
    per id: an id's value is step(op, its children's classes, their
    values).  Ids run children first, and classes are numbered by first
    id, so every child's class has its value when its parent is reached,
    and the first id of class c comes after the first ids of classes
    0..c-1: it sets class c's value.  Every later id of the class must
    reach the same value, or the error names its class."""
    class_at = q.class_at
    ops = [d.op for d in q.universe.sig.ops]
    values: list[Value] = []
    for n, (op, kids) in enumerate(q.universe.table.nodes):
        child_cls = tuple([class_at[k] for k in kids])
        value = step(ops[op], child_cls, tuple([values[c] for c in child_cls]))
        c = class_at[n]
        if c == len(values):
            values.append(value)
        elif value != values[c]:
            raise QitError(f"{what} not constant on the class of {show_term(q.canon[c])}")
    return tuple(values)


def _lift(steps: Callable, side: Side, classes: list[int], tags: tuple) -> Value:
    """Run side's steps over the variables' tags, children first, each
    step given its children's classes."""
    vals = list(tags)
    for op, kids, _ in side.steps:
        vals.append(steps(op, tuple([classes[k] for k in kids]), tuple([vals[k] for k in kids])))
    return vals[side.out]
