"""Depth-bounded term universes and their congruence quotients.

The universe holds every closed term up to a depth bound together with
the equation instances whose sides stay inside the bound.  The quotient
is the least congruence containing those instances.  congruence_roots
computes it by union-find with upward congruence propagation, keying
each node once and re-keying it only when a child's class is merged.
It reads node tables in place, each laid at an id offset as a block, and
is the one closure in the package: close_congruence (one block at 0),
each construction stage (construction.diamond, one block per slice
view) and the colimit's gluing (diagrams.Colimit, no blocks) all call
it.  Folds (qwrec) and eliminations (qwelim) are executed per class with
their side conditions checked exhaustively over the universe.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Optional, Sequence, Union

from .algebras import Algebra, Value, bind, satisfies
from .errors import CoherenceFailure, NotSatisfying, QitError
from .sexpr import show_term
from .terms import (
    Node,
    OpSym,
    Signature,
    SystemOfEquations,
    Term,
    depth,
    enumerate_terms,
    substitute,
)


@dataclass(frozen=True)
class InstancePair:
    eq_name: str
    env: tuple[tuple[str, Term], ...]
    lhs: Term
    rhs: Term


@dataclass(frozen=True)
class TermUniverse:
    sig: Signature
    sys: SystemOfEquations
    depth: int
    terms: tuple[Term, ...]
    instance_pairs: tuple[InstancePair, ...]
    skipped: int
    # term -> its position in terms
    index: Mapping[Term, int] = field(repr=False, compare=False)

    def position(self, t: Term) -> Optional[int]:
        return self.index.get(t)


def _root_sort(sig: Signature, t: Term) -> Optional[str]:
    return sig.decl(t.op).sort if isinstance(t, Node) else None


def build_universe(sig: Signature, sys: SystemOfEquations, depth_bound: int) -> TermUniverse:
    """Closed terms to the bound, plus every equation instance whose
    substituted sides stay within it.  Environments draw from the
    universe itself (respecting variable indices) in enumeration order;
    instances that would overflow the bound are counted as skipped.

    The budget rule of InstanceShape.envs decides which instances fit
    without building the others: with p_v the deepest position of v in
    the equation (root = 1), an instance fits exactly when both sides fit
    with variables at depth 1 and every v gets a term of depth at most
    depth_bound + 1 - p_v.

    In an indexed signature every operator needs a target index: the
    terms are listed sort by sort, and an operator without one would be
    listed once per sort.
    """
    sorts = sig.sorts
    if sorts is None:
        terms = enumerate_terms(sig, (), depth_bound)
    else:
        for d in sig.ops:
            if d.sort is None:
                raise QitError(
                    f"operator {d.op.show()} has no target index in an indexed signature"
                )
        terms = []
        for s in sorts:
            terms.extend(enumerate_terms(sig, (), depth_bound, sort=s))
    index = {t: i for i, t in enumerate(terms)}
    depths = [depth(t) for t in terms]
    shapes = sys.instance_shapes
    by_sort = {
        want: [p for p, t in enumerate(terms) if want is None or _root_sort(sig, t) == want]
        for want in {s for shape in shapes for s in shape.sorts}
    }

    pairs: list[InstancePair] = []
    skipped = 0
    for shape in shapes:
        pools = [by_sort[s] for s in shape.sorts]
        envs, overflow = shape.envs(pools, depths.__getitem__, depth_bound)
        skipped += overflow
        for combo in envs:
            env = {v: terms[p] for v, p in zip(shape.names, combo)}
            lhs = substitute(shape.eq.lhs, env)
            rhs = substitute(shape.eq.rhs, env)
            if lhs not in index or rhs not in index:
                raise QitError(f"an instance of {shape.eq.name} escaped the universe")
            pairs.append(InstancePair(shape.eq.name, tuple(env.items()), lhs, rhs))
    return TermUniverse(sig, sys, depth_bound, tuple(terms), tuple(pairs), skipped, index)


class CongruenceQuotient:
    """Partition of the universe into congruence classes.

    Members within a class are ordered by universe position, and classes
    by the (depth, operator position, position) of their least member.
    Both orders are the term order, whose reference is in
    tests/oracles.py (depth, then the root operator's declaration
    position, then the children lexicographically):
    - the universe lists each sort's terms in the term order, since
      enumerate_terms lists them so (TermTable's layered listing);
    - the members of a class share one sort, since an equation's two
      sides stand at its one index and a congruence step relates two
      nodes of one operator;
    - the term order compares depth, then the root operator, then the
      children; two terms of equal depth and operator share a sort, so
      between them it is their position that decides.
    So a class's least position is its least term, and no Term-keyed
    table is built: class_id reads the universe's own index.
    """

    def __init__(self, universe: TermUniverse, roots: Sequence[int]):
        self.universe = universe
        terms, op_index = universe.terms, universe.sig.op_index
        groups = root_groups(roots)
        groups.sort(key=lambda g: (depth(terms[g[0]]), op_index(terms[g[0]].op), g[0]))
        self.members: tuple[tuple[Term, ...], ...] = tuple(
            tuple(terms[p] for p in members) for members in groups
        )
        self.canon: tuple[Term, ...] = tuple(m[0] for m in self.members)
        # universe position -> its class
        self._class_at = [0] * len(terms)
        for cls, members in enumerate(groups):
            for p in members:
                self._class_at[p] = cls

    def __len__(self) -> int:
        return len(self.members)

    def class_id(self, t: Term) -> Optional[int]:
        p = self.universe.index.get(t)
        return None if p is None else self._class_at[p]

    def class_of(self, t: Term) -> int:
        p = self.universe.index.get(t)
        if p is None:
            raise QitError(f"term outside the universe: {show_term(t)}")
        return self._class_at[p]

    def sort_of_class(self, cls: int) -> Optional[str]:
        return _root_sort(self.universe.sig, self.canon[cls])


def congruence_roots(
    n: int,
    blocks: Iterable[tuple[int, Sequence[Union[int, tuple[object, Sequence[int]]]]]],
    seeds: Iterable[tuple[int, int]],
) -> list[int]:
    """The least congruence on ids 0..n-1 containing the seed pairs, as
    each id's root.  A block (base, nodes) lays a node table at an
    offset, read in place: nodes[k] is the node of id base + k, either
    an int (a leaf) or (op, kids), nullary nodes included, each child c
    in kids standing for id base + c.  The blocks must not overlap; an
    id no block covers is a leaf.  Two non-leaf ids whose ops agree and
    whose children are pairwise related are related, so two nullary
    nodes of one op always are.  Roots are representatives, not a
    canonical order.

    A worklist closure in the style of Downey-Sethi-Tarjan that keys
    each node once, in one pass over the blocks in order and each block
    in id order, and re-keys a node only when a union changes a child's
    root.  The seeds are joined first, before any node is keyed.  When
    the pass keys a node it adds the node to parents[r] for the current
    root r of each child, and looks its key (op, child roots) up in a
    signature table.  Two keys that meet join their nodes' classes; a
    union goes by class size and moves the absorbed root's parent set
    into the kept root's, queueing each node in it for a re-key.  The
    queue is drained before the pass moves on; a node is re-keyed from
    its last key, whose roots lie in its children's classes.

    Why the result is the least congruence:
    - every union is justified: two seeds, or two nodes of one op whose
      children were related when the keys met; so the result lies in
      the least congruence;
    - a node not yet keyed reads current roots when it is keyed;
    - a keyed node stays in parents[find(c)] for each child c, since a
      parent set moves with its root, so a union that changes its key
      queues it for a re-key;
    - so at the end every node's last key is current, and two nodes
      with one current key met the same signature table entry (a stale
      entry holds a non-root, so no current key meets it), which joined
      them; so the result is a congruence.
    Finds are inlined with path halving, so the loops over seeds and
    children make no Python call per item."""
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

    # root -> the keyed nodes with a child in its class
    parents: dict[int, set[int]] = {}
    # keyed id -> its last key, (op, child roots)
    keys: list[Optional[tuple]] = [None] * n
    sigtab: dict[tuple, int] = {}
    pending: list[int] = []

    for base, nodes in blocks:
        for pos, node in enumerate(nodes, base):
            if node.__class__ is int:
                continue
            op, kids = node
            key = [op]
            for c in kids:
                c += base
                while parent[c] != c:
                    parent[c] = c = parent[parent[c]]
                key.append(c)
                ps = parents.get(c)
                if ps is None:
                    parents[c] = {pos}
                else:
                    ps.add(pos)
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
                        gone = parents.pop(b, None)
                        if gone:
                            pending.extend(gone)
                            kept = parents.get(a)
                            if kept is None:
                                parents[a] = gone
                            elif len(kept) < len(gone):
                                gone |= kept
                                parents[a] = gone
                            else:
                                kept |= gone
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

    for x in range(n):
        r = parent[x]
        while parent[r] != r:
            parent[r] = r = parent[parent[r]]
        parent[x] = r
    return parent


def root_groups(roots: Sequence[int]) -> list[list[int]]:
    """The ids grouped by root, each group ascending, the groups in the
    order of their first id."""
    groups: dict[int, list[int]] = {}
    for n, root in enumerate(roots):
        groups.setdefault(root, []).append(n)
    return list(groups.values())


def close_congruence(universe: TermUniverse) -> CongruenceQuotient:
    """The least congruence on the universe containing its equation
    instances.  Every node is keyed, nullary ones included, by the rule
    the construction's stages use."""
    pos = universe.position
    nodes = [(t.op, tuple(pos(c) for c in t.children.entries)) for t in universe.terms]
    seeds = ((pos(p.lhs), pos(p.rhs)) for p in universe.instance_pairs)
    return CongruenceQuotient(universe, congruence_roots(len(nodes), [(0, nodes)], seeds))


def decide_eq(q: CongruenceQuotient, a: Term, b: Term) -> str:
    ca, cb = q.class_id(a), q.class_id(b)
    if ca is None or cb is None:
        return "UNKNOWN"
    return "EQUAL" if ca == cb else "DISTINCT"


@dataclass(frozen=True)
class QwrecResult:
    values: tuple[Value, ...]
    hom_ok: bool
    hom_failures: tuple[tuple[Term, Value, Value], ...]


def qwrec(q: CongruenceQuotient, alg: Algebra) -> QwrecResult:
    """Fold every class through a satisfying algebra.

    Requires an exhaustively satisfying algebra; the result is evaluated
    at every class member (well-definedness) and the induced map is
    checked to be a homomorphism at every universe node.
    """
    report = satisfies(alg, q.universe.sys)
    if not report.ok:
        raise NotSatisfying(
            f"algebra violates {report.witness_eq} at {dict(report.witness_env or ())!r}"
        )
    values: list[Value] = []
    for members in q.members:
        vals = [bind(t, {}, alg) for t in members]
        if any(v != vals[0] for v in vals[1:]):
            raise QitError(f"fold not constant on the class of {show_term(members[0])}")
        values.append(vals[0])
    failures = []
    for t in q.universe.terms:
        got = alg.interp(t.op, tuple(values[q.class_of(c)] for c in t.children.entries))
        want = values[q.class_of(t)]
        if got != want:
            failures.append((t, got, want))
    return QwrecResult(tuple(values), not failures, tuple(failures))


@dataclass(frozen=True)
class EliminatorInput:
    """motive: class id -> finite tuple of admissible tags.
    steps: (op, child class ids, child tags) -> tag."""

    motive: Union[Mapping[int, tuple], Callable[[int], tuple]]
    steps: Callable[[OpSym, tuple[int, ...], tuple], Value]


@dataclass(frozen=True)
class QwelimResult:
    values: tuple[Value, ...]
    comp_ok: bool
    comp_failures: tuple[tuple[Term, Value, Value], ...]
    instances_checked: int
    envs_checked: int


def qwelim(q: CongruenceQuotient, inp: EliminatorInput) -> QwelimResult:
    """Dependent elimination over the quotient.

    Coherence is checked for every equation instance under every
    assignment of admissible tags to its variables; the computed values
    are verified at every class member and replayed as computation rules
    at every universe node.
    """
    motive = inp.motive if callable(inp.motive) else (lambda cls: inp.motive[cls])
    steps = inp.steps

    def node_classes(t: Term, env: Mapping[str, Term]) -> tuple[int, ...]:
        return tuple(q.class_of(substitute(c, dict(env))) for c in t.children.entries)

    instances = 0
    envs = 0
    for pair in q.universe.instance_pairs:
        instances += 1
        names = [v for v, _ in pair.env]
        env_terms = dict(pair.env)
        choices = [motive(q.class_of(env_terms[v])) for v in names]
        eq = next(e for e in q.universe.sys.equations if e.name == pair.eq_name)
        for tags in itertools.product(*choices):
            envs += 1
            assignment = dict(zip(names, tags))

            def lift(t: Term) -> Value:
                if not isinstance(t, Node):
                    return assignment[t.name]
                return steps(t.op, node_classes(t, env_terms), tuple(lift(c) for c in t.children.entries))

            left, right = lift(eq.lhs), lift(eq.rhs)
            if left != right:
                witness = (pair.eq_name, tuple((v, env_terms[v], assignment[v]) for v in names), left, right)
                raise CoherenceFailure(
                    f"steps disagree on {pair.eq_name}: {left!r} vs {right!r}", witness
                )

    memo: dict[Term, Value] = {}

    def eval_closed(t: Term) -> Value:
        if t in memo:
            return memo[t]
        val = steps(t.op, tuple(q.class_of(c) for c in t.children.entries), tuple(eval_closed(c) for c in t.children.entries))
        memo[t] = val
        return val

    values: list[Value] = []
    for cls, members in enumerate(q.members):
        vals = [eval_closed(t) for t in members]
        if any(v != vals[0] for v in vals[1:]):
            raise QitError(f"elimination not constant on the class of {show_term(members[0])}")
        if vals[0] not in motive(cls):
            raise QitError(f"step value {vals[0]!r} outside the motive of class {cls}")
        values.append(vals[0])

    failures = []
    for t in q.universe.terms:
        child_cls = tuple(q.class_of(c) for c in t.children.entries)
        got = steps(t.op, child_cls, tuple(values[c] for c in child_cls))
        want = values[q.class_of(t)]
        if got != want:
            failures.append((t, got, want))
    return QwelimResult(tuple(values), not failures, tuple(failures), instances, envs)


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
    hv = (lambda cls: h[cls])
    for t in q.universe.terms:
        got = alg.interp(t.op, tuple(hv(q.class_of(c)) for c in t.children.entries))
        want = hv(q.class_of(t))
        if got != want:
            return UniqReport(False, (t, got, want), None, None)
    rec = qwrec(q, alg)
    for cls in range(len(q)):
        if hv(cls) != rec.values[cls]:
            return UniqReport(True, None, False, (cls, hv(cls), rec.values[cls]))
    return UniqReport(True, None, True, None)


def dump_quotient(q: CongruenceQuotient) -> str:
    lines = [f"canon {show_term(c)} | members {len(m)}" for c, m in zip(q.canon, q.members)]
    return "\n".join(lines) + "\n"
