"""Independent oracles used across the suite.

These deliberately avoid the library's own machinery: partitions are
computed by naive inference to a fixpoint, canonical forms by direct
structural reads, and counts by the arithmetic recurrence.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Mapping, NamedTuple, Optional, Sequence, Union

from qitbench.errors import InfinitaryArity
from qitbench.quotient import congruence_roots
from qitbench.terms import (
    Comp,
    InstanceShape,
    IxVar,
    Node,
    Signature,
    SystemOfEquations,
    Tab,
    Term,
    Var,
    substitute,
    term_key,
)


def bag_multiset(t: Term) -> tuple[str, ...]:
    """Sorted labels along a cons spine; the nil spine end is implicit."""
    labels: list[str] = []
    while isinstance(t, Node) and t.op.name == "cons":
        labels.append(t.op.params[0])
        t = t.children.entries[0]
    assert isinstance(t, Node) and t.op.name == "nil", f"not a spine: {t!r}"
    return tuple(sorted(labels))


def vec_labels(t: Term) -> tuple[str, ...]:
    """Labels along an indexed cons spine, unsorted."""
    labels: list[str] = []
    while isinstance(t, Node) and t.op.name == "cons":
        labels.append(t.op.params[0])
        t = t.children.entries[0]
    assert isinstance(t, Node) and t.op.name == "nil"
    return tuple(labels)


def count_terms(arities: list[int], nvars: int, depth: int) -> int:
    """count(d) = nvars + sum over ops of count(d-1)^arity, nullary ops
    counting once from depth 1 up."""
    if depth <= 0:
        return 0
    below = count_terms(arities, nvars, depth - 1)
    total = nvars
    for a in arities:
        if a == 0:
            total += 1
        elif depth >= 2:
            total += below**a
    return total


def weighted_depth(t: Term, weights: Optional[Mapping[str, int]] = None) -> int:
    """Depth with variables counting at assigned leaf weights (default 1)."""
    weights = weights or {}
    match t:
        case Var(name):
            return weights.get(name, 1)
        case IxVar(_):
            return 1
        case Node(_, Tab(entries)):
            return 1 + max((weighted_depth(c, weights) for c in entries), default=0)
        case Node(op, Comp(_, _)):
            raise InfinitaryArity(f"depth undefined under countable operator {op.show()}")
    raise TypeError(f"not a term: {t!r}")


def naive_enumerate_terms(
    sig: Signature,
    vars: Union[Sequence[str], Mapping[str, Optional[str]]],
    depth_bound: int,
    *,
    sort: Optional[str] = None,
    var_depths: Optional[Mapping[str, int]] = None,
) -> list[Term]:
    """All terms of depth <= depth_bound, deterministically ordered, built
    as trees and measured with weighted_depth: the reference for
    TermTable.

    Depth d terms list variables first (declaration order), then for each
    operator in declaration order every child tuple whose maximum depth is
    exactly d-1, in lexicographic order.  vars may carry target indices
    (mapping name -> sort) for indexed signatures; var_depths assigns leaf
    weights other than 1.
    """
    for d in sig.ops:
        if not d.arity.finite:
            raise InfinitaryArity(f"cannot enumerate under countable operator {d.op.show()}")
    if isinstance(vars, Mapping):
        var_rows = list(vars.items())
    else:
        var_rows = [(v, None) for v in vars]
    var_depths = var_depths or {}

    exact: dict[tuple[int, Optional[str]], list[Term]] = {}

    def exactly(d: int, want: Optional[str]) -> list[Term]:
        key = (d, want)
        if key in exact:
            return exact[key]
        out: list[Term] = []
        for name, vsort in var_rows:
            if var_depths.get(name, 1) == d and (want is None or vsort is None or vsort == want):
                out.append(Var(name))
        for decl in sig.ops:
            if want is not None and decl.sort is not None and decl.sort != want:
                continue
            n = decl.arity.count
            if n == 0:
                if d == 1:
                    out.append(Node(decl.op, Tab(())))
                continue
            if d < 2:
                continue
            child_sorts = decl.child_sorts or (None,) * n
            pools = [upto(d - 1, s) for s in child_sorts]
            for combo in itertools.product(*pools):
                if max(weighted_depth(c, var_depths) for c in combo) == d - 1:
                    out.append(Node(decl.op, Tab(combo)))
        exact[key] = out
        return out

    def upto(d: int, want: Optional[str]) -> list[Term]:
        out: list[Term] = []
        for k in range(1, d + 1):
            out.extend(exactly(k, want))
        return out

    return upto(depth_bound, sort)


def naive_congruence(terms: list[Term], pairs: list[tuple[Term, Term]]) -> list[set[int]]:
    """Least congruence on the finite universe containing the pairs,
    computed by repeated full scans over a relation matrix."""
    n = len(terms)
    index = {t: i for i, t in enumerate(terms)}
    rel = [[i == j for j in range(n)] for i in range(n)]
    for a, b in pairs:
        rel[index[a]][index[b]] = rel[index[b]][index[a]] = True
    changed = True
    while changed:
        changed = False
        # symmetry + transitivity
        for i in range(n):
            for j in range(n):
                if not rel[i][j]:
                    continue
                if not rel[j][i]:
                    rel[j][i] = True
                    changed = True
                for k in range(n):
                    if rel[j][k] and not rel[i][k]:
                        rel[i][k] = True
                        changed = True
        # congruence: same operator, related children pointwise
        for i in range(n):
            ti = terms[i]
            if not isinstance(ti, Node):
                continue
            for j in range(n):
                if rel[i][j]:
                    continue
                tj = terms[j]
                if not isinstance(tj, Node) or ti.op != tj.op:
                    continue
                ci, cj = ti.children.entries, tj.children.entries
                if all(rel[index[a]][index[b]] for a, b in zip(ci, cj)):
                    rel[i][j] = True
                    changed = True
    classes: list[set[int]] = []
    seen: set[int] = set()
    for i in range(n):
        if i in seen:
            continue
        cls = {j for j in range(n) if rel[i][j]}
        seen |= cls
        classes.append(cls)
    return classes


def size_height(t) -> int:
    """Height of a size tree; leaf height 0."""
    return 1 + max((size_height(c) for c in t.children), default=-1)


def naive_components(nodes: list, pairs: list[tuple]) -> list[set[int]]:
    """Connected components of the gluing graph by breadth-first scans."""
    index = {node: i for i, node in enumerate(nodes)}
    adjacency: dict[int, set[int]] = {i: set() for i in range(len(nodes))}
    for a, b in pairs:
        adjacency[index[a]].add(index[b])
        adjacency[index[b]].add(index[a])
    seen: set[int] = set()
    components: list[set[int]] = []
    for start in range(len(nodes)):
        if start in seen:
            continue
        frontier, comp = [start], set()
        while frontier:
            cur = frontier.pop()
            if cur in comp:
                continue
            comp.add(cur)
            frontier.extend(adjacency[cur] - comp)
        seen |= comp
        components.append(comp)
    return components


# --- the stage diamond over term trees, as it was before slice views ---


def _token(sid: int, cls: int) -> str:
    return f"~{sid}.{cls}"


class NaiveClass(NamedTuple):
    flat: Term
    sort: Optional[str]
    fd: int
    pairs: tuple[tuple[int, Term], ...]


class NaiveStage(NamedTuple):
    sid: int
    slices: tuple[int, ...]
    classes: tuple[NaiveClass, ...]
    class_of_pair: Mapping[tuple[int, Term], int]


def _stage_envs(shape: InstanceShape, st, bound: int) -> tuple[Iterable[tuple], int]:
    """The class tuples of st that instantiate shape's equation within
    bound, a class weighing its flattened depth fd; and the overflow."""
    pools = [
        [c for c, cls in enumerate(st.classes) if want is None or cls.sort == want]
        for want in shape.sorts
    ]
    return shape.envs(pools, lambda c: st.classes[c].fd, bound)


def naive_diamond(
    sig: Signature,
    sys: SystemOfEquations,
    depth_bound: int,
    slices: Sequence,
    fire: set[tuple[int, int]],
    sid: int,
) -> NaiveStage:
    """One quotient stage over the given slice stages.  fire lists the
    (lower, higher) slice pairs that are strictly ordered in the member
    set this stage summarizes; only those pairs admit collapse clauses.

    Equation instances are drawn per slice under the budget rule of
    InstanceShape.envs, a token weighing its class's fd: an instance is
    made exactly when both sides fit the bound with variables at depth 1
    and every variable v, at deepest position p_v (root = 1), gets a
    class with fd <= depth_bound + 1 - p_v.  Overflowing instances are
    never built.  The stage is the least congruence on the pool that
    contains these clauses (congruence_roots)."""
    for decl in sig.ops:
        if not decl.arity.finite:
            raise InfinitaryArity(f"cannot materialize stages under {decl.op.show()}")

    by_sid = {st.sid: st for st in slices}
    ordered = sorted(slices, key=lambda s: s.sid)
    pool: list[tuple[int, Term]] = []
    by_slice: dict[int, list[Term]] = {}
    for st in ordered:
        vars_map = {_token(st.sid, c): cls.sort for c, cls in enumerate(st.classes)}
        local = {_token(st.sid, c): cls.fd for c, cls in enumerate(st.classes)}
        terms = naive_enumerate_terms(sig, vars_map, depth_bound, var_depths=local)
        by_slice[st.sid] = terms
        pool.extend((st.sid, t) for t in terms)
    index = {p: n for n, p in enumerate(pool)}

    def seeds() -> Iterable[tuple[int, int]]:
        # equation instances within one slice
        for st in ordered:
            for shape in sys.instance_shapes:
                for combo in _stage_envs(shape, st, depth_bound)[0]:
                    env = {v: Var(_token(st.sid, c)) for v, c in zip(shape.names, combo)}
                    lhs = substitute(shape.eq.lhs, env)
                    rhs = substitute(shape.eq.rhs, env)
                    yield index[(st.sid, lhs)], index[(st.sid, rhs)]

        # collapse clauses along strictly ordered slice pairs
        for low, high in sorted(fire):
            target = by_sid[high]
            for t in by_slice[low]:
                cls = target.class_of_pair[(low, t)]
                yield index[(high, Var(_token(high, cls)))], index[(low, t)]
                if isinstance(t, Node):
                    kids = (target.class_of_pair[(low, ch)] for ch in t.children.entries)
                    lifted = Node(t.op, Tab(tuple(Var(_token(high, c)) for c in kids)))
                    yield index[(high, lifted)], index[(low, t)]

    # congruence through node structure, across slices
    nodes = {
        n: (t.op, tuple(index[(s, ch)] for ch in t.children.entries))
        for n, (s, t) in enumerate(pool)
        if isinstance(t, Node) and t.children.entries
    }
    roots = congruence_roots(len(pool), nodes, seeds())

    flat_env = {
        _token(st.sid, c): cls.flat for st in slices for c, cls in enumerate(st.classes)
    }
    groups: dict[int, list[int]] = {}
    for n, root in enumerate(roots):
        groups.setdefault(root, []).append(n)

    ranked = []
    for members in groups.values():
        flats = [substitute(pool[n][1], flat_env) for n in members]
        flat = min(flats, key=lambda t: term_key(sig, t))
        ranked.append((term_key(sig, flat), min(members), flat, members))
    ranked.sort(key=lambda row: (row[0], row[1]))

    classes = []
    class_of_pair: dict[tuple[int, Term], int] = {}
    for cid, (_, _, flat, members) in enumerate(ranked):
        pairs = tuple(pool[n] for n in sorted(members))
        classes.append(
            NaiveClass(
                flat=flat,
                sort=sig.decl(flat.op).sort,
                fd=weighted_depth(flat),
                pairs=pairs,
            )
        )
        for n in members:
            class_of_pair[pool[n]] = cid

    return NaiveStage(
        sid=sid,
        slices=tuple(sorted(by_sid)),
        classes=tuple(classes),
        class_of_pair=class_of_pair,
    )

