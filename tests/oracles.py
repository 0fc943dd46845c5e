"""Independent oracles used across the suite.

These deliberately avoid the library's own machinery: partitions are
computed by naive inference to a fixpoint, canonical forms by direct
structural reads, and counts by the arithmetic recurrence.  term_key is
the reference for the term order, which the library's enumeration
(TermTable) produces without computing it.  The recursive plump order
(the reference for SizeUniverse's height ranks), well-founded recursion,
structural term equality, the readers of serialize's JSON forms,
derivation replay, the slice views (a stage's terms over its class
tokens, which the package no longer builds) and the per-slice
restriction walk over them are second implementations kept here as
references.
"""

from __future__ import annotations

import itertools
from typing import Callable, Iterable, Mapping, NamedTuple, Optional, Sequence, Union

from qitbench.algebras import Algebra, SatReport, Value, satisfies
from qitbench.construction import diamond
from qitbench.errors import (
    CoherenceFailure,
    InfeasibleExhaustive,
    InfinitaryArity,
    NotSatisfying,
    ParseError,
    QitError,
    UnboundVariable,
)
from qitbench.quotient import CongruenceTable, draw_instances
from qitbench.schema import Accept, DeclReport, Derivation, QitDecl, check_decl
from qitbench.sexpr import parse_term, show_term
from qitbench.terms import (
    NAT,
    Arity,
    Comp,
    Equation,
    IndexMap,
    InstanceShape,
    IxVar,
    Node,
    OpDecl,
    OpSym,
    Signature,
    SystemOfEquations,
    Tab,
    Term,
    TermTable,
    Var,
    fin,
    instantiate_comp,
)


# --- tree-walking references: depth, variables, substitution, evaluation ---


def depth(t: Term) -> int:
    """Var depth 1, nullary node depth 1, node depth 1 + max child."""
    match t:
        case Var(_) | IxVar(_):
            return 1
        case Node(_, Tab(entries)):
            return 1 + max((depth(c) for c in entries), default=0)
        case Node(op, Comp(_, _)):
            raise InfinitaryArity(f"depth undefined under countable operator {op.show()}")
    raise TypeError(f"not a term: {t!r}")


def free_vars(t: Term) -> set[str]:
    match t:
        case Var(name):
            return {name}
        case IxVar(_):
            return set()
        case Node(_, Tab(entries)):
            out: set[str] = set()
            for c in entries:
                out |= free_vars(c)
            return out
        case Node(_, Comp(_, body)):
            return free_vars(body)
    raise TypeError(f"not a term: {t!r}")


def substitute(t: Term, env: Mapping[str, Term], *, partial: bool = False) -> Term:
    """Replace named variables by terms.  Index variables live in their own
    namespace, so comprehension binders cannot capture."""
    match t:
        case Var(name):
            if name in env:
                return env[name]
            if partial:
                return t
            raise UnboundVariable(f"unbound variable {name!r}")
        case IxVar(_):
            return t
        case Node(op, Tab(entries)):
            return Node(op, Tab(tuple(substitute(c, env, partial=partial) for c in entries)))
        case Node(op, Comp(ivar, body)):
            return Node(op, Comp(ivar, substitute(body, env, partial=partial)))
    raise TypeError(f"not a term: {t!r}")


Env = Union[Mapping[str, Value], Callable[[str], Value]]


def _lookup(env: Env, name: str) -> Value:
    if callable(env):
        return env(name)
    if name not in env:
        raise UnboundVariable(f"unbound variable {name!r}")
    return env[name]


def bind(t: Term, env: Env, alg: Algebra) -> Value:
    """Evaluate a term under a variable environment by recursion.

    Children of countable operators are passed to the operator's rule as
    the callable k -> value of the k-th instantiated child.
    """
    match t:
        case Var(name):
            return _lookup(env, name)
        case IxVar(_):
            raise UnboundVariable("index variable outside a comprehension")
        case Node(op, Tab(entries)):
            return alg.interp(op, tuple(bind(c, env, alg) for c in entries))
        case Node(op, Comp(_, _) as comp):
            return alg.interp(op, lambda k: bind(instantiate_comp(comp, k), env, alg))
    raise TypeError(f"not a term: {t!r}")


def naive_satisfies(alg: Algebra, sys: SystemOfEquations) -> SatReport:
    """satisfies with both sides evaluated by bind under a dict per
    environment: the reference for the compiled evaluator."""
    if alg.carrier is None:
        raise InfeasibleExhaustive("satisfaction needs an enumerated carrier")
    checked = 0
    for eq in sys.equations:
        names = eq.var_names()
        if names is None:
            raise InfeasibleExhaustive(f"equation {eq.name} has a countable variable family")
        for combo in itertools.product(alg.carrier, repeat=len(names)):
            env = dict(zip(names, combo))
            checked += 1
            if bind(eq.lhs, env, alg) != bind(eq.rhs, env, alg):
                return SatReport("VIOLATED", checked, eq.name, tuple(env.items()))
    return SatReport("SATISFIED", checked)


def naive_tokenize(text: str, line_no: int) -> list[tuple[str, str, int, int]]:
    """The declaration tokenizer as a character loop: (kind, text, line, col)
    per token, or ParseError at the first character no token starts with."""
    toks = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if text.startswith("->", i):
            toks.append(("->", "->", line_no, i + 1))
            i += 2
            continue
        if ch in "(){}:=*,":
            toks.append((ch, ch, line_no, i + 1))
            i += 1
            continue
        if "0" <= ch <= "9":
            j = i
            while j < len(text) and "0" <= text[j] <= "9":
                j += 1
            toks.append(("num", text[i:j], line_no, i + 1))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] in "_'"):
                j += 1
            toks.append(("ident", text[i:j], line_no, i + 1))
            i = j
            continue
        raise ParseError(f"unexpected character {ch!r}", line_no, i + 1)
    return toks


def term_key(sig: Signature, t: Term):
    """Total deterministic order: by depth, variables first, then operator
    declaration order, then children lexicographically."""
    match t:
        case Var(name):
            return (1, 0, name)
        case Node(_, Tab(entries)):
            return (depth(t), 1, sig.op_index(t.op), tuple(term_key(sig, c) for c in entries))
        case Node(_, Comp(_, _)):
            raise InfinitaryArity("no term order under countable operators")
        case IxVar(_):
            raise InfinitaryArity("no term order for index variables")
    raise TypeError(f"not a term: {t!r}")


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


class ProductTermTable(TermTable):
    """TermTable with depth d built as the full product of the pools
    upto(d - 1), filtered to the tuples whose deepest child is at depth
    d - 1: the reference for the ids, depths and listings of
    TermTable's exact-depth walk."""

    def _exactly(self, d: int, want: Optional[str]) -> list[int]:
        if (d, want) in self._exact:
            return self._exact[(d, want)]

        def fits(sort: Optional[str]) -> bool:
            return want is None or sort is None or sort == want

        depth = self.depths.__getitem__
        found = [k for k, (_, sort, w) in enumerate(self.leaves) if w == d and fits(sort)]
        for op, decl in enumerate(self.sig.ops):
            if fits(decl.sort):
                # a nullary operator has one child tuple, (), of depth 0
                kid_sorts = decl.child_sorts or (None,) * decl.arity.count
                pools = [self.upto(d - 1, s) for s in kid_sorts]
                found += [
                    (op, kids)
                    for kids in itertools.product(*pools)
                    if max(map(depth, kids), default=0) == d - 1
                ]
        for node in found:
            if node not in self.lookup:
                self.lookup[node] = len(self.nodes)
                self.nodes.append(node)
                self.depths.append(d)
        out = self._exact[(d, want)] = [self.lookup[node] for node in found]
        return out


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


# A size tree is (operator name, child trees), as in tests/helpers.py.


def show_size(t) -> str:
    """The literal of a size tree, (sz op child ...)."""
    name, kids = t
    if not kids:
        return f"(sz {name})"
    return f"(sz {name} " + " ".join(show_size(c) for c in kids) + ")"


def size_height(t) -> int:
    """Height of a size tree; leaf height 0."""
    return 1 + max((size_height(c) for c in t[1]), default=-1)


def naive_size_members(sig, bound: int) -> list:
    """Every size of height <= bound (leaf height 1) over the size
    signature, by the product-by-height loop: per height, each operator
    in declaration order over every child tuple drawn from the lower
    heights whose highest child sits one height below."""
    exact: list[list] = []
    for h in range(1, bound + 1):
        level = []
        pool = [m for lvl in exact for m in lvl]
        for name, arity in sig.ops:
            if arity == 0:
                if h == 1:
                    level.append((name, ()))
                continue
            if h == 1:
                continue
            for combo in itertools.product(pool, repeat=arity):
                if max(size_height(c) for c in combo) == h - 2:
                    level.append((name, combo))
        exact.append(level)
    return [m for lvl in exact for m in lvl]


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


def naive_diagram_fault(d) -> Optional[str]:
    """The fault Diagram.check reports first, or None: every member pair
    and then every member triple walked in member order, then up-set
    order, each reading its maps through the members' labels."""
    u, label, family = d.universe, d.label, d.family
    show = u.show
    for i in u.members:
        if i not in label or label[i] not in family:
            return f"no carrier at {show(i)}"

    def step(i, j):
        return d.maps.get((label[i], label[j]))

    for i in u.members:
        for j in u.above[i]:
            s = step(i, j)
            if s is None:
                return f"no map {show(i)} -> {show(j)}"
            for x in family[label[i]]:
                if x not in s:
                    return f"map {show(i)} -> {show(j)} undefined at {x!r}"
                if s[x] not in family[label[j]]:
                    return f"map {show(i)} -> {show(j)} escapes the carrier at {x!r}"
    for i in u.members:
        for j in u.above[i]:
            for k in u.above[j]:
                lo, mid, hi = step(i, j), step(j, k), step(i, k)
                if hi is None:
                    return f"no map {show(i)} -> {show(k)}"
                for x in family[label[i]]:
                    if mid[lo[x]] != hi[x]:
                        return f"composition mismatch at {x!r} through {show(j)}"
    return None


def naive_levels(d) -> list[list[tuple]]:
    """Diagram.check's return, as (label, first member) lists: per
    height, lowest first, the labels of its members in member order,
    each with the first member labelled so."""
    u = d.universe
    levels: dict[int, dict] = {}
    for i in u.members:
        levels.setdefault(u.depths[i], {}).setdefault(d.label[i], i)
    return [list(levels[h].items()) for h in sorted(levels)]


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


class StageRecord(NamedTuple):
    flat: Term
    sort: Optional[str]
    fd: int


def stage_records(st) -> tuple[StageRecord, ...]:
    """Each class of a construction stage as (flat, sort, fd), read off
    its build's closed table at the class's flat_id."""
    sig, closed = st.build.sig, st.build.closed
    return tuple(
        StageRecord(closed.terms[f], sig.ops[closed.nodes[f][0]].sort, closed.depths[f])
        for f in st.classes
    )


def naive_flat_instances(st) -> frozenset[tuple[int, int]]:
    """Stage.flat_instances as each stage drew its own before a build
    drew its instances once: quotient.draw_instances over the stage's
    flats, pooled by sort (None taking every flat), each weighing its
    depth, with the (lhs, rhs) of each instance kept."""
    build = st.build
    sig, closed = build.sig, build.closed
    by_sort: dict[Optional[str], list[int]] = {}
    for f in st.classes:
        by_sort.setdefault(sig.ops[closed.nodes[f][0]].sort, []).append(f)
    instances, _ = draw_instances(build.sys, closed, {**by_sort, None: st.classes}, build.depth)
    return frozenset((lhs, rhs) for _, _, lhs, rhs in instances)


def _stage_envs(shape: InstanceShape, records, bound: int) -> tuple[Iterable[tuple], int]:
    """The class tuples of a stage, given its records, that instantiate
    shape's equation within bound, a class weighing its flattened depth
    fd; and the overflow."""
    pools = [
        [c for c, cls in enumerate(records) if want is None or cls.sort == want]
        for want in shape.sorts
    ]
    return shape.envs(pools, lambda c: records[c].fd, bound)


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
    contains these clauses (CongruenceTable)."""
    for decl in sig.ops:
        if not decl.arity.finite:
            raise InfinitaryArity(f"cannot materialize stages under {decl.op.show()}")

    by_sid = {st.sid: st for st in slices}
    ordered = sorted(slices, key=lambda s: s.sid)
    records = {st.sid: stage_records(st) for st in slices}
    pool: list[tuple[int, Term]] = []
    by_slice: dict[int, list[Term]] = {}
    for st in ordered:
        vars_map = {_token(st.sid, c): cls.sort for c, cls in enumerate(records[st.sid])}
        local = {_token(st.sid, c): cls.fd for c, cls in enumerate(records[st.sid])}
        terms = naive_enumerate_terms(sig, vars_map, depth_bound, var_depths=local)
        by_slice[st.sid] = terms
        pool.extend((st.sid, t) for t in terms)
    index = {p: n for n, p in enumerate(pool)}

    def seeds() -> Iterable[tuple[int, int]]:
        # equation instances within one slice
        for st in ordered:
            for shape in sys.instance_shapes:
                for combo in _stage_envs(shape, records[st.sid], depth_bound)[0]:
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
    nodes = [
        (t.op, tuple(index[(s, ch)] for ch in t.children.entries))
        if isinstance(t, Node) and t.children.entries
        else n
        for n, (s, t) in enumerate(pool)
    ]
    class_at = CongruenceTable(nodes, seeds()).class_at

    flat_env = {
        _token(sid, c): cls.flat for sid, rows in records.items() for c, cls in enumerate(rows)
    }
    groups: dict[int, list[int]] = {}
    for n, c in enumerate(class_at):
        groups.setdefault(c, []).append(n)

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



# --- slice views: a stage's terms over its class tokens, as a table ---


class NaiveView(NamedTuple):
    """A stage read as a slice, as the package kept it before every
    stage was read off the closed table.  table holds the depth-bounded
    terms over the stage's class tokens, leaf c being class c's token; a
    term's local id is its table id, which is its position in the
    enumeration, so a term's children always come before it."""

    table: TermTable
    # class -> local id of the class's token
    tokens: tuple[int, ...]
    # per equation, in the system's order: its instances within the
    # bound as local id pairs, and how many overflow the bound
    instances: tuple[tuple[tuple[tuple[int, int], ...], int], ...]
    # local id -> closed id of the term with every token flattened
    flats: tuple[int, ...]


def naive_view(st) -> NaiveView:
    """Enumerate the terms over st's class tokens, a token weighing its
    class's fd, and index them: each term's flattening, and each
    equation's instances under InstanceShape.envs' budget rule."""
    build = st.build
    sig, sys, bound, closed = build.sig, build.sys, build.depth, build.closed
    records = stage_records(st)
    leaves = [(f"~{st.sid}.{c}", cls.sort, cls.fd) for c, cls in enumerate(records)]
    table = TermTable(sig, leaves)
    table.upto(bound)
    flats: list[int] = []
    for node in table.nodes:
        if isinstance(node, int):
            flats.append(st.classes[node])
            continue
        key = (node[0], tuple(flats[k] for k in node[1]))
        if key not in closed.lookup:
            term = show_term(table.terms[len(flats)])
            raise QitError(f"stage {st.sid} views {term}, whose flattening is deeper than {bound}")
        flats.append(closed.lookup[key])
    tokens = tuple(table.lookup[c] for c in range(len(st.classes)))
    instances = []
    for shape in sys.instance_shapes:
        envs, overflow = _stage_envs(shape, records, bound)
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
    return NaiveView(table, tokens, tuple(instances), tuple(flats))


def view_classes(stage, view: NaiveView) -> tuple[int, ...]:
    """stage's class of each term of a slice's view: its flattening's."""
    return tuple(stage.class_at[f] for f in view.flats)


def naive_translate(src: NaiveView, dst: NaiveView, rename: Sequence[int]) -> list[int]:
    """The local id in dst of each term of src with its tokens renamed
    through the class map rename; -1 for a term dst does not hold.
    Children come before their parents, so one pass suffices."""
    out = [-1] * len(src.flats)
    for c, n in enumerate(src.tokens):
        out[n] = dst.tokens[rename[c]]
    for n, node in enumerate(src.table.nodes):
        if not isinstance(node, int):
            op, kids = node
            out[n] = dst.table.lookup.get((op, tuple(out[k] for k in kids)), -1)
    return out


# --- the restriction certificate as a per-slice pair walk ---


def chained_diamond(build, slices, sid: int):
    """construction.diamond over slices, its seeds chained afresh from
    every slice's flat_instances: the reference for the instance unions
    its callers grow once per new slice."""
    slices = tuple(slices)
    seeds = itertools.chain.from_iterable(st.flat_instances for st in slices)
    return diamond(build, slices, seeds, sid)


def naive_check_restriction(appx) -> int:
    """Approximation.check_restriction as it was before stages kept one
    class array: per member and per literal slice, pair each term's
    literal class with the shared class of its translation, both read
    through the slices' views.  Same literal diamonds, same messages;
    the views check is the translation's (total and covering), with no
    flats check."""
    u = appx.universe
    literal: dict[int, object] = {}
    bij: dict[int, list[int]] = {}
    into: dict[int, list[int]] = {}
    lit_views: dict[int, NaiveView] = {}
    shared_views = {sid: naive_view(st) for sid, st in enumerate(appx.stages)}
    checked = 0
    stage_of = [appx.stage_of[m] for m in u.members]
    position = {m: p for p, m in enumerate(u.members)}
    for pos, i in enumerate(u.members):
        below = [position[j] for j in u.below[i]]
        lit = chained_diamond(appx.build, [literal[j] for j in below], sid=pos)
        literal[pos] = lit
        shared = appx.stages[stage_of[pos]]
        if shared.slices != tuple(sorted({stage_of[pj] for pj in below})):
            raise QitError(f"restriction mismatch at {u.show(i)}: slices differ")
        pairs: set[tuple[int, int]] = set()
        for pj in below:
            sj = stage_of[pj]
            if pj not in into:
                view = shared_views[sj]
                lit_views[pj] = naive_view(literal[pj])
                into[pj] = naive_translate(lit_views[pj], view, bij[pj])
                if -1 in into[pj] or len(set(into[pj])) != len(view.flats):
                    raise QitError(f"restriction mismatch at {u.show(i)}: views differ")
            shared_of = view_classes(shared, shared_views[sj])
            pairs.update(zip(view_classes(lit, lit_views[pj]), map(shared_of.__getitem__, into[pj])))
        label = [-1] * len(lit)
        for c, n in pairs:
            if label[c] != -1:
                raise QitError(f"restriction mismatch at {u.show(i)}: partitions differ")
            label[c] = n
        if sorted(label) != list(range(len(shared))):
            raise QitError(f"restriction mismatch at {u.show(i)}: classes differ")
        bij[pos] = label
        checked += len(shared.classes)
    return checked


# --- the oracle over term trees, as it was before it ran on TermTable ids ---


class NaiveUniverse(NamedTuple):
    sig: Signature
    sys: SystemOfEquations
    terms: list[Term]
    # (equation name, (variable, term) per variable, lhs, rhs)
    instance_pairs: list[tuple[str, tuple[tuple[str, Term], ...], Term, Term]]
    skipped: int
    # term -> its position in terms
    index: dict[Term, int]


def naive_build_universe(sig: Signature, sys: SystemOfEquations, depth_bound: int) -> NaiveUniverse:
    """Closed terms to the bound as trees (naive_enumerate_terms, sort by
    sort in an indexed signature), and every equation instance whose
    substituted sides stay within it: environments drawn from the
    universe in listing order under InstanceShape.envs' budget rule, each
    side built with substitute and looked up by Term."""
    sorts = sig.sorts
    if sorts is None:
        terms = naive_enumerate_terms(sig, (), depth_bound)
    else:
        for d in sig.ops:
            if d.sort is None:
                raise QitError(
                    f"operator {d.op.show()} has no target index in an indexed signature"
                )
        terms = []
        for s in sorts:
            terms.extend(naive_enumerate_terms(sig, (), depth_bound, sort=s))
    index = {t: i for i, t in enumerate(terms)}
    depths = [depth(t) for t in terms]
    shapes = sys.instance_shapes

    def root_sort(t: Term) -> Optional[str]:
        return sig.decl(t.op).sort if isinstance(t, Node) else None

    by_sort = {
        want: [p for p, t in enumerate(terms) if want is None or root_sort(t) == want]
        for want in {s for shape in shapes for s in shape.sorts}
    }
    pairs = []
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
            pairs.append((shape.eq.name, tuple(env.items()), lhs, rhs))
    return NaiveUniverse(sig, sys, terms, pairs, skipped, index)


class NaiveQuotient(NamedTuple):
    universe: NaiveUniverse
    # the classes, each as its members in universe order
    members: tuple[tuple[Term, ...], ...]
    canon: tuple[Term, ...]
    # universe position -> its class
    class_at: list[int]

    def class_of(self, t: Term) -> int:
        return self.class_at[self.universe.index[t]]


def naive_close_congruence(u: NaiveUniverse) -> NaiveQuotient:
    """The least congruence containing the instances, on Terms hashed back
    to universe positions; classes ranked by the (depth, operator
    position, position) of their least member."""
    pos = u.index.__getitem__
    nodes = [(t.op, tuple(pos(c) for c in t.children.entries)) for t in u.terms]
    seeds = ((pos(lhs), pos(rhs)) for _, _, lhs, rhs in u.instance_pairs)
    class_at = CongruenceTable(nodes, seeds).class_at
    groups: dict[int, list[int]] = {}
    for p, c in enumerate(class_at):
        groups.setdefault(c, []).append(p)
    terms, op_index = u.terms, u.sig.op_index
    ranked = sorted(
        groups.values(), key=lambda g: (depth(terms[g[0]]), op_index(terms[g[0]].op), g[0])
    )
    members = tuple(tuple(terms[p] for p in g) for g in ranked)
    class_at = [0] * len(terms)
    for cls, g in enumerate(ranked):
        for p in g:
            class_at[p] = cls
    return NaiveQuotient(u, members, tuple(m[0] for m in members), class_at)


def naive_qwrec(q: NaiveQuotient, alg: Algebra):
    """(values, hom failures): every member folded with bind, the fold
    constant on each class, the induced map checked at every node."""
    report = satisfies(alg, q.universe.sys)
    if not report.ok:
        raise NotSatisfying(
            f"algebra violates {report.witness_eq} at {dict(report.witness_env or ())!r}"
        )
    values = []
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
    return tuple(values), tuple(failures)


def naive_qwelim(q: NaiveQuotient, motive, steps):
    """(values, computation failures, instances, environments): coherence
    under every tag assignment with each node's child classes read off
    the substituted instance, values by memoised recursion over Terms,
    computation rules at every node."""
    eqs = {e.name: e for e in q.universe.sys.equations}
    instances = envs = 0
    for eq_name, env, _, _ in q.universe.instance_pairs:
        instances += 1
        names = [v for v, _ in env]
        env_terms = dict(env)
        choices = [motive(q.class_of(env_terms[v])) for v in names]
        for tags in itertools.product(*choices):
            envs += 1
            assignment = dict(zip(names, tags))

            def lift(t: Term):
                if not isinstance(t, Node):
                    return assignment[t.name]
                kids = t.children.entries
                return steps(
                    t.op,
                    tuple(q.class_of(substitute(c, env_terms)) for c in kids),
                    tuple(lift(c) for c in kids),
                )

            left, right = lift(eqs[eq_name].lhs), lift(eqs[eq_name].rhs)
            if left != right:
                witness = (eq_name, tuple((v, env_terms[v], assignment[v]) for v in names), left, right)
                raise CoherenceFailure(f"steps disagree on {eq_name}: {left!r} vs {right!r}", witness)

    memo: dict[Term, object] = {}

    def eval_closed(t: Term):
        if t not in memo:
            kids = t.children.entries
            memo[t] = steps(t.op, tuple(q.class_of(c) for c in kids), tuple(eval_closed(c) for c in kids))
        return memo[t]

    values = []
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
    return tuple(values), tuple(failures), instances, envs


# --- second implementations kept as references ---


class PlumpOrder:
    """Memoized decision procedures for the plump order, by the mutual
    structural recursion on trees; the reference for SizeUniverse's
    height ranks, and the order on sizes outside a universe."""

    def __init__(self):
        self._lt: dict[tuple[tuple, tuple], bool] = {}
        self._le: dict[tuple[tuple, tuple], bool] = {}

    def le(self, i: tuple, j: tuple) -> bool:
        key = (i, j)
        hit = self._le.get(key)
        if hit is None:
            hit = all(self.lt(c, j) for c in i[1])
            self._le[key] = hit
        return hit

    def lt(self, i: tuple, j: tuple) -> bool:
        key = (i, j)
        hit = self._lt.get(key)
        if hit is None:
            hit = any(self.le(i, c) for c in j[1])
            self._lt[key] = hit
        return hit


class CycleDetected(QitError):
    pass


def wf_rec(
    u,
    step: Callable[[int, Mapping[int, object]], object],
    schedule: Optional[Sequence[int]] = None,
) -> dict[int, object]:
    """Well-founded recursion over the universe: step receives a member
    and the finished values of everything strictly below it.  The result
    is schedule-independent; a cycle in the order would surface as
    CycleDetected."""
    values: dict[int, object] = {}
    in_progress: set[int] = set()

    def visit(i: int):
        if i in values:
            return values[i]
        if i in in_progress:
            raise CycleDetected(f"member {i}")
        in_progress.add(i)
        partial = {j: visit(j) for j in u.below[i]}
        values[i] = step(i, partial)
        in_progress.discard(i)
        return values[i]

    for i in schedule if schedule is not None else u.members:
        visit(i)
    return values


DEFAULT_SAMPLE_POINTS = tuple(range(9))


def terms_equal(
    a: Term,
    b: Term,
    maps: Mapping[str, IndexMap] | None = None,
    points: Sequence[int] = DEFAULT_SAMPLE_POINTS,
) -> bool:
    """Structural equality; comprehensions compare by instantiation at the
    sample points, which also absorbs index variable renaming."""
    if type(a) is not type(b):
        return False
    match a, b:
        case (Var(x), Var(y)):
            return x == y
        case (IxVar(e1), IxVar(e2)):
            return e1 == e2
        case (Node(op1, ch1), Node(op2, ch2)):
            if op1 != op2:
                return False
            if isinstance(ch1, Tab) and isinstance(ch2, Tab):
                return len(ch1.entries) == len(ch2.entries) and all(
                    terms_equal(x, y, maps, points) for x, y in zip(ch1.entries, ch2.entries)
                )
            if isinstance(ch1, Comp) and isinstance(ch2, Comp):
                return all(
                    terms_equal(instantiate_comp(ch1, k, maps), instantiate_comp(ch2, k, maps), maps, points)
                    for k in points
                )
            return False
    return False


# --- readers of serialize's JSON forms ---


def _arity_from(v) -> Arity:
    if v == "nat":
        return NAT
    if isinstance(v, int):
        return fin(v)
    raise ParseError(f"bad arity {v!r}", 0, 0)


def signature_from_obj(obj: dict) -> Signature:
    return Signature(tuple(OpDecl(OpSym.parse(row["name"]), _arity_from(row["arity"])) for row in obj["ops"]))


def indexed_signature_from_obj(obj: dict) -> Signature:
    """The signature an indexed JSON form describes.  The form counts
    each operator's children per index, so they come back grouped by
    index, in the order the form lists the indices."""
    ops = []
    for row in obj["ops"]:
        child_sorts = tuple(ix for ix, n in row["arities"].items() for _ in range(n))
        ops.append(OpDecl(OpSym.parse(row["name"]), fin(len(child_sorts)), row["sort"], child_sorts))
    return Signature(tuple(ops), tuple(obj["indices"]))


def system_from_obj(obj: dict) -> SystemOfEquations:
    eqs = []
    for row in obj["equations"]:
        vars = row["vars"]
        if isinstance(vars, list):
            vars = tuple(vars)
        else:
            vars = _arity_from(vars)
        eqs.append(
            Equation(
                row["name"],
                vars,
                parse_term(row["lhs"]),
                parse_term(row["rhs"]),
                tuple(row["varSorts"]) if "varSorts" in row else None,
                row.get("sort"),
            )
        )
    return SystemOfEquations(tuple(eqs))


# --- derivation replay against the rule grammar ---

_STR = "S"
_ELT = "E"
_EQN = "Q"

_RULE_CLASS = {
    "ConstantParameter": _STR,
    "InductiveArgument": _STR,
    "StrictlyPositiveFunction": _STR,
    "StrictlyPositiveProduct": _STR,
    "Target": _ELT,
    "ElArgument": _ELT,
    "ElCon": _ELT,
    "EqTarget": _EQN,
    "EqArg": _EQN,
    "EqCon": _EQN,
}

_PREMISE_SHAPE = {
    "ConstantParameter": (),
    "InductiveArgument": (),
    "StrictlyPositiveFunction": (_STR,),
    "StrictlyPositiveProduct": (_STR, _STR),
    "Target": (),
    "ElArgument": (_STR, _ELT),
    "ElCon": (_ELT,),
    "EqTarget": (),
    "EqArg": (_STR, _EQN),
    "EqCon": (_EQN,),
}


def _validate_tree(d: Derivation) -> None:
    if d.rule not in _RULE_CLASS:
        raise QitError(f"unknown rule {d.rule}")
    shape = _PREMISE_SHAPE[d.rule]
    if len(d.premises) != len(shape):
        raise QitError(f"{d.rule} expects {len(shape)} premises, found {len(d.premises)}")
    for want, p in zip(shape, d.premises):
        if _RULE_CLASS[p.rule] != want:
            raise QitError(f"{d.rule} premise {p.rule} is in the wrong rule family")
        _validate_tree(p)


def replay(decl: QitDecl, report: DeclReport) -> bool:
    """Re-run the checker and confirm the recorded derivations survive.

    Every recorded Accept must be a well-formed tree under the rule
    grammar (malformed trees raise), and re-checking the declaration
    must reproduce the report exactly.
    """
    for _, j in report.element + report.equality:
        if isinstance(j, Accept):
            _validate_tree(j.derivation)
    return check_decl(decl) == report
