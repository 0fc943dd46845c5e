"""Expected outputs for the benchmark's jobs, computed without qitbench.

Terms are read back from the text the CLI prints, ``(op cons a (op nil))``,
and compared through canonical forms computed here: a multiset of labels
for bags and the commutative monoid, a sorted-children tree for unordered
binary trees.  Class counts come from closed forms.  Nothing in this
module imports qitbench, so a fault in the library cannot hide in its
own reference.

Each ``expect_*`` function returns a checker ``(exit_code, stdout) ->
reason or None``; None means the output is right.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from math import comb
from pathlib import Path
from typing import Callable, Hashable, Optional, Sequence

Checker = Callable[[int, str], Optional[str]]

# A term as printed: ("var", name, ()) for a variable, otherwise
# (label, children) with label the operator's display name ("cons a @2").
Term = tuple


# --- reading and printing terms ---

_TOKEN = re.compile(r"\(|\)|[^\s()]+")


def read_term(text: str) -> Term:
    tokens = _TOKEN.findall(text)
    pos = 0

    def form() -> Term:
        nonlocal pos
        if tokens[pos] != "(":
            raise ValueError(f"expected '(' in {text!r}")
        head = tokens[pos + 1]
        pos += 2
        if head == "var":
            name = tokens[pos]
            pos += 2  # name and ')'
            return ("var", name, ())
        if head != "op":
            raise ValueError(f"unexpected form {head!r} in {text!r}")
        label: list[str] = []
        while tokens[pos] not in ("(", ")"):
            label.append(tokens[pos])
            pos += 1
        children = []
        while tokens[pos] == "(":
            children.append(form())
        pos += 1
        return (" ".join(label), tuple(children))

    term = form()
    if pos != len(tokens):
        raise ValueError(f"trailing text in {text!r}")
    return term


def show(t: Term) -> str:
    label, children = t
    return "(op " + label + "".join(" " + show(c) for c in children) + ")"


def _is_var(t: Term) -> bool:
    return len(t) == 3


# --- canonical forms (variables allowed, so equations can be checked) ---


def bag_canon(t: Term) -> Hashable:
    """Sorted cons labels plus the spine's end (nil or a variable).
    Indexed spines (``cons a @2``) drop the index tag."""
    labels = []
    while not _is_var(t) and t[0].split()[0] == "cons":
        labels.append(t[0].split()[1])
        t = t[1][0]
    end = t[1] if _is_var(t) else t[0].split()[0]
    return (tuple(sorted(labels)), end)


def tree_canon(t: Term) -> Hashable:
    if _is_var(t):
        return ("var", t[1])
    label, children = t
    if label == "node":
        return ("node",) + tuple(sorted((tree_canon(c) for c in children), key=repr))
    return (label,)


def monoid_canon(t: Term) -> Hashable:
    def atoms(u: Term) -> Counter:
        if _is_var(u):
            return Counter({"var " + u[1]: 1})
        label, children = u
        if label == "nil":
            return Counter()
        if label == "union":
            return atoms(children[0]) + atoms(children[1])
        return Counter({label.split()[1]: 1})  # "sgl x"

    return tuple(sorted(atoms(t).elements()))


def _tree_leaves(t: Term) -> int:
    return 1 if not t[1] else sum(_tree_leaves(c) for c in t[1])


# --- closed forms ---


def bag_classes(k: int, d: int) -> int:
    """Multisets of at most d-1 labels over k atoms."""
    return comb(d - 1 + k, k)


def tree_classes(k: int, d: int) -> int:
    """Unordered binary trees over k leaf labels, depth at most d:
    U(1) = k, U(d) = k + C(U(d-1) + 1, 2)."""
    u = k
    for _ in range(d - 1):
        u = k + comb(u + 1, 2)
    return u


def monoid1_classes(d: int) -> int:
    """The one-atom free commutative monoid: sizes 0 .. 2^(d-1)."""
    return 2 ** (d - 1) + 1


def commvec_classes(k: int, d: int, prefix: int) -> int:
    return sum(comb(i + k - 1, i) for i in range(min(prefix, d - 1) + 1))


def size_members(h: int) -> int:
    """Size trees over zero and join of height at most h."""
    m = 1
    for _ in range(h - 1):
        m = 1 + m * m
    return m


# --- the declarations the benchmark runs ---


@dataclass(frozen=True)
class Model:
    type_name: str
    ctors: int
    # (label, sort, child sorts); sort None when the declaration is unindexed
    ops: Optional[Callable[[Sequence[str], int], list[tuple[str, Optional[int], tuple]]]]
    eq_names: Callable[[Sequence[str], int], set[str]]
    canon: Optional[Callable[[Term], Hashable]]
    classes: Optional[Callable[[Sequence[str], int, int], int]]


def _bag_ops(atoms, prefix):
    return [("nil", None, ())] + [(f"cons {x}", None, (None,)) for x in atoms]


def _commvec_ops(atoms, prefix):
    ops = [("nil @0", 0, ())]
    for i in range(1, prefix + 1):
        ops += [(f"cons {x} @{i}", i, (i - 1,)) for x in atoms]
    return ops


def _tree_ops(atoms, prefix):
    return [(f"leaf {x}", None, ()) for x in atoms] + [("node", None, (None, None))]


def _monoid_ops(atoms, prefix):
    return [("nil", None, ())] + [(f"sgl {x}", None, ()) for x in atoms] + [
        ("union", None, (None, None))
    ]


def _monoid_classes(atoms, d, prefix):
    if len(atoms) != 1:
        raise ValueError("closed form known for one atom only")
    return monoid1_classes(d)


MODELS = {
    "bag": Model("Bag", 3, _bag_ops,
                 lambda atoms, p: {f"swap {x} {y}" for x in atoms for y in atoms},
                 bag_canon, lambda atoms, d, p: bag_classes(len(atoms), d)),
    "commvec": Model("CommVec", 3, _commvec_ops,
                     lambda atoms, p: {f"swap {x} {y} @{i}" for x in atoms for y in atoms
                                       for i in range(2, p + 1)},
                     bag_canon, lambda atoms, d, p: commvec_classes(len(atoms), d, p)),
    "inftree": Model("InfTree", 3, None,
                     lambda atoms, p: {f"perm {x} {m}" for x in atoms for m in ("id", "tr01")},
                     None, None),
    "commtree": Model("CT", 3, _tree_ops, lambda atoms, p: {"comm"},
                      tree_canon, lambda atoms, d, p: tree_classes(len(atoms), d)),
    "cmon": Model("M", 6, _monoid_ops, lambda atoms, p: {"unitl", "comm", "assoc"},
                  monoid_canon, _monoid_classes),
}

# Fixtures the checker must refuse, with the rule it must name.
REJECTIONS = {
    "bagprime": ("Bag", "ConditionalEquation"),
    "qleft": ("T", "StrictlyPositiveFunction"),
    "qparam": ("T", "ConstantParameter"),
    "qsigma": ("T", "StrictlyPositiveProduct"),
}

EXAMPLES = ("bag", "commvec", "inftree", "wsusp", "wred", "blass")

# Fold measures: what the algebra files compute, on a canonical form.
MEASURES = {
    "bag_length": (lambda t: len(bag_canon(t)[0]), 3),
    "commtree_leaves": (_tree_leaves, 4),
    "cmon_size": (lambda t: len(monoid_canon(t)), 4),
}


def enumerate_terms(model: Model, atoms: Sequence[str], depth: int, prefix: int = 0) -> list[Term]:
    """Every closed term of depth at most ``depth``, level by level."""
    ops = model.ops(atoms, prefix)
    sort_of: dict[Term, Optional[int]] = {}
    for _ in range(depth):
        known = list(sort_of.items())
        level: dict[Term, Optional[int]] = {}
        for label, sort, child_sorts in ops:
            pools = [[t for t, s in known if s == want] for want in child_sorts]
            combos: list[tuple] = [()]
            for pool in pools:
                combos = [c + (t,) for c in combos for t in pool]
            for c in combos:
                level[(label, c)] = sort
        sort_of.update(level)
    return list(sort_of)


# --- checkers, one per command ---


def _expect_rc(rc: int, want: int) -> Optional[str]:
    return None if rc == want else f"exit code {rc}, expected {want}"


def expect_check(fixture: str) -> Checker:
    if fixture in REJECTIONS:
        name, rule = REJECTIONS[fixture]
        head, rc_want = f"{name}: REJECT", 1
    else:
        model = MODELS[fixture]
        name, rule = model.type_name, None
        head, rc_want = f"{name}: ACCEPT", 0

    def check(rc: int, out: str) -> Optional[str]:
        lines = out.splitlines()
        if not lines or lines[0] != head:
            return f"first line {lines[:1]}, expected {head!r}"
        if rule is None:
            ctors = sum(1 for l in lines if l.startswith(("  ElCon ", "  EqCon ")))
            if ctors != model.ctors:
                return f"{ctors} constructors judged, expected {model.ctors}"
        else:
            rejects = [l for l in lines if l.startswith("  REJECT ")]
            if len(rejects) != 1 or not rejects[0].startswith(f"  REJECT {rule} at "):
                return f"rejections {rejects}, expected one by {rule}"
        return _expect_rc(rc, rc_want)

    return check


def expect_elaborate(decl: str, atoms: Sequence[str], prefix: int = 0) -> Checker:
    model = MODELS[decl]
    if model.ops is None:
        want_ops = {"op leaf : 0"} | {f"op node {x} : countable" for x in atoms}
    elif decl == "commvec":
        want_ops = {f"indices: {' '.join(str(i) for i in range(prefix + 1))}"} | {
            f"op {label} : {sort}" + (" <- " + " ".join(f"{s}*1" for s in kids) if kids else "")
            for label, sort, kids in model.ops(atoms, prefix)
        }
    else:
        want_ops = {f"op {label} : {len(kids)}" for label, _, kids in model.ops(atoms, prefix)}
    want_eqs = model.eq_names(atoms, prefix)

    def check(rc: int, out: str) -> Optional[str]:
        lines = out.splitlines()
        eqs = [l for l in lines if l.startswith("eq ")]
        ops = set(lines) - set(eqs)
        if ops != want_ops or len(ops) + len(eqs) != len(lines):
            return f"operators {sorted(ops)}, expected {sorted(want_ops)}"
        names = [l[3:].split(" : ", 1)[0] for l in eqs]
        if sorted(names) != sorted(want_eqs):
            return f"equations {names}, expected {sorted(want_eqs)}"
        if model.canon is not None:
            for l in eqs:
                lhs, rhs = l.split(" : ", 1)[1].split(" = ")
                if model.canon(read_term(lhs)) != model.canon(read_term(rhs)):
                    return f"equation does not hold in the reference model: {l}"
        return _expect_rc(rc, 0)

    return check


def expect_enum(decl: str, atoms: Sequence[str], depth: int, prefix: int = 0) -> Checker:
    want = sorted(show(t) for t in enumerate_terms(MODELS[decl], atoms, depth, prefix))

    def check(rc: int, out: str) -> Optional[str]:
        got = sorted(out.splitlines())
        if got != want:
            return f"{len(got)} terms listed, expected the {len(want)} of depth <= {depth}"
        return _expect_rc(rc, 0)

    return check


def expect_eq(decl: str, lhs: str, rhs: str) -> Checker:
    canon = MODELS[decl].canon
    equal = canon(read_term(lhs)) == canon(read_term(rhs))
    verdict = "EQUAL" if equal else "DISTINCT"

    def check(rc: int, out: str) -> Optional[str]:
        if out != verdict + "\n":
            return f"verdict {out.strip()!r}, expected {verdict}"
        return _expect_rc(rc, 0 if equal else 1)

    return check


def _class_lines(model: Model, out_lines: list[str], classes: int, value: Callable[[Term], object]):
    """Lines ``<canonical term> -> <value>``, one per class."""
    if len(out_lines) != classes:
        return f"{len(out_lines)} class lines, expected {classes}"
    seen = set()
    for line in out_lines:
        term_text, _, got = line.rpartition(" -> ")
        t = read_term(term_text)
        key = model.canon(t)
        if key in seen:
            return f"two classes print the same canonical form {term_text}"
        seen.add(key)
        if got != str(value(t)):
            return f"{term_text} -> {got}, expected {value(t)}"
    return None


def expect_fold(decl: str, atoms: Sequence[str], depth: int, measure: str) -> Checker:
    model = MODELS[decl]
    fn, cap = MEASURES[measure]
    classes = model.classes(atoms, depth, 0)

    def check(rc: int, out: str) -> Optional[str]:
        lines = out.splitlines()
        if not lines or lines[-1] != "hom: ok":
            return f"last line {lines[-1:]}, expected 'hom: ok'"
        bad = _class_lines(model, lines[:-1], classes, lambda t: min(fn(t), cap))
        return bad or _expect_rc(rc, 0)

    return check


def expect_bag_parity(atoms: Sequence[str], depth: int) -> Checker:
    """elim on Bag with the parity eliminator (built in or from the
    fixture's step file): the value is the parity of the length."""
    model = MODELS["bag"]
    k = len(atoms)
    classes = bag_classes(k, depth)
    instances = k * k * sum(k**i for i in range(max(depth - 2, 0)))
    tail = f"qwcomp: ok ({instances} instances, {2 * instances} environments)"

    def parity(t: Term) -> str:
        return "odd" if len(bag_canon(t)[0]) % 2 else "even"

    def check(rc: int, out: str) -> Optional[str]:
        lines = out.splitlines()
        if not lines or lines[-1] != tail:
            return f"last line {lines[-1:]}, expected {tail!r}"
        bad = _class_lines(model, lines[:-1], classes, parity)
        return bad or _expect_rc(rc, 0)

    return check


def expect_construct(decl: str, atoms: Sequence[str], depth: int, height: int,
                     compare: bool, prefix: int = 0) -> Checker:
    model = MODELS[decl]
    classes = model.classes(atoms, depth, prefix)
    terms = len(enumerate_terms(model, atoms, depth, prefix))
    members = size_members(height)
    tail = [f"colimit: {classes} classes"]
    if compare:
        tail.append(f"oracle: bijection over {classes} classes (intro checked {terms})")
    stage = re.compile(r"stage \(sz [^:]*\): \d+")

    def check(rc: int, out: str) -> Optional[str]:
        lines = out.splitlines()
        if lines[-len(tail):] != tail:
            return f"closing lines {lines[-len(tail):]}, expected {tail}"
        stages = lines[: -len(tail)]
        if len(stages) != members:
            return f"{len(stages)} stage lines, expected one per size ({members})"
        for line in stages:
            if stage.fullmatch(line) is None:
                return f"bad stage line {line!r}"
        return _expect_rc(rc, 0)

    return check


def expect_examples(tables: Path, name: Optional[str]) -> Checker:
    """The listing names every entry in order; one entry prints its
    golden table byte for byte."""
    want = None if name is None else (tables / f"{name}.txt").read_text()

    def check(rc: int, out: str) -> Optional[str]:
        if want is None:
            names = tuple(l.split()[0] for l in out.splitlines() if l.strip())
            if names != EXAMPLES:
                return f"examples {names}, expected {EXAMPLES}"
        elif out != want:
            return f"table for {name} differs from {tables.name}/{name}.txt"
        return _expect_rc(rc, 0)

    return check
