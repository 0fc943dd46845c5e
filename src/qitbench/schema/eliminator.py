"""Eliminator signatures derived from declarations.

Each element constructor becomes an induction step whose recursive
arguments carry the motive alongside the value (the pair type
``(xs : Q) * P xs``); each equality constructor becomes a coherence
hypothesis equating the two ways of folding its endpoints.  Hypothesis
names are the constructor names primed.  Anonymous binders are given
deterministic names: x y z u v for parameters, xs ys zs for recursive
arguments, f g h for countable families.

The constructors are read by elaborate's checked reader, so a
declaration that check rejects, or whose element constructor takes a
map argument, is refused with elaborate's message.
"""

from __future__ import annotations

from typing import Mapping, NamedTuple

from ..errors import QitError
from ..records import tagged
from .ast import (
    QitDecl,
    TVar,
    TermAst,
    show_term_ast,
    show_type,
)
from .elaborate import _Spine, _application, _family_chain, _read_checked, _resolve_binders


def _atom(s: str) -> str:
    return f"({s})" if " " in s and not (s.startswith("(") and s.endswith(")")) else s


@tagged
class EliminatorSignature(NamedTuple):
    name: str
    motive: str
    steps: tuple[tuple[str, str], ...]
    coherences: tuple[tuple[str, str], ...]
    conclusion: str
    computation: tuple[str, ...]

    def render(self) -> str:
        lines = [f"{self.name} :", f"  ({self.motive})"]
        for hyp, ty in self.steps + self.coherences:
            lines.append(f"  ({hyp} : {ty})")
        lines.append(f"  -> {self.conclusion}")
        lines.append("")
        lines.extend(self.computation)
        return "\n".join(lines) + "\n"


def derive_eliminator(decl: QitDecl) -> EliminatorSignature:
    # No command prints the eliminator yet: printing it needs an output
    # flag (say elaborate --eliminator, with fixtures/tables/bagelim.txt
    # as its golden), which is a feature of its own.  Until then
    # tests/test_schema.py is its reader.
    elements, equalities = _read_checked(decl)
    elements = {name: (_resolve_binders(args), target) for name, (args, target) in elements.items()}
    indexed = decl.index_sort is not None
    q = decl.name
    motive = f"P : (i : Nat) -> {q} i -> Set" if indexed else f"P : {q} -> Set"
    conclusion = f"(i : Nat) -> (q : {q} i) -> P i q" if indexed else f"(q : {q}) -> P q"

    def qty(ix: TermAst | None) -> str:
        return f"{q} {_atom(show_term_ast(ix))}" if indexed else q

    def motive_app(ix: TermAst | None, value: str) -> str:
        if indexed:
            return f"P {_atom(show_term_ast(ix))} {_atom(value)}"
        return f"P {_atom(value)}"

    def hypothesis(a) -> str:
        """A recursive argument or family paired with its motive."""
        if a.kind == "q":
            inner = a.dom.index if indexed else None
            return f"({a.binder}' : ({a.binder} : {qty(inner)}) * {motive_app(inner, a.binder)})"
        inner = a.dom.codomain.index if indexed else None
        return f"({a.binder}' : Nat -> ({a.binder} : {qty(inner)}) * {motive_app(inner, a.binder)})"

    steps = []
    for name, (args, target) in elements.items():
        pieces = []
        applied = []  # arguments of the target's constructor application
        for a in args:
            if a.kind == "const":
                pieces.append(f"({a.binder} : {show_type(a.dom)})")
                applied.append(a.binder)
            elif a.kind == "index":
                pieces.append(f"({a.binder} : Nat)")
                applied.append(a.binder)
            else:
                pieces.append(hypothesis(a))
                applied.append(f"(fst {a.binder}')" if a.kind == "q" else f"(fst . {a.binder}')")
        call = " ".join([name] + applied) if applied else name
        ty = " -> ".join(pieces + [motive_app(target.index if indexed else None, call)])
        steps.append((f"{name}'", ty))

    coherences = []
    for name, (args, target) in equalities.items():
        args = _resolve_binders(args)
        pieces = []
        for a in args:
            if a.kind in ("q", "natfam"):
                pieces.append(hypothesis(a))
            elif a.kind == "index":
                pieces.append(f"({a.binder} : Nat)")
            else:
                pieces.append(f"({a.binder} : {show_type(a.dom)})")
        kinds = {a.binder: a.kind for a in args}
        lhs, rhs = _hat(target.lhs, kinds, elements), _hat(target.rhs, kinds, elements)
        ty = " -> ".join(pieces + [f"{lhs} == {rhs}"])
        coherences.append((f"{name}'", ty))

    hyps = " ".join(h for h, _ in steps + coherences)
    elim = f"{q}elim"
    computation = []
    for name, (args, target) in elements.items():
        pattern = " ".join([name] + [a.binder for a in args])
        pattern = f"({pattern})" if args else pattern
        lhs_parts = [elim, hyps]
        if indexed:
            lhs_parts.append(_atom(show_term_ast(target.index)))
        lhs_parts.append(pattern)
        rhs_args = []
        for a in args:
            if a.kind in ("const", "index"):
                rhs_args.append(a.binder)
            elif a.kind == "q":
                rec = [elim, hyps]
                if indexed:
                    rec.append(_atom(show_term_ast(a.dom.index)))
                rec.append(a.binder)
                rhs_args.append(f"({a.binder}, {' '.join(rec)})")
            else:
                rec = " ".join([elim, hyps])
                rhs_args.append(f"(\\n. ({a.binder} n, {rec} ({a.binder} n)))")
        rhs = " ".join([f"{name}'"] + rhs_args) if rhs_args else f"{name}'"
        computation.append(f"{' '.join(lhs_parts)} = {rhs}")

    return EliminatorSignature(elim, motive, tuple(steps), tuple(coherences), conclusion, tuple(computation))


def _hat(u: TermAst, kinds: dict[str, str], elements: Mapping[str, _Spine]) -> str:
    """Endpoint with constructors replaced by their induction hypotheses;
    recursive subterms become (value, folded value) pairs.  kinds maps
    each binder of the equality constructor to its argument's kind."""
    if isinstance(u, TVar) and kinds.get(u.name) == "q":
        return f"{u.name}'"
    app = _application(u, elements)
    if app is None:
        raise QitError(f"cannot fold endpoint {u!r}")
    name, args, _, given = app
    parts = [f"{name}'"]
    for a, g in zip(args, given):
        if a.kind == "q":
            parts.append(_pairarg(g, kinds, elements))
        elif a.kind == "natfam":
            chain = _family_chain(g, kinds)
            if chain is None:
                raise QitError(f"cannot fold child family {g!r}")
            fam = f"{chain[0]}'"
            for m in chain[1]:
                fam = f"({fam} . {m})"
            parts.append(fam)
        else:
            parts.append(_atom(show_term_ast(g)))
    return " ".join(parts)


def _strip(u: TermAst, kinds: dict[str, str], elements: Mapping[str, _Spine]) -> str:
    """Endpoint with each recursive variable or family read off its pair."""
    if isinstance(u, TVar) and kinds.get(u.name) == "q":
        return f"fst {u.name}'"
    chain = _family_chain(u, kinds)
    if chain is not None:
        return " . ".join([f"fst . {chain[0]}'", *chain[1]])
    app = _application(u, elements)
    if app is None:
        raise QitError(f"cannot fold endpoint {u!r}")
    name, args, _, given = app
    parts = [name]
    for a, g in zip(args, given):
        parts.append(_atom(_strip(g, kinds, elements) if a.kind in ("q", "natfam") else show_term_ast(g)))
    return " ".join(parts)


def _pairarg(u: TermAst, kinds: dict[str, str], elements: Mapping[str, _Spine]) -> str:
    if isinstance(u, TVar) and kinds.get(u.name) == "q":
        return f"{u.name}'"
    return f"({_strip(u, kinds, elements)}, {_hat(u, kinds, elements)})"
