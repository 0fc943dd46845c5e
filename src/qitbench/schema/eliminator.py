"""Eliminator signatures derived from declarations.

Each element constructor becomes an induction step whose recursive
arguments carry the motive alongside the value (the pair type
``(xs : Q) * P xs``); each equality constructor becomes a coherence
hypothesis equating the two ways of folding its endpoints.  Hypothesis
names are the constructor names primed.  Anonymous binders are given
deterministic names: x y z u v for parameters, xs ys zs for recursive
arguments, f g h for countable families.
"""

from __future__ import annotations

from typing import NamedTuple

from ..errors import QitError
from ..records import tagged
from .ast import (
    EqT,
    QitDecl,
    TApp,
    TVar,
    TermAst,
    show_term_ast,
    show_type,
)
from .elaborate import _classify, _resolve_binders, _spine


def _named_args(ctor, decl):
    raw, target = _spine(ctor.type)
    return _resolve_binders(_classify(b, d, decl) for b, d in raw), target


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

    steps = []
    for ctor in decl.element_ctors:
        args, target = _named_args(ctor, decl)
        pieces = []
        applied = []  # arguments of the target's constructor application
        for a in args:
            if a.kind == "const":
                pieces.append(f"({a.binder} : {show_type(a.dom)})")
                applied.append(a.binder)
            elif a.kind == "index":
                pieces.append(f"({a.binder} : Nat)")
                applied.append(a.binder)
            elif a.kind == "q":
                inner = a.dom.index if indexed else None
                pieces.append(f"({a.binder}' : ({a.binder} : {qty(inner)}) * {motive_app(inner, a.binder)})")
                applied.append(f"(fst {a.binder}')")
            elif a.kind == "natfam":
                inner = a.dom.codomain.index if indexed else None
                pieces.append(f"({a.binder}' : Nat -> ({a.binder} : {qty(inner)}) * {motive_app(inner, a.binder)})")
                applied.append(f"(fst . {a.binder}')")
            else:
                raise QitError(f"{ctor.name}.{a.binder}: unsupported argument in an eliminator")
        call = " ".join([ctor.name] + applied) if applied else ctor.name
        ty = " -> ".join(pieces + [motive_app(target.index if indexed else None, call)])
        steps.append((f"{ctor.name}'", ty))

    coherences = []
    for ctor in decl.equality_ctors:
        args, target = _named_args(ctor, decl)
        if not isinstance(target, EqT):
            raise QitError(f"{ctor.name} does not end in an equation")
        pieces = []
        for a in args:
            if a.kind == "q":
                inner = a.dom.index if indexed else None
                pieces.append(f"({a.binder}' : ({a.binder} : {qty(inner)}) * {motive_app(inner, a.binder)})")
            elif a.kind == "natfam":
                inner = a.dom.codomain.index if indexed else None
                pieces.append(f"({a.binder}' : Nat -> ({a.binder} : {qty(inner)}) * {motive_app(inner, a.binder)})")
            elif a.kind == "index":
                pieces.append(f"({a.binder} : Nat)")
            else:
                pieces.append(f"({a.binder} : {show_type(a.dom)})")
        kinds = {a.binder: a.kind for a in args}
        lhs, rhs = _hat(target.lhs, kinds, decl), _hat(target.rhs, kinds, decl)
        ty = " -> ".join(pieces + [f"{lhs} == {rhs}"])
        coherences.append((f"{ctor.name}'", ty))

    hyps = " ".join(h for h, _ in steps + coherences)
    elim = f"{q}elim"
    computation = []
    for ctor in decl.element_ctors:
        args, target = _named_args(ctor, decl)
        pattern = " ".join([ctor.name] + [a.binder for a in args])
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
        rhs = " ".join([f"{ctor.name}'"] + rhs_args) if rhs_args else f"{ctor.name}'"
        computation.append(f"{' '.join(lhs_parts)} = {rhs}")

    return EliminatorSignature(elim, motive, tuple(steps), tuple(coherences), conclusion, tuple(computation))


def _hat(u: TermAst, kinds: dict[str, str], decl: QitDecl) -> str:
    """Endpoint with constructors replaced by their induction hypotheses;
    recursive subterms become (value, folded value) pairs.  kinds maps
    each binder of the equality constructor to its argument's kind."""
    match u:
        case TVar(n) if kinds.get(n) == "q" or decl.element(n) is not None:
            return f"{n}'"
        case TApp(head, sub) if decl.element(head) is not None:
            ctor_args, _ = _named_args(decl.element(head), decl)
            parts = [f"{head}'"]
            for a, g in zip(ctor_args, sub):
                if a.kind == "q":
                    parts.append(_pairarg(g, kinds, decl))
                elif a.kind == "natfam":
                    parts.append(_hatfam(g, kinds))
                else:
                    parts.append(_atom(show_term_ast(g)))
            return " ".join(parts)
    raise QitError(f"cannot fold endpoint {u!r}")


def _strip(u: TermAst, kinds: dict[str, str], decl: QitDecl) -> str:
    match u:
        case TVar(n) if kinds.get(n) == "q":
            return f"fst {n}'"
        case TVar(n) if kinds.get(n) == "natfam":
            return f"fst . {n}'"
        case TVar(n):
            return n
        case TApp("comp", (f, TVar(m))) if kinds.get(m) == "map":
            return f"{_strip(f, kinds, decl)} . {m}"
        case TApp(head, sub) if decl.element(head) is not None:
            ctor_args, _ = _named_args(decl.element(head), decl)
            parts = [head]
            for a, g in zip(ctor_args, sub):
                parts.append(_atom(_strip(g, kinds, decl) if a.kind in ("q", "natfam") else show_term_ast(g)))
            return " ".join(parts)
    raise QitError(f"cannot fold endpoint {u!r}")


def _pairarg(u: TermAst, kinds: dict[str, str], decl: QitDecl) -> str:
    if isinstance(u, TVar) and kinds.get(u.name) == "q":
        return f"{u.name}'"
    return f"({_strip(u, kinds, decl)}, {_hat(u, kinds, decl)})"


def _hatfam(u: TermAst, kinds: dict[str, str]) -> str:
    match u:
        case TVar(n) if kinds.get(n) == "natfam":
            return f"{n}'"
        case TApp("comp", (f, TVar(m))) if kinds.get(m) == "map":
            return f"({_hatfam(f, kinds)} . {m})"
    raise QitError(f"cannot fold child family {u!r}")
