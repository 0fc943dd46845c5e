"""Algebras over a signature and evaluation of terms into them.

Carrier values are ordinary hashable Python data: strings (atoms), ints
(naturals), tuples, and terms.  An algebra interprets finitary operators
through tables and countable operators through named rules that receive
the child family as a callable.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Mapping, Optional, Sequence, Union

from .errors import InfeasibleExhaustive, PartialAlgebra, UnboundVariable
from .terms import (
    Comp,
    IxVar,
    Node,
    OpSym,
    Side,
    Signature,
    SystemOfEquations,
    Term,
    Var,
    compile_side,
    instantiate_comp,
)

Value = Union[str, int, tuple, Term]


@dataclass(eq=False)
class Algebra:
    """carrier None means the term algebra style open-ended carrier."""

    sig: Signature
    carrier: Optional[tuple[Value, ...]] = None
    tables: Mapping[OpSym, Mapping[tuple, Value]] = field(default_factory=dict)
    rules: Mapping[OpSym, Callable[[Callable[[int], Value]], Value]] = field(default_factory=dict)

    @cached_property
    def _tabulated(self) -> dict[OpSym, Mapping[tuple, Value]]:
        return {d.op: self.tables[d.op] for d in self.sig.ops if d.arity.finite and d.op in self.tables}

    def table_for(self, op: OpSym) -> Optional[Mapping[tuple, Value]]:
        """The table interp applies to op: its entry in tables when op is
        a declared finitary operator, None when interp turns to a rule or
        rejects op."""
        return self._tabulated.get(op)

    def interp(self, op: OpSym, args) -> Value:
        table = self.table_for(op)
        if table is not None:
            args = tuple(args)
            try:
                return table[args]
            except KeyError:
                raise PartialAlgebra(f"{op.show()} has no table entry for {args!r}")
        if self.sig.decl(op).arity.finite:
            raise PartialAlgebra(f"no interpretation for {op.show()}")
        rule = self.rules.get(op)
        if rule is None:
            raise PartialAlgebra(f"no rule for countable operator {op.show()}")
        return rule(args)


def _evaluator(alg: Algebra, side: Side) -> Callable[[Sequence[Value]], Value]:
    """Evaluate side under the values of its variables, as one
    post-order pass over its compiled steps.  A node over a table of
    children applies the table interp would (Algebra.table_for), a
    missing entry raising through interp, and calls interp when there is
    none; a node over a comprehension hands interp the child
    family, the k-th child being the comprehension instantiated at k and
    evaluated under the same variables."""
    interp, nvars = alg.interp, len(side.names)
    prog = [(t, None, None) if op is None else (op, alg.table_for(op), kids)
            for op, kids, t in side.steps]

    def run(values: Sequence[Value]) -> Value:
        regs = list(values)
        for op, table, kids in prog:
            if kids is None:
                regs.append(_special(alg, op, side.names, regs[:nvars]))
                continue
            args = tuple([regs[k] for k in kids])
            if table is None:
                regs.append(interp(op, args))
                continue
            try:
                regs.append(table[args])
            except KeyError:
                regs.append(interp(op, args))
        return regs[side.out]

    return run


def _special(alg: Algebra, t: Term, names: tuple[str, ...], values: list[Value]) -> Value:
    """The value of a step that no register holds: an unbound variable
    or an index variable raises, and a node over a comprehension passes
    interp the family of its instantiated children.  No command reaches
    it yet: elaboration makes such sides only for countable operators,
    which every command but check and elaborate refuses; ROADMAP item 9,
    which runs them, needs it."""
    match t:
        case Var(name):
            raise UnboundVariable(f"unbound variable {name!r}")
        case IxVar(_):
            raise UnboundVariable("index variable outside a comprehension")
        case Node(op, Comp(_, _) as comp):
            return alg.interp(
                op, lambda k: _evaluator(alg, compile_side(instantiate_comp(comp, k), names))(values)
            )
    raise TypeError(f"not a term: {t!r}")


@dataclass(frozen=True)
class SatReport:
    status: str  # SATISFIED | VIOLATED
    checked: int
    witness_eq: Optional[str] = None
    witness_env: Optional[tuple[tuple[str, Value], ...]] = None

    @property
    def ok(self) -> bool:
        return self.status != "VIOLATED"


def satisfies(alg: Algebra, sys: SystemOfEquations) -> SatReport:
    """Check every equation under every environment, each side compiled
    once (terms.compile_side) and evaluated per environment.

    This requires a finite carrier and finite variable families.
    """
    if alg.carrier is None:
        raise InfeasibleExhaustive("satisfaction needs an enumerated carrier")
    carrier = alg.carrier
    checked = 0
    for eq in sys.equations:
        names = eq.var_names()
        if names is None:
            raise InfeasibleExhaustive(f"equation {eq.name} has a countable variable family")
        lhs = _evaluator(alg, compile_side(eq.lhs, names))
        rhs = _evaluator(alg, compile_side(eq.rhs, names))
        for combo in itertools.product(carrier, repeat=len(names)):
            checked += 1
            if lhs(combo) != rhs(combo):
                return SatReport("VIOLATED", checked, eq.name, tuple(dict(zip(names, combo)).items()))
    return SatReport("SATISFIED", checked)
