"""Algebras over a signature and evaluation of terms into them.

Carrier values are ordinary hashable Python data: strings (atoms), ints
(naturals), tuples, and terms.  An algebra interprets finitary operators
through tables or a fallback function and countable operators through
named rules that receive the child family as a callable.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional, Sequence, Union

from .errors import InfeasibleExhaustive, PartialAlgebra, UnboundVariable
from .terms import (
    Comp,
    IndexMap,
    IxVar,
    Node,
    OpSym,
    Signature,
    SystemOfEquations,
    Tab,
    Term,
    Var,
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
    fn: Optional[Callable[[OpSym, tuple], Value]] = None

    def interp(self, op: OpSym, args) -> Value:
        decl = self.sig.decl(op)
        if decl.arity.finite:
            args = tuple(args)
            table = self.tables.get(op)
            if table is not None:
                try:
                    return table[args]
                except KeyError:
                    raise PartialAlgebra(f"{op.show()} has no table entry for {args!r}")
            if self.fn is not None:
                return self.fn(op, args)
            raise PartialAlgebra(f"no interpretation for {op.show()}")
        rule = self.rules.get(op)
        if rule is None:
            raise PartialAlgebra(f"no rule for countable operator {op.show()}")
        return rule(args)

    @classmethod
    def from_fn(cls, sig: Signature, carrier: Sequence[Value], fn: Callable[[OpSym, tuple], Value]) -> "Algebra":
        """Tabulate fn over the carrier for every finitary operator."""
        carrier = tuple(carrier)
        import itertools

        tables = {}
        for decl in sig.ops:
            if not decl.arity.finite:
                continue
            pools = [carrier] * decl.arity.count
            tables[decl.op] = {args: fn(decl.op, args) for args in itertools.product(*pools)}
        return cls(sig, carrier, tables, {})


def term_algebra(sig: Signature) -> Algebra:
    return Algebra(sig, None, {}, {}, lambda op, args: Node(op, Tab(args)))


Env = Union[Mapping[str, Value], Callable[[str], Value]]


def _lookup(env: Env, name: str) -> Value:
    if callable(env):
        return env(name)
    if name not in env:
        raise UnboundVariable(f"unbound variable {name!r}")
    return env[name]


def bind(t: Term, env: Env, alg: Algebra, *, maps: Mapping[str, IndexMap] | None = None) -> Value:
    """Evaluate a term under a variable environment.

    Children of countable operators are passed to the operator's rule as
    the callable k -> value of the k-th instantiated child.
    """
    match t:
        case Var(name):
            return _lookup(env, name)
        case IxVar(_):
            raise UnboundVariable("index variable outside a comprehension")
        case Node(op, Tab(entries)):
            return alg.interp(op, tuple(bind(c, env, alg, maps=maps) for c in entries))
        case Node(op, Comp(_, _) as comp):
            return alg.interp(op, lambda k: bind(instantiate_comp(comp, k, maps), env, alg, maps=maps))
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


def satisfies(
    alg: Algebra,
    sys: SystemOfEquations,
    *,
    maps: Mapping[str, IndexMap] | None = None,
) -> SatReport:
    """Check every equation under every environment.

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
        for combo in itertools.product(carrier, repeat=len(names)):
            env = dict(zip(names, combo))
            checked += 1
            if bind(eq.lhs, env, alg, maps=maps) != bind(eq.rhs, env, alg, maps=maps):
                return SatReport("VIOLATED", checked, eq.name, tuple(env.items()))
    return SatReport("SATISFIED", checked)
