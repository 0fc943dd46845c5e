"""JSON forms for signatures and equation systems, as elaborate
--format structured prints them.

Field order is fixed by construction order so equal inputs always dump
byte-identically.  Terms embed as their s-expression strings.  The
readers that take these forms back are in tests/oracles.py, where the
round trip is checked.
"""

from __future__ import annotations

import json
from collections import Counter
from typing import Union

from .sexpr import show_term
from .terms import Arity, Equation, Signature, SystemOfEquations


def _arity_json(a: Arity) -> Union[int, str]:
    return a.count if a.finite else "nat"


def signature_to_obj(sig: Signature) -> dict:
    """An indexed signature gives its indices and, per operator, the
    number of children taken at each index, in first-appearance order."""
    if sig.indices is not None:
        ops = [{"name": d.op.show(), "sort": d.sort, "arities": dict(Counter(d.child_sorts))}
               for d in sig.ops]
        return {"indices": list(sig.indices), "ops": ops}
    return {"ops": [{"name": d.op.show(), "arity": _arity_json(d.arity)} for d in sig.ops]}


def _vars_json(eq: Equation):
    if isinstance(eq.vars, Arity):
        return _arity_json(eq.vars)
    return list(eq.vars)


def system_to_obj(sys: SystemOfEquations) -> dict:
    eqs = []
    for e in sys.equations:
        row: dict = {
            "name": e.name,
            "vars": _vars_json(e),
            "lhs": show_term(e.lhs),
            "rhs": show_term(e.rhs),
        }
        if e.var_sorts is not None:
            row["varSorts"] = list(e.var_sorts)
        if e.sort is not None:
            row["sort"] = e.sort
        eqs.append(row)
    return {"equations": eqs}


def dumps(obj: dict) -> str:
    """obj as json.dumps(obj, indent=2) writes it, then a newline.  json
    indents through closures that call one another, a reference cycle on
    every call; _emit is module-level and hands json.dumps keys and scalars."""
    return _emit(obj, "\n") + "\n"


def _emit(obj, newline: str) -> str:
    """obj's JSON, newline breaking a line at obj's indent.  Keys are strings."""
    inner = newline + "  "
    if isinstance(obj, dict):
        items, ends = [json.dumps(k) + ": " + _emit(v, inner) for k, v in obj.items()], "{}"
    elif isinstance(obj, (list, tuple)):
        items, ends = [_emit(v, inner) for v in obj], "[]"
    else:
        return json.dumps(obj)
    if not items:
        return ends
    return ends[0] + inner + ("," + inner).join(items) + newline + ends[1]


def loads(text: str) -> dict:
    return json.loads(text)
