"""JSON forms for signatures and equation systems, as elaborate
--format structured prints them.

Field order is fixed by construction order so equal inputs always dump
byte-identically.  Terms embed as their s-expression strings.  The
readers that take these forms back are in tests/oracles.py, where the
round trip is checked.
"""

from __future__ import annotations

import json
from typing import Union

from .sexpr import show_term
from .terms import Arity, Equation, IndexedSignature, Signature, SystemOfEquations


def _arity_json(a: Arity) -> Union[int, str]:
    return a.count if a.finite else "nat"


def signature_to_obj(sig: Signature) -> dict:
    ops = []
    for d in sig.ops:
        row: dict = {"name": d.op.show(), "arity": _arity_json(d.arity)}
        if d.sort is not None:
            row["sort"] = d.sort
        if d.child_sorts is not None:
            row["childSorts"] = list(d.child_sorts)
        ops.append(row)
    return {"ops": ops}


def indexed_signature_to_obj(isig: IndexedSignature) -> dict:
    ops = []
    for d in isig.ops:
        ops.append(
            {
                "name": d.op.show(),
                "sort": d.sort,
                "arities": {ix: _arity_json(a) for ix, a in d.arities},
            }
        )
    return {"indices": list(isig.indices), "ops": ops}


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
