"""S-expression surface syntax for terms, index maps, and size literals.

    (var x)                    variable
    (op cons a (op nil))       operator node: name, parameter atoms, children
    (fun i <body>)             comprehension child of a countable operator
    (var (ix <expr>))          countable-family variable under a binder
    (bij b (0 1) (1 0) default i)   index map with exception table
    (sz join (sz zero) (sz zero))   size literal
"""

from __future__ import annotations

from typing import Optional

from .errors import ParseError
from .terms import (
    Comp,
    IndexExpr,
    IndexMap,
    IxApp,
    IxC,
    IxV,
    IxVar,
    Node,
    OpSym,
    Signature,
    Tab,
    Term,
    Var,
    mk_node,
)


def _tokenize(text: str) -> list[tuple[str, int, int]]:
    toks = []
    line, col = 1, 1
    i = 0
    while i < len(text):
        c = text[i]
        if c == "\n":
            line += 1
            col = 1
            i += 1
        elif c.isspace():
            col += 1
            i += 1
        elif c in "()":
            toks.append((c, line, col))
            col += 1
            i += 1
        else:
            j = i
            while j < len(text) and not text[j].isspace() and text[j] not in "()":
                j += 1
            toks.append((text[i:j], line, col))
            col += j - i
            i = j
    return toks


class _Reader:
    def __init__(self, text: str):
        self.toks = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def next(self):
        tok = self.peek()
        if tok is None:
            last = self.toks[-1] if self.toks else ("", 1, 1)
            raise ParseError("unexpected end of input", last[1], last[2])
        self.pos += 1
        return tok

    def expect(self, what: str):
        tok = self.next()
        if tok[0] != what:
            raise ParseError(f"expected {what!r}, got {tok[0]!r}", tok[1], tok[2])
        return tok

    def done(self):
        tok = self.peek()
        if tok is not None:
            raise ParseError(f"trailing input {tok[0]!r}", tok[1], tok[2])


def _form(r: _Reader) -> tuple[list, int, int]:
    """One parenthesized form as a nested list of atoms/sublists."""
    tok = r.expect("(")
    items: list = []
    while True:
        nxt = r.peek()
        if nxt is None:
            raise ParseError("unclosed form", tok[1], tok[2])
        if nxt[0] == ")":
            r.next()
            return items, tok[1], tok[2]
        if nxt[0] == "(":
            items.append(_form(r))
        else:
            items.append(r.next())


def _is_numeral(text) -> bool:
    """An atom of ASCII digits: str.isdigit alone also admits '²' and '٣'."""
    return isinstance(text, str) and text.isascii() and text.isdigit()


def _as_ix(item) -> IndexExpr:
    if isinstance(item, tuple) and isinstance(item[0], str):
        text, line, col = item
        if _is_numeral(text):
            return IxC(int(text))
        return IxV(text)
    items, line, col = item
    if len(items) != 2 or not (isinstance(items[0], tuple) and isinstance(items[0][0], str)):
        raise ParseError("index application takes one argument", line, col)
    return IxApp(items[0][0], _as_ix(items[1]))


def _as_term(item, sig: Optional[Signature]) -> Term:
    if isinstance(item, tuple) and isinstance(item[0], str):
        raise ParseError(f"expected a term form, got atom {item[0]!r}", item[1], item[2])
    items, line, col = item
    if not items or not isinstance(items[0], tuple) or not isinstance(items[0][0], str):
        raise ParseError("expected a term form", line, col)
    head = items[0][0]
    rest = items[1:]
    if head == "var":
        if len(rest) != 1:
            raise ParseError("var takes one argument", line, col)
        arg = rest[0]
        if isinstance(arg, tuple) and isinstance(arg[0], str):
            return Var(arg[0])
        inner, il, ic = arg
        if not inner or inner[0][0] != "ix":
            raise ParseError("expected (ix <expr>)", il, ic)
        if len(inner) != 2:
            raise ParseError("ix takes one argument", il, ic)
        return IxVar(_as_ix(inner[1]))
    if head == "fun":
        raise ParseError("comprehension outside an operator", line, col)
    if head != "op":
        raise ParseError(f"unknown term head {head!r}", line, col)
    atoms = []
    k = 0
    while k < len(rest) and isinstance(rest[k], tuple) and isinstance(rest[k][0], str):
        atoms.append(rest[k][0])
        k += 1
    if not atoms:
        raise ParseError("op needs a name", line, col)
    op = OpSym(atoms[0], tuple(atoms[1:]))
    children = rest[k:]
    comp = None
    if children and _head_of(children[0]) == "fun":
        if len(children) != 1:
            raise ParseError("a countable operator takes a single comprehension", line, col)
        inner, il, ic = children[0]
        if len(inner) != 3 or not isinstance(inner[1], tuple) or not isinstance(inner[1][0], str):
            raise ParseError("fun takes a binder and a body", il, ic)
        comp = Comp(inner[1][0], _as_term(inner[2], sig))
    if sig is not None:
        if comp is not None:
            return mk_node(sig, op, comp)
        return mk_node(sig, op, tuple(_as_term(c, sig) for c in children))
    if comp is not None:
        return Node(op, comp)
    return Node(op, Tab(tuple(_as_term(c, sig) for c in children)))


def _head_of(item) -> Optional[str]:
    if isinstance(item, tuple) and isinstance(item[0], list):
        inner = item[0]
        if inner and isinstance(inner[0], tuple) and isinstance(inner[0][0], str):
            return inner[0][0]
    return None


def parse_term(text: str, sig: Optional[Signature] = None) -> Term:
    """Parse a term; with a signature, nodes are arity-checked."""
    r = _Reader(text)
    item = _form(r)
    r.done()
    return _as_term(item, sig)


def show_ix(e: IndexExpr) -> str:
    match e:
        case IxV(name):
            return name
        case IxC(n):
            return str(n)
        case IxApp(fn, arg):
            return f"({fn} {show_ix(arg)})"
    raise TypeError(f"not an index expression: {e!r}")


def show_term(t: Term) -> str:
    match t:
        case Var(name):
            return f"(var {name})"
        case IxVar(expr):
            return f"(var (ix {show_ix(expr)}))"
        case Node(op, Tab(entries)):
            parts = ["op", op.name, *op.params, *(show_term(c) for c in entries)]
            return "(" + " ".join(parts) + ")"
        case Node(op, Comp(ivar, body)):
            parts = ["op", op.name, *op.params, f"(fun {ivar} {show_term(body)})"]
            return "(" + " ".join(parts) + ")"
    raise TypeError(f"not a term: {t!r}")


def parse_index_map(text: str) -> IndexMap:
    """(bij <name> (<src> <dst>)... [default <var>])"""
    r = _Reader(text)
    items, line, col = _form(r)
    r.done()
    if not items or not (isinstance(items[0], tuple) and items[0][0] == "bij"):
        raise ParseError("expected (bij ...)", line, col)
    if len(items) < 2 or not isinstance(items[1], tuple) or not isinstance(items[1][0], str):
        raise ParseError("bij needs a name", line, col)
    name = items[1][0]
    table = []
    k = 2
    while k < len(items) and not (isinstance(items[k], tuple) and items[k][0] == "default"):
        entry = items[k]
        if isinstance(entry, tuple) and isinstance(entry[0], str):
            raise ParseError("expected a (src dst) pair", entry[1], entry[2])
        pair, pl, pc = entry
        if len(pair) != 2 or not all(_is_numeral(p[0]) for p in pair):
            raise ParseError("expected a (src dst) pair of naturals", pl, pc)
        table.append((int(pair[0][0]), int(pair[1][0])))
        k += 1
    if k < len(items):
        if k + 2 != len(items) or not isinstance(items[k + 1], tuple):
            tok = items[k]
            raise ParseError("default takes one variable", tok[1], tok[2])
    return IndexMap(name, tuple(table))


def show_index_map(m: IndexMap) -> str:
    pairs = " ".join(f"({s} {d})" for s, d in m.table)
    body = f"bij {m.name} {pairs}".rstrip()
    return f"({body} default i)"
