"""Surface syntax for declarations.

A declaration is a header line

    qit Name (p : Set) (q : {a, b}) where
    qit Name (p : Set) : Nat -> Set where

followed by one constructor per line, ``name : type``.  Lines indented
deeper than the constructor name continue it; ``--`` starts a comment.
Equality constructors are the ones whose final codomain is ``t = t``.
"""

from __future__ import annotations

import re
from typing import NamedTuple, Optional

from ..errors import ParseError
from .ast import (
    ConstT,
    Ctor,
    EqT,
    FinParam,
    NatParam,
    Param,
    Pi,
    QRef,
    QitDecl,
    SetParam,
    Sigma,
    TApp,
    TNum,
    TVar,
    TermAst,
    TypeAst,
)

# One token per match: its leading whitespace, then a symbol, an ASCII
# numeral, an identifier, or any other character (an error).  `[^\W\d]`
# also admits non-decimal numerics such as '²' and 'Ⅻ', so the tokenizer
# checks that an identifier starts with a letter or '_'.
_TOKEN = re.compile(r"(\s*)(?:(->|[(){}:=*,])|([0-9]+)|([^\W\d][\w']*)|(\S))")


class _Tok(NamedTuple):
    kind: str  # ident | num | a symbol | end
    text: str
    line: int
    col: int


def _strip_comment(line: str) -> str:
    pos = line.find("--")
    return line if pos < 0 else line[:pos]


def _tokenize(text: str, line_no: int) -> list[_Tok]:
    toks: list[_Tok] = []
    col = 1
    for space, sym, num, ident, other in _TOKEN.findall(text):
        col += len(space)
        if other or (ident and not (ident[0].isalpha() or ident[0] == "_")):
            raise ParseError(f"unexpected character {(other or ident)[0]!r}", line_no, col)
        s = sym or num or ident
        # tuple.__new__ skips the Python-level __new__ of a NamedTuple
        toks.append(tuple.__new__(_Tok, (sym or ("num" if num else "ident"), s, line_no, col)))
        col += len(s)
    return toks


class _TypeParser:
    def __init__(self, toks: list[_Tok], qname: str):
        # every read past the last token finds the one "end" token after it
        last = toks[-1] if toks else _Tok("end", "", 0, 0)
        self.toks = toks + [_Tok("end", "", last.line, last.col + len(last.text))]
        self.end = len(toks)
        self.pos = 0
        self.qname = qname

    def _peek(self, ahead: int = 0) -> _Tok:
        k = self.pos + ahead
        return self.toks[k if k < self.end else self.end]

    def _next(self) -> _Tok:
        t = self._peek()
        self.pos += 1
        return t

    def _expect(self, kind: str) -> _Tok:
        t = self._next()
        if t.kind != kind:
            raise ParseError(f"expected {kind!r}, found {t.text!r}", t.line, t.col)
        return t

    def _accept(self, kind: str) -> bool:
        if self._peek().kind == kind:
            self.pos += 1
            return True
        return False

    def done(self) -> bool:
        return self._peek().kind == "end"

    # --- types ---

    def parse_type(self) -> TypeAst:
        if self._at_binder_group():
            names, dom = self._parse_binder_group()
            if self._at_binder_group():
                tail = self.parse_type()
                return self._fold_binders(names, dom, tail, arrow=True)
            sep = self._next()
            if sep.kind == "->":
                return self._fold_binders(names, dom, self.parse_type(), arrow=True)
            if sep.kind == "*":
                if len(names) != 1:
                    raise ParseError("a pair type binds one name", sep.line, sep.col)
                return Sigma(names[0], dom, self.parse_type())
            raise ParseError(f"expected '->' or '*' after binder, found {sep.text!r}", sep.line, sep.col)
        left = self._parse_product_or_eq()
        if self._accept("->"):
            return Pi("_", left, self.parse_type())
        return left

    @staticmethod
    def _fold_binders(names: list[str], dom: TypeAst, tail: TypeAst, arrow: bool) -> TypeAst:
        out = tail
        for n in reversed(names):
            out = Pi(n, dom, out)
        return out

    def _at_binder_group(self) -> bool:
        # '(' ident+ ':' introduces named binders
        if self._peek().kind != "(" or self._peek(1).kind != "ident":
            return False
        k = 1
        while self._peek(k).kind == "ident":
            k += 1
        return self._peek(k).kind == ":"

    def _parse_binder_group(self) -> tuple[list[str], TypeAst]:
        self._expect("(")
        names = [self._expect("ident").text]
        while self._peek().kind == "ident":
            names.append(self._next().text)
        self._expect(":")
        dom = self.parse_type()
        self._expect(")")
        return names, dom

    def _parse_product_or_eq(self) -> TypeAst:
        if self._eq_ahead():
            lhs = self.parse_term()
            self._expect("=")
            rhs = self.parse_term()
            return EqT(lhs, rhs)
        left = self._parse_app_type()
        if self._accept("*"):
            return Sigma("_", left, self._parse_product_or_eq())
        return left

    def _eq_ahead(self) -> bool:
        depth = 0
        k = 0
        while True:
            t = self._peek(k)
            if t.kind == "end":
                return False
            if t.kind == "(":
                depth += 1
            elif t.kind == ")":
                if depth == 0:
                    return False
                depth -= 1
            elif depth == 0 and t.kind == "=":
                return True
            elif depth == 0 and t.kind in ("->", "*"):
                return False
            k += 1

    def _parse_app_type(self) -> TypeAst:
        t = self._peek()
        if t.kind == "(":
            self._next()
            inner = self.parse_type()
            self._expect(")")
            return inner
        if t.kind != "ident":
            raise ParseError(f"expected a type, found {t.text!r}", t.line, t.col)
        name = self._next().text
        if name == self.qname:
            if self._at_term_atom():
                return QRef(self._parse_term_atom())
            return QRef(None)
        args: list[TermAst] = []
        while self._at_term_atom():
            args.append(self._parse_term_atom())
        return ConstT(name, tuple(args))

    # --- terms ---

    def parse_term(self) -> TermAst:
        t = self._peek()
        if t.kind == "(":
            self._next()
            inner = self.parse_term()
            self._expect(")")
            # parenthesized terms are atoms; application binds at the head
            return inner
        if t.kind == "num":
            self._next()
            return TNum(int(t.text))
        head = self._expect("ident").text
        args: list[TermAst] = []
        while self._at_term_atom():
            args.append(self._parse_term_atom())
        return TApp(head, tuple(args)) if args else TVar(head)

    def _at_term_atom(self) -> bool:
        t = self._peek()
        if t.kind in ("num",):
            return True
        if t.kind == "ident":
            return True
        if t.kind == "(":
            # a parenthesized term argument, as in `cons x (cons y zs)`;
            # binder groups are not term atoms
            return not (self._peek(1).kind == "ident" and self._first_colon_before_close())
        return False

    def _first_colon_before_close(self) -> bool:
        k = 1
        while self._peek(k).kind == "ident":
            k += 1
        return self._peek(k).kind == ":"

    def _parse_term_atom(self) -> TermAst:
        t = self._peek()
        if t.kind == "(":
            self._next()
            inner = self.parse_term()
            self._expect(")")
            return inner
        if t.kind == "num":
            self._next()
            return TNum(int(t.text))
        name = self._expect("ident").text
        return TVar(name)


def _parse_param_kind(p: _TypeParser):
    t = p._next()
    if t.kind == "ident" and t.text == "Set":
        return SetParam()
    if t.kind == "ident" and t.text == "Nat":
        return NatParam()
    if t.kind == "{":
        values = [p._expect("ident").text]
        while p._accept(","):
            values.append(p._expect("ident").text)
        p._expect("}")
        return FinParam(tuple(values))
    raise ParseError(f"expected Set, Nat, or a finite set literal, found {t.text!r}", t.line, t.col)


def parse_decl(source: str) -> QitDecl:
    lines = source.splitlines()
    header_ix = None
    for n, raw in enumerate(lines):
        if _strip_comment(raw).strip():
            header_ix = n
            break
    if header_ix is None:
        raise ParseError("empty declaration", 1, 1)

    header = _tokenize(_strip_comment(lines[header_ix]), header_ix + 1)
    hp = _TypeParser(header, qname="")
    kw = hp._expect("ident")
    if kw.text != "qit":
        raise ParseError(f"expected 'qit', found {kw.text!r}", kw.line, kw.col)
    name = hp._expect("ident").text
    hp.qname = name

    params: list[Param] = []
    while hp._peek().kind == "(":
        hp._expect("(")
        pname = hp._expect("ident").text
        hp._expect(":")
        params.append(Param(pname, _parse_param_kind(hp)))
        hp._expect(")")

    index_sort: Optional[str] = None
    if hp._accept(":"):
        ix = hp._expect("ident")
        if ix.text != "Nat":
            raise ParseError(f"only Nat indices are supported, found {ix.text!r}", ix.line, ix.col)
        hp._expect("->")
        st = hp._expect("ident")
        if st.text != "Set":
            raise ParseError(f"expected Set, found {st.text!r}", st.line, st.col)
        index_sort = "Nat"

    where = hp._expect("ident")
    if where.text != "where":
        raise ParseError(f"expected 'where', found {where.text!r}", where.line, where.col)
    if not hp.done():
        t = hp._peek()
        raise ParseError(f"unexpected {t.text!r} after 'where'", t.line, t.col)

    # group constructor lines by indentation
    groups: list[tuple[int, int, str]] = []  # (line number, indent, text)
    for n in range(header_ix + 1, len(lines)):
        text = _strip_comment(lines[n])
        if not text.strip():
            continue
        indent = len(text) - len(text.lstrip())
        if groups and indent > groups[-1][1]:
            prev = groups[-1]
            groups[-1] = (prev[0], prev[1], prev[2] + " " + text.strip())
        else:
            groups.append((n + 1, indent, text.rstrip()))

    element: list[Ctor] = []
    equality: list[Ctor] = []
    for line_no, _, text in groups:
        toks = _tokenize(text, line_no)
        cp = _TypeParser(toks, qname=name)
        cname_tok = cp._expect("ident")
        cp._expect(":")
        ctype = cp.parse_type()
        if not cp.done():
            t = cp._peek()
            raise ParseError(f"trailing {t.text!r} in constructor {cname_tok.text}", t.line, t.col)
        ctor = Ctor(cname_tok.text, ctype, cname_tok.line, cname_tok.col)
        if _codomain_is_equation(ctype):
            equality.append(ctor)
        else:
            element.append(ctor)

    return QitDecl(
        name=name,
        params=tuple(params),
        element_ctors=tuple(element),
        equality_ctors=tuple(equality),
        index_sort=index_sort,
    )


def _codomain_is_equation(t: TypeAst) -> bool:
    while isinstance(t, Pi):
        t = t.codomain
    return isinstance(t, EqT)
