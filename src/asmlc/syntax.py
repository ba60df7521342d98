r"""Plain-text syntax for lambda terms, round-tripping with the parser.

    \x y. M        abstraction (right-nested)
    M N P          application (left-associative)
    #name          constant
    [Nat:12]       value code: datatype, colon, Python-literal payload
    x              variable

Payloads are written as Python literals (ints, True/False, strings,
nested tuples) and read back with ast.literal_eval.
"""
from __future__ import annotations

import ast
import re

from .terms import Abs, App, Code, Const, Term, Value, Var


class TermSyntaxError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"at offset {position}: {message}")
        self.position = position


_TOKEN = re.compile(
    r"\s*(?:(?P<lam>\\)|(?P<dot>\.)|(?P<lpar>\()|(?P<rpar>\))"
    r"|(?P<const>#[A-Za-z_][A-Za-z0-9_']*)"
    r"|(?P<code>\[[^\]]*\])"
    r"|(?P<ident>[A-Za-z_][A-Za-z0-9_']*))"
)


def _tokenize(s: str):
    out = []
    pos = 0
    while pos < len(s):
        m = _TOKEN.match(s, pos)
        if m is None:
            if s[pos:].strip() == "":
                break
            raise TermSyntaxError(f"unexpected character {s[pos]!r}", pos)
        kind = m.lastgroup
        out.append((kind, m.group(kind), m.start(kind)))
        pos = m.end()
    out.append(("eof", "", len(s)))
    return out


def _parse_code(text: str, pos: int) -> Code:
    body = text[1:-1]
    if ":" not in body:
        raise TermSyntaxError("code literal needs 'datatype:payload'", pos)
    datatype, payload_src = body.split(":", 1)
    datatype = datatype.strip()
    try:
        payload = ast.literal_eval(payload_src.strip())
    except (ValueError, SyntaxError) as exc:
        raise TermSyntaxError(f"bad payload literal: {exc}", pos) from None
    try:
        return Code(Value(datatype, payload))
    except ValueError as exc:
        raise TermSyntaxError(str(exc), pos) from None


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind):
        tok = self.next()
        if tok[0] != kind:
            raise TermSyntaxError(f"expected {kind}, got {tok[1]!r}", tok[2])
        return tok

    def term(self) -> Term:
        kind, text, pos = self.peek()
        if kind == "lam":
            self.next()
            binders = []
            while self.peek()[0] == "ident":
                binders.append(self.next()[1])
            if not binders:
                raise TermSyntaxError("abstraction needs at least one binder", pos)
            self.expect("dot")
            body = self.term()
            for b in reversed(binders):
                body = Abs(b, body)
            return body
        return self.application()

    def application(self) -> Term:
        t = self.atom()
        while self.peek()[0] in ("lpar", "const", "code", "ident", "lam"):
            if self.peek()[0] == "lam":
                # trailing abstraction extends as far right as possible
                t = App(t, self.term())
                break
            t = App(t, self.atom())
        return t

    def atom(self) -> Term:
        kind, text, pos = self.next()
        if kind == "lpar":
            t = self.term()
            self.expect("rpar")
            return t
        if kind == "const":
            return Const(text[1:])
        if kind == "code":
            return _parse_code(text, pos)
        if kind == "ident":
            return Var(text)
        raise TermSyntaxError(f"unexpected token {text!r}", pos)


def parse_term(s: str) -> Term:
    p = _Parser(_tokenize(s))
    t = p.term()
    p.expect("eof")
    return t


def print_term(t: Term) -> str:
    """The text of ``t``; an explicit stack of pending pieces keeps deep
    terms off the Python call stack."""
    out: list[str] = []
    # pending items: a literal string, or (term, prec) where prec 0 is
    # top, 1 application position (fun), 2 argument position
    stack: list = [(t, 0)]
    while stack:
        item = stack.pop()
        if type(item) is str:
            out.append(item)
            continue
        t, prec = item
        if isinstance(t, Var):
            out.append(t.name)
        elif isinstance(t, Const):
            out.append("#" + t.symbol)
        elif isinstance(t, Code):
            out.append(f"[{t.value.datatype}:{t.value.payload!r}]")
        elif isinstance(t, Abs):
            binders = []
            while isinstance(t, Abs):
                binders.append(t.binder)
                t = t.body
            if prec > 0:
                out.append("(")
                stack.append(")")
            out.append(f"\\{' '.join(binders)}. ")
            stack.append((t, 0))
        elif isinstance(t, App):
            if prec > 1:
                out.append("(")
                stack.append(")")
            stack += ((t.arg, 2), " ", (t.fun, 1))
        else:
            raise TypeError(f"not a term: {t!r}")
    return "".join(out)
