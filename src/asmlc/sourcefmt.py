r"""Text format for machines: sorts with finite carriers, static and
dynamic declarations, initialization rules, and the program.

Grammar (EBNF; '#' starts a comment running to end of line):

    machine     = { sortdecl | staticdecl | inputdecl | dynamicdecl
                  | initdecl } programsec ;
    sortdecl    = "sort" IDENT "=" ( NAT ".." NAT
                                   | "{" IDENT { "," IDENT } "}" ) ;
    staticdecl  = "static" IDENT ":" profile "="
                  ( "builtin" IDENT | table ) ;
    inputdecl   = "input" IDENT ":" IDENT ;
    dynamicdecl = "dynamic" IDENT ":" profile [ "output" ] ;
    profile     = [ IDENT { IDENT } ] "->" IDENT ;
    table       = "{" row { "," row } "}" ;
    row         = { literal } "->" literal ;  (one literal per argument)
    initdecl    = "init" IDENT [ "(" IDENT { "," IDENT } ")" ] "=" term ;
    programsec  = "program" ":" instr ;
    instr       = "skip" | "halt" | "fail"
                | IDENT [ "(" term { "," term } ")" ] ":=" term
                | "if" term "then" instr [ "else" instr ]
                | "par" "{" { instr } "}" ;
    term        = IDENT [ "(" term { "," term } ")" ] | NAT ;
    literal     = NAT | IDENT ;

Bool, its connectives (and/or/not, true/false) and one equality symbol
per sort (eq_<sort>) are injected automatically.  Enumeration elements
and numeric literals become nullary static constants.  Builtin statics:
zero, succ, plus, rem (undefined at divisor 0), lt, le.  The table
``asm.BUILTINS`` gives every builtin, the injected ones too, its
semantics and its profile: arity, whether its arguments must be Bool,
and whether its result is Bool.  Refused with one diagnostic: a builtin
declared against its profile (``and`` over Nat arguments, say), a
builtin other than eq and the connectives over a sort that is not a
range (they compute on numbers), a table literal of the wrong kind (a
Bool position takes true or false, a range sort a number, an
enumeration one of its elements), a table row that repeats an earlier
row's arguments, an empty range, a symbol name declared twice (statics,
inputs, dynamics and enumeration elements share one namespace), a
declaration of a name that every vocabulary injects (true, false, the
connectives, eq_<sort> before or after its sort), a second init rule
for one dynamic symbol, and an init parameter named twice.
Every builtin and table result is clipped to the carrier (out of range =
undefined), except that of a Bool-result builtin: it only returns True
or False, which the Bool carrier always holds, so it is stored
unwrapped.  The carriers and every static but the inputs are the same
for every state of a file, so a ``SourceMachine`` builds them once, on
first use; a state binds only its input constants, each to a value of
its carrier, an unbound input to the carrier's first element.
"""
from __future__ import annotations

import re
from typing import Callable, NamedTuple, Optional

from .asm import (
    BUILTINS,
    Builtin,
    FailI,
    HaltI,
    If,
    InitRule,
    Machine,
    Par,
    Program,
    Skip,
    State,
    Symbol,
    TApp,
    TVar,
    TypedTerm,
    Update,
    Vocabulary,
)
from .records import Fields
from .terms import BOOL


class Diagnostic(NamedTuple):
    line: int
    column: int
    message: str

    def __str__(self):
        if self.line == 0:  # not tied to a place in the source
            return self.message
        return f"{self.line}:{self.column}: {self.message}"


class SourceError(ValueError):
    def __init__(self, diagnostics: list[Diagnostic]):
        super().__init__("; ".join(map(str, diagnostics)))
        self.diagnostics = diagnostics


class SortDecl(NamedTuple):
    name: str
    lo: Optional[int] = None
    hi: Optional[int] = None
    elements: tuple[str, ...] = ()

    @property
    def carrier(self) -> tuple:
        if self.elements:
            return self.elements
        return tuple(range(self.lo, self.hi + 1))


class StaticDecl(NamedTuple):
    name: str
    arg_sorts: tuple[str, ...]
    result: str
    impl: tuple  # ("builtin", name) | ("table", rows) | ("input",)
                 # | ("literal", value) | ("element", value)


class DynamicDecl(NamedTuple):
    name: str
    arg_sorts: tuple[str, ...]
    result: str
    output: bool


class InitDecl(NamedTuple):
    name: str
    params: tuple[str, ...]
    term: TypedTerm  # over TVar(param, sort)


class SourceMachine(Fields):
    """The declarations of one source file.  ``machine()`` and every
    ``state()`` share one vocabulary, and every state shares one table
    of carriers and of the statics that are not inputs, each built from
    the declarations on first use, so change no declaration after that."""

    __match_args__ = ("sorts", "statics", "dynamics", "inits", "program")

    def __init__(self, sorts: list[SortDecl], statics: list[StaticDecl],
                 dynamics: list[DynamicDecl], inits: list[InitDecl], program: Program):
        self.sorts = sorts
        self.statics = statics
        self.dynamics = dynamics
        self.inits = inits
        self.program = program
        self._voc: Optional[Vocabulary] = None
        self._table: Optional[tuple[dict, dict, dict]] = None

    def vocabulary(self) -> Vocabulary:
        if self._voc is None:
            self._voc = self._build_vocabulary()
        return self._voc

    def _build_vocabulary(self) -> Vocabulary:
        names = [BOOL] + [s.name for s in self.sorts]
        symbols: dict[str, Symbol] = {}
        for st in self.statics:
            symbols[st.name] = Symbol(st.name, "static", st.arg_sorts, st.result,
                                      is_input=st.impl[0] == "input")
        for name, b in BUILTINS.items():
            if b.all_bool:
                symbols.setdefault(name, Symbol(name, "static", *b.profile(BOOL)))
        for s in names:
            symbols.setdefault(f"eq_{s}", Symbol(f"eq_{s}", "static",
                                                 *BUILTINS["eq"].profile(s)))
        for d in self.dynamics:
            symbols[d.name] = Symbol(d.name, "dynamic", d.arg_sorts, d.result,
                                     is_output=d.output)
        return Vocabulary(tuple(names), symbols)

    def _static_table(self) -> tuple[dict, dict, dict]:
        """(carriers, carrier sets, statics but the inputs), by sort and
        by name, shared by every state."""
        if self._table is None:
            carriers: dict[str, tuple] = {BOOL: (True, False)}
            for s in self.sorts:
                carriers[s.name] = s.carrier
            sets = {sort: frozenset(c) for sort, c in carriers.items()}
            decls = {d.name: d for d in self.statics}
            statics: dict = {}
            for sym in self.vocabulary().symbols.values():
                if sym.kind != "static" or sym.is_input:
                    continue
                decl = decls.get(sym.name)
                b = _builtin(sym, decl)
                fn = b.fn if b is not None else _semantics(decl)
                if b is None or not b.bool_result:  # else only True or False
                    fn = _clip(fn, sets[sym.result_sort])
                statics[sym.name] = fn
            self._table = carriers, sets, statics
        return self._table

    def machine(self) -> Machine:
        """The machine; raises SourceError where ``asm.Machine`` rejects
        it (an ill-sorted program, a dynamic symbol with no init rule)."""
        init = {decl.name: _init_rule(decl) for decl in self.inits}
        try:
            return Machine(self.vocabulary(), self.program, init)
        except ValueError as exc:
            raise SourceError([Diagnostic(0, 0, str(exc))]) from None

    def state(self, bindings: Optional[dict[str, object]] = None) -> State:
        """The state that binds the input constants to ``bindings``, over
        the carriers and statics every state of this file shares.
        Raises SourceError for a name that is not a declared input and
        for a value outside its input's carrier."""
        bindings = bindings or {}
        carriers, sets, shared = self._static_table()
        inputs = {d.name: d.result for d in self.statics if d.impl[0] == "input"}
        for name, value in bindings.items():
            if name not in inputs:
                raise SourceError([Diagnostic(0, 0, (
                    f"{name} is not an input of this machine "
                    f"(inputs: {', '.join(inputs) or 'none'})"))])
            sort = inputs[name]
            # True == 1, so a Bool must not pass for a number or back
            if isinstance(value, bool) != (sort == BOOL) or value not in sets[sort]:
                raise SourceError([Diagnostic(0, 0, (
                    f"input {name} = {value!r} is outside the carrier of {sort}"))])
        statics = dict(shared)
        for name, sort in inputs.items():
            value = bindings.get(name, carriers[sort][0])
            statics[name] = lambda _v=value: _v
        return State(self.vocabulary(), carriers, statics, {})


def _init_rule(decl: InitDecl) -> InitRule:
    order: list[str] = []

    def walk(t: TypedTerm) -> TypedTerm:
        if isinstance(t, TVar):
            if t.name not in order:
                order.append(t.name)
            return TVar(f"x{order.index(t.name) + 1}", t.sort)
        return TApp(t.head, tuple(walk(a) for a in t.args))

    term = walk(decl.term)
    sigma = tuple(decl.params.index(v) + 1 for v in order)
    return InitRule(sigma, term)


def _builtin(sym: Symbol, decl: Optional[StaticDecl]) -> Optional[Builtin]:
    """The builtin that interprets ``sym``, or None for a table, an
    input or a literal."""
    if decl is None:  # injected connective or equality
        return BUILTINS["eq" if sym.name.startswith("eq_") else sym.name]
    return BUILTINS[decl.impl[1]] if decl.impl[0] == "builtin" else None


def _semantics(decl: StaticDecl):
    kind = decl.impl[0]
    if kind == "table":
        mapping = {tuple(r[:-1]): r[-1] for r in decl.impl[1]}
        return lambda *a: mapping.get(tuple(a))
    if kind in ("literal", "element"):
        return lambda _v=decl.impl[1]: _v
    raise ValueError(f"bad static implementation {decl.impl!r}")


def _clip(fn, allowed: frozenset):
    def wrapped(*a):
        v = fn(*a)
        return v if v is None or v in allowed else None

    return wrapped


# ---------------------------------------------------------------------------
# Parser


_TOKEN = re.compile(
    r"(?P<ws>[ \t]+)|(?P<comment>#[^\n]*)|(?P<nl>\n)"
    r"|(?P<dots>\.\.)|(?P<arrow>->)|(?P<assign>:=)"
    r"|(?P<punct>[:=(){},])"
    r"|(?P<nat>\d+)|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
)

class _Tok(Fields):
    __match_args__ = ("kind", "text", "line", "col")

    def __init__(self, kind: str, text: str, line: int, col: int):
        self.kind = kind
        self.text = text
        self.line = line
        self.col = col


def _lex(src: str) -> list[_Tok]:
    toks = []
    line, col, pos = 1, 1, 0
    while pos < len(src):
        m = _TOKEN.match(src, pos)
        if m is None:
            raise SourceError([Diagnostic(line, col, f"unexpected character {src[pos]!r}")])
        kind = m.lastgroup
        text = m.group()
        if kind == "nl":
            line += 1
            col = 1
        elif kind in ("ws", "comment"):
            col += len(text)
        else:
            toks.append(_Tok(kind if kind in ("nat", "ident", "dots", "arrow", "assign")
                             else text, text, line, col))
            col += len(text)
        pos = m.end()
    toks.append(_Tok("eof", "", line, col))
    return toks


class _P:
    def __init__(self, toks: list[_Tok]):
        self.toks = toks
        self.i = 0
        self.diags: list[Diagnostic] = []

    def peek(self) -> _Tok:
        return self.toks[self.i]

    def next(self) -> _Tok:
        t = self.toks[self.i]
        if t.kind != "eof":
            self.i += 1
        return t

    def error(self, tok: _Tok, msg: str):
        raise SourceError(self.diags + [Diagnostic(tok.line, tok.col, msg)])

    def once(self, seen: dict, key, tok: _Tok, msg: str) -> None:
        """Record ``tok`` as where ``key`` occurs first; a key seen
        before is refused with ``msg`` and the first place."""
        first = seen.setdefault(key, tok)
        if first is not tok:
            self.error(tok, f"{msg} at {first.line}:{first.col}")

    def expect(self, kind: str, what: str = "") -> _Tok:
        t = self.next()
        if t.kind != kind:
            self.error(t, f"expected {what or kind}, got {t.text!r}")
        return t

    def ident(self, what="identifier") -> str:
        t = self.expect("ident", what)
        return t.text


def parse_source(src: str) -> SourceMachine:
    p = _P(_lex(src))
    sorts: list[SortDecl] = []
    statics: list[StaticDecl] = []
    dynamics: list[DynamicDecl] = []
    inits: list[InitDecl] = []
    program: Optional[Program] = None

    ctx = _Ctx(sorts, statics, dynamics)
    while p.peek().kind != "eof":
        t = p.peek()
        if t.kind != "ident":
            p.error(t, "expected a declaration keyword")
        if t.text == "sort":
            sorts.append(_parse_sort(p, ctx))
        elif t.text == "static":
            statics.append(_parse_static(p, ctx))
        elif t.text == "input":
            p.next()
            name = ctx.declare(p, p.expect("ident", "input name"))
            p.expect(":")
            sort = p.ident("sort name")
            statics.append(StaticDecl(name, (), sort, ("input",)))
        elif t.text == "dynamic":
            dynamics.append(_parse_dynamic(p, ctx))
        elif t.text == "init":
            inits.append(_parse_init(p, ctx))
        elif t.text == "program":
            p.next()
            p.expect(":")
            program = _parse_instr(p, ctx)
            break
        else:
            p.error(t, f"unknown declaration {t.text!r}")
    if program is None:
        p.error(p.peek(), "missing program section")
    tail = p.peek()
    if tail.kind != "eof":
        p.error(tail, "trailing input after program")
    return SourceMachine(sorts, statics, dynamics, inits, program)


class _Ctx(Fields):
    __match_args__ = ("sorts", "statics", "dynamics")

    def __init__(self, sorts: list[SortDecl], statics: list[StaticDecl],
                 dynamics: list[DynamicDecl]):
        self.sorts = sorts
        self.statics = statics
        self.dynamics = dynamics
        self.declared: dict[str, _Tok] = {}  # symbol name -> its declaring token
        self.initialized: dict[str, _Tok] = {}  # dynamic name -> its init's name token

    def declare(self, p: _P, tok: _Tok) -> str:
        """The symbol name ``tok`` declares: a static, an input, a
        dynamic or an enumeration element.  They share one namespace, so
        a name declared before is refused, and so is a name that every
        vocabulary injects (``_injected``)."""
        if _injected(self, tok.text):
            _refuse_injected(p, tok)
        p.once(self.declared, tok.text, tok, f"{tok.text} is already declared")
        return tok.text

    def numeric_sort(self, p: _P, tok: _Tok) -> str:
        ranges = [s for s in self.sorts if not s.elements]
        if len(ranges) != 1:
            p.error(tok, "numeric literal is ambiguous without exactly one range sort")
        return ranges[0].name

    def literal_constant(self, p: _P, tok: _Tok) -> str:
        sort = self.numeric_sort(p, tok)
        name = tok.text
        if not any(s.name == name for s in self.statics):
            self.statics.append(StaticDecl(name, (), sort, ("literal", int(tok.text))))
        return name


def _refuse_injected(p: _P, tok: _Tok):
    p.error(tok, f"{tok.text} is injected into every vocabulary and cannot be declared")


def _parse_sort(p: _P, ctx: _Ctx) -> SortDecl:
    p.next()
    name = p.ident("sort name")
    # the sort injects eq_<name>, so a symbol declared so before it is refused
    eq = ctx.declared.get(f"eq_{name}")
    if eq is not None:
        _refuse_injected(p, eq)
    p.expect("=")
    t = p.next()
    if t.kind == "nat":
        lo = int(t.text)
        p.expect("dots", "'..'")
        hi = int(p.expect("nat", "upper bound").text)
        if hi < lo:
            p.error(t, f"sort {name} = {lo}..{hi} is empty")
        return SortDecl(name, lo, hi)
    if t.kind == "{":
        elements = [ctx.declare(p, p.expect("ident", "element"))]
        while p.peek().kind == ",":
            p.next()
            elements.append(ctx.declare(p, p.expect("ident", "element")))
        p.expect("}")
        for e in elements:
            ctx.statics.append(StaticDecl(e, (), name, ("element", e)))
        return SortDecl(name, elements=tuple(elements))
    p.error(t, "expected a range or an enumeration")


def _parse_profile(p: _P) -> tuple[tuple[str, ...], str]:
    args = []
    while p.peek().kind == "ident":
        args.append(p.ident())
    p.expect("arrow", "'->'")
    result = p.ident("result sort")
    return tuple(args), result


def _parse_static(p: _P, ctx: _Ctx) -> StaticDecl:
    p.next()
    name = ctx.declare(p, p.expect("ident", "static name"))
    p.expect(":")
    args, result = _parse_profile(p)
    p.expect("=")
    t = p.next()
    if t.kind == "ident" and t.text == "builtin":
        b = p.ident("builtin name")
        if b not in BUILTINS:
            p.error(t, f"unknown builtin {b!r}")
        fits = BUILTINS[b]
        if (len(args), result == BOOL) != (fits.arity, fits.bool_result) or (
                fits.bool_args and any(a != BOOL for a in args)):
            p.error(t, f"builtin {b} has arity {fits.arity}"
                       f"{', Bool arguments' if fits.bool_args and fits.arity else ''} "
                       f"and a {'Bool' if fits.bool_result else 'non-Bool'} result, "
                       f"but {name} is declared {' '.join(args + ('->', result))}")
        # eq and the connectives aside, a builtin computes on numbers
        if b != "eq" and not fits.all_bool:
            for sort in args + (() if fits.bool_result else (result,)):
                if not any(s.name == sort and not s.elements for s in ctx.sorts):
                    p.error(t, f"builtin {b} computes on numbers, "
                               f"but {sort} is not a range sort")
        return StaticDecl(name, args, result, ("builtin", b))
    if t.kind == "{":
        rows = []
        starts: dict[tuple, _Tok] = {}  # a row's arguments -> its first token
        while True:
            start = p.peek()
            row = [_parse_literal(p, ctx, sort) for sort in args]
            p.once(starts, tuple(row), start, "this row repeats the arguments of the row")
            p.expect("arrow", "'->'")
            row.append(_parse_literal(p, ctx, result))
            rows.append(tuple(row))
            if p.peek().kind != ",":
                break
            p.next()
        p.expect("}")
        return StaticDecl(name, args, result, ("table", tuple(rows)))
    p.error(t, "expected 'builtin' or a table")


def _parse_literal(p: _P, ctx: _Ctx, sort: str):
    """A table literal of ``sort``: true or false in Bool, a number in a
    range sort (out of range, it reads as undefined), an element in an
    enumeration."""
    t = p.next()
    decl = next((s for s in ctx.sorts if s.name == sort), None)
    if sort == BOOL:
        fits = t.text in ("true", "false")
    elif decl is None:
        p.error(t, f"unknown sort {sort!r}")
    else:
        fits = t.text in decl.elements if decl.elements else t.kind == "nat"
    if not fits:
        p.error(t, f"{t.text} is not a literal of sort {sort}")
    if sort == BOOL:
        return t.text == "true"
    return int(t.text) if t.kind == "nat" else t.text


def _parse_dynamic(p: _P, ctx: _Ctx) -> DynamicDecl:
    p.next()
    name = ctx.declare(p, p.expect("ident", "dynamic name"))
    p.expect(":")
    args, result = _parse_profile(p)
    output = False
    if p.peek().kind == "ident" and p.peek().text == "output":
        p.next()
        output = True
    return DynamicDecl(name, args, result, output)


def _parse_init(p: _P, ctx: _Ctx) -> InitDecl:
    p.next()
    tok = p.peek()
    name = p.ident("dynamic name")
    decl = next((d for d in ctx.dynamics if d.name == name), None)
    if decl is None:
        p.error(tok, f"init for undeclared dynamic symbol {name!r}")
    p.once(ctx.initialized, name, tok, f"{name} already has an init rule")
    params: dict[str, _Tok] = {}
    for ptok in _arguments(p, lambda: p.expect("ident", "parameter")):
        p.once(params, ptok.text, ptok, f"{ptok.text} is already a parameter")
    if len(params) != len(decl.arg_sorts):
        p.error(tok, f"init of {name} needs {len(decl.arg_sorts)} parameters")
    p.expect("=")
    env = dict(zip(params, decl.arg_sorts))
    term = _parse_term(p, ctx, env, static_only=True)
    return InitDecl(name, tuple(params), term)


def _parse_term(p: _P, ctx: _Ctx, env: Optional[dict[str, str]] = None,
                static_only: bool = False) -> TypedTerm:
    t = p.next()
    if t.kind == "nat":
        return TApp(ctx.literal_constant(p, t))
    if t.kind != "ident":
        p.error(t, "expected a term")
    name = t.text
    if env is not None and name in env:
        return TVar(name, env[name])
    if not _known_symbol(ctx, name):
        p.error(t, f"unknown symbol {name!r}")
    if static_only and any(d.name == name for d in ctx.dynamics):
        p.error(t, f"init term uses dynamic symbol {name!r}; "
                   "only static symbols are allowed")
    args = _arguments(p, lambda: _parse_term(p, ctx, env, static_only))
    return TApp(name, tuple(args))


def _arguments(p: _P, item: Callable[[], object]) -> list:
    """``"(" item {"," item} ")"``, each item read by ``item()``; [] when
    no "(" follows."""
    if p.peek().kind != "(":
        return []
    p.next()
    out = [item()]
    while p.peek().kind == ",":
        p.next()
        out.append(item())
    p.expect(")")
    return out


def _injected(ctx: _Ctx, name: str) -> bool:
    """Whether every vocabulary over the sorts declared so far holds
    ``name``: true, false, the connectives, and eq_<sort> for Bool and
    each of those sorts."""
    return (name in BUILTINS and BUILTINS[name].all_bool
            or name in (f"eq_{s}" for s in [BOOL] + [s.name for s in ctx.sorts]))


def _known_symbol(ctx: _Ctx, name: str) -> bool:
    """A declared symbol or one injected into every vocabulary."""
    return any(d.name == name for d in ctx.statics + ctx.dynamics) or _injected(ctx, name)


def _parse_instr(p: _P, ctx: _Ctx) -> Program:
    t = p.peek()
    if t.kind == "ident" and t.text == "skip":
        p.next()
        return Skip()
    if t.kind == "ident" and t.text == "halt":
        p.next()
        return HaltI()
    if t.kind == "ident" and t.text == "fail":
        p.next()
        return FailI()
    if t.kind == "ident" and t.text == "if":
        p.next()
        cond = _parse_term(p, ctx)
        kw = p.expect("ident", "'then'")
        if kw.text != "then":
            p.error(kw, "expected 'then'")
        then = _parse_instr(p, ctx)
        orelse: Program = Skip()
        if p.peek().kind == "ident" and p.peek().text == "else":
            p.next()
            orelse = _parse_instr(p, ctx)
        return If(cond, then, orelse)
    if t.kind == "ident" and t.text == "par":
        p.next()
        p.expect("{")
        blocks = []
        while p.peek().kind != "}":
            blocks.append(_parse_instr(p, ctx))
        p.expect("}")
        return Par(tuple(blocks))
    # an update: name or name(args) := term
    tok = p.peek()
    name = p.ident("instruction")
    if not any(d.name == name for d in ctx.dynamics):
        p.error(tok, f"update target {name!r} is not a dynamic symbol")
    args = _arguments(p, lambda: _parse_term(p, ctx))
    p.expect("assign", "':='")
    rhs = _parse_term(p, ctx)
    return Update(name, tuple(args), rhs)


# ---------------------------------------------------------------------------
# Printer


def print_typed_term(t: TypedTerm) -> str:
    if isinstance(t, TVar):
        return t.name
    if not t.args:
        return t.head
    return f"{t.head}({', '.join(print_typed_term(a) for a in t.args)})"


def print_program(prog: Program, indent: int = 0) -> str:
    pad = "  " * indent
    if isinstance(prog, Skip):
        return pad + "skip"
    if isinstance(prog, HaltI):
        return pad + "halt"
    if isinstance(prog, FailI):
        return pad + "fail"
    if isinstance(prog, Update):
        lhs = prog.symbol
        if prog.args:
            lhs += f"({', '.join(print_typed_term(a) for a in prog.args)})"
        return f"{pad}{lhs} := {print_typed_term(prog.rhs)}"
    if isinstance(prog, If):
        out = f"{pad}if {print_typed_term(prog.cond)} then\n"
        out += print_program(prog.then, indent + 1)
        if not isinstance(prog.orelse, Skip):
            out += f"\n{pad}else\n" + print_program(prog.orelse, indent + 1)
        return out
    if isinstance(prog, Par):
        body = "\n".join(print_program(b, indent + 1) for b in prog.blocks)
        return f"{pad}par {{\n{body}\n{pad}}}"
    raise TypeError(f"not a program: {prog!r}")
