"""Abstract state machine semantics: vocabularies, states as partial
multi-sorted algebras, ground evaluation, initialization maps, programs,
active updates, clash/halt/fail detection, successor states, and runs.

Carrier elements are plain hashable payloads; sorts tag them.  Partial
interpretations return None for "undefined", which propagates strictly
through evaluation.
"""
from __future__ import annotations

import itertools
from typing import Callable, Iterable, NamedTuple, Optional

from .records import Checked, Frozen
from .terms import BOOL


class Builtin(NamedTuple):
    """One builtin static: its payload function, its arity, whether its
    arguments must be Bool, and whether its result is Bool (then the
    function returns True or False on every argument it admits)."""

    fn: Callable
    arity: int
    bool_args: bool
    bool_result: bool

    @property
    def all_bool(self) -> bool:
        """Bool^arity -> Bool: true, false and the connectives."""
        return self.bool_args and self.bool_result

    def profile(self, sort: str) -> tuple[tuple[str, ...], str]:
        """Its argument and result sorts when every one that need not be
        Bool is ``sort``."""
        return ((BOOL if self.bool_args else sort,) * self.arity,
                BOOL if self.bool_result else sort)


# The one declaration of every builtin static.  Source files name them
# (``static rem : Nat Nat -> Nat = builtin rem``); the all-Bool ones
# (true, false and the connectives not, and, or) and one equality
# ``eq_<sort>`` per sort (with the semantics of "eq") are in every
# vocabulary read from source, and the compiler's constant signature
# falls back to them.
BUILTINS: dict[str, Builtin] = {
    "zero": Builtin(lambda: 0, 0, False, False),
    "succ": Builtin(lambda a: a + 1, 1, False, False),
    "plus": Builtin(lambda a, b: a + b, 2, False, False),
    "rem": Builtin(lambda a, b: a % b if b != 0 else None, 2, False, False),
    "lt": Builtin(lambda a, b: a < b, 2, False, True),
    "le": Builtin(lambda a, b: a <= b, 2, False, True),
    "true": Builtin(lambda: True, 0, True, True),
    "false": Builtin(lambda: False, 0, True, True),
    "not": Builtin(lambda a: not a, 1, True, True),
    "and": Builtin(lambda a, b: a and b, 2, True, True),
    "or": Builtin(lambda a, b: a or b, 2, True, True),
    "eq": Builtin(lambda a, b: a == b, 2, False, True),
}


# ---------------------------------------------------------------------------
# Vocabulary


class Symbol(NamedTuple):
    name: str
    kind: str  # "static" | "dynamic"
    arg_sorts: tuple[str, ...]
    result_sort: str
    is_input: bool = False
    is_output: bool = False

    @property
    def arity(self) -> int:
        return len(self.arg_sorts)


class _VocabularyFields(NamedTuple):
    sorts: tuple[str, ...]
    symbols: dict[str, Symbol]


class Vocabulary(Checked, _VocabularyFields):
    __slots__ = ()

    def _check(self):
        if BOOL not in self.sorts:
            raise ValueError("vocabulary must include the Bool sort")
        for sym in self.symbols.values():
            if sym.is_input and (sym.kind != "static" or sym.arg_sorts):
                raise ValueError(f"input symbol {sym.name} must be a static constant")
            if sym.is_output and sym.kind != "dynamic":
                raise ValueError(f"output symbol {sym.name} must be dynamic")
            for s in sym.arg_sorts + (sym.result_sort,):
                if s not in self.sorts:
                    raise ValueError(f"symbol {sym.name} uses undeclared sort {s}")

    def symbol(self, name: str) -> Symbol:
        try:
            return self.symbols[name]
        except KeyError:
            raise KeyError(f"unknown symbol {name}") from None

    def dynamics(self) -> list[Symbol]:
        return [s for s in self.symbols.values() if s.kind == "dynamic"]

    def outputs(self) -> list[Symbol]:
        return [s for s in self.symbols.values() if s.is_output]


# ---------------------------------------------------------------------------
# Terms over the vocabulary


class TypedTerm(Frozen):
    __slots__ = ()


class TVar(TypedTerm):
    """A term variable (used in initialization terms), with its sort."""

    __slots__ = __match_args__ = ("name", "sort")

    def __init__(self, name: str, sort: str):
        _tvar_name(self, name)
        _tvar_sort(self, sort)


class TApp(TypedTerm):
    """A symbol applied to argument terms (arity 0: a constant)."""

    __slots__ = __match_args__ = ("head", "args")

    def __init__(self, head: str, args: tuple[TypedTerm, ...] = ()):
        _tapp_head(self, head)
        _tapp_args(self, args)


_tvar_name, _tvar_sort = TVar.name.__set__, TVar.sort.__set__
_tapp_head, _tapp_args = TApp.head.__set__, TApp.args.__set__


def term_sort(voc: Vocabulary, t: TypedTerm) -> str:
    if isinstance(t, TVar):
        return t.sort
    sym = voc.symbol(t.head)
    if len(t.args) != sym.arity:
        raise ValueError(f"{t.head} expects {sym.arity} arguments")
    for a, s in zip(t.args, sym.arg_sorts):
        if term_sort(voc, a) != s:
            raise ValueError(f"ill-sorted argument of {t.head}")
    return sym.result_sort


def term_symbols(t: TypedTerm) -> Iterable[str]:
    if isinstance(t, TApp):
        yield t.head
        for a in t.args:
            yield from term_symbols(a)


def is_static_term(voc: Vocabulary, t: TypedTerm) -> bool:
    return all(voc.symbol(h).kind == "static" for h in term_symbols(t))


# ---------------------------------------------------------------------------
# States


class _StateFields(NamedTuple):
    voc: Vocabulary
    carriers: dict[str, tuple]
    statics: dict[str, Callable]
    dynamics: dict[str, dict[tuple, object]]


class State(Checked, _StateFields):
    """Carriers per sort; static interpretations as partial callables on
    payloads; dynamic interpretations as finite tables (missing entry =
    undefined).  States of one run share the tables a step did not
    write, so a table is never changed once its state is built."""

    __slots__ = ()

    def _check(self):
        if tuple(self.carriers.get(BOOL, ())) not in ((True, False), (False, True)):
            raise ValueError("Bool carrier must be {True, False}")

    def with_dynamics(self, dynamics: dict[str, dict[tuple, object]]) -> "State":
        # The carriers are this state's, checked when it was built.
        return tuple.__new__(State, (self.voc, self.carriers, self.statics, dynamics))


def eval_ground(s: State, t: TypedTerm, env: Optional[dict[str, object]] = None):
    """Bottom-up evaluation; returns a payload or None (undefined).

    Undefined propagates strictly: any undefined argument makes the
    application undefined.
    """
    return _evaluator(s, env)(t)


def _evaluator(s: State, env: Optional[dict[str, object]]) -> Callable[[TypedTerm], object]:
    """``eval_ground`` in state ``s``, evaluating each term node at most
    once.  A head names a static when ``s.statics`` has it, else a
    dynamic table.  A nullary node (a dynamic constant or a nullary
    static) is kept by head, so each nullary static runs at most once,
    and as an argument it is read in place, with no call of ``ev``.
    Compound nodes are memoized by ``id``, so the memo is only valid
    while every term it has seen is alive: keep the evaluator for one
    term or one step, never longer."""
    statics = s.statics
    dynamics = s.dynamics
    memo: dict[int, object] = {}  # id(compound node) -> value
    leaves: dict[str, object] = {}  # head of a nullary node -> value

    def leaf(head: str):
        fn = statics.get(head)
        v = leaves[head] = fn() if fn is not None else dynamics[head].get(())
        return v

    def ev(t: TypedTerm):
        if t.__class__ is TVar:
            if env is None or t.name not in env:
                raise ValueError(f"unbound term variable {t.name}")
            return env[t.name]
        if not t.args:
            v = leaves.get(t.head, _UNSEEN)
            return v if v is not _UNSEEN else leaf(t.head)
        v = memo.get(id(t), _UNSEEN)
        if v is not _UNSEEN:
            return v
        argv = []
        for a in t.args:
            if a.__class__ is TApp and not a.args:
                v = leaves.get(a.head, _UNSEEN)
                if v is _UNSEEN:
                    v = leaf(a.head)
            else:
                # A seen argument is read here, without a call.
                v = memo.get(id(a), _UNSEEN)
                if v is _UNSEEN:
                    v = ev(a)
            if v is None:
                break
            argv.append(v)
        else:
            fn = statics.get(t.head)
            v = fn(*argv) if fn is not None else dynamics[t.head].get(tuple(argv))
        memo[id(t)] = v
        return v

    return ev


_UNSEEN = object()


def lift_interpretation(s: State, t: TypedTerm, sigma: tuple[int, ...], p: int):
    """The arity-p function (a_1..a_p) -> t evaluated with its j-th
    variable bound to a_{sigma(j)} (sigma entries are 1-based)."""
    if any(not 1 <= i <= p for i in sigma):
        raise ValueError("sigma entries must lie in 1..p")
    names = _init_var_names(len(sigma))

    def fn(*args):
        if len(args) != p:
            raise ValueError(f"expected {p} arguments")
        env = {names[j]: args[sigma[j] - 1] for j in range(len(sigma))}
        return eval_ground(s, t, env)

    return fn


def _init_var_names(ell: int) -> list[str]:
    return [f"x{j}" for j in range(1, ell + 1)]


class InitRule(NamedTuple):
    """ξ/J entry for one dynamic symbol: variable-position map sigma and
    a static-only term over variables x1..x_len(sigma)."""

    sigma: tuple[int, ...]
    term: TypedTerm


InitMap = dict[str, InitRule]


def initial_dynamics(voc: Vocabulary, s: State, init: InitMap) -> dict[str, dict[tuple, object]]:
    """Tabulate every dynamic symbol from its initialization rule over
    the (finite) carrier grid."""
    out: dict[str, dict[tuple, object]] = {}
    for sym in voc.dynamics():
        rule = init[sym.name]
        fn = lift_interpretation(s, rule.term, rule.sigma, sym.arity)
        table: dict[tuple, object] = {}
        for args in carrier_grid(s, sym.arg_sorts):
            v = fn(*args)
            if v is not None:
                table[args] = v
        out[sym.name] = table
    return out


def carrier_grid(s: State, sorts: tuple[str, ...]):
    """Every argument tuple over the carriers of ``sorts``, the first
    sort outermost; one empty tuple for no sorts."""
    return itertools.product(*(s.carriers[sort] for sort in sorts))


# ---------------------------------------------------------------------------
# Programs


class Program(Frozen):
    """Base of the program nodes.  The class is part of ``==``, so the
    fieldless ``Skip()``, ``HaltI()`` and ``FailI()`` are pairwise
    unequal (``normalize`` tells instructions apart by ``==``)."""

    __slots__ = ()


class Skip(Program):
    __slots__ = ()


class HaltI(Program):
    __slots__ = ()


class FailI(Program):
    __slots__ = ()


class Update(Program):
    __slots__ = __match_args__ = ("symbol", "args", "rhs")

    def __init__(self, symbol: str, args: tuple[TypedTerm, ...], rhs: TypedTerm):
        _update_symbol(self, symbol)
        _update_args(self, args)
        _update_rhs(self, rhs)


class If(Program):
    __slots__ = __match_args__ = ("cond", "then", "orelse")

    def __init__(self, cond: TypedTerm, then: Program, orelse: Program = Skip()):
        _if_cond(self, cond)
        _if_then(self, then)
        _if_orelse(self, orelse)


class Par(Program):
    __slots__ = __match_args__ = ("blocks",)

    def __init__(self, blocks: tuple[Program, ...]):
        _par_blocks(self, blocks)


_update_symbol, _update_args = Update.symbol.__set__, Update.args.__set__
_update_rhs = Update.rhs.__set__
_if_cond, _if_then, _if_orelse = If.cond.__set__, If.then.__set__, If.orelse.__set__
_par_blocks = Par.blocks.__set__


def check_program(voc: Vocabulary, p: Program) -> None:
    if isinstance(p, Update):
        sym = voc.symbol(p.symbol)
        if sym.kind != "dynamic":
            raise ValueError(f"update target {p.symbol} is not dynamic")
        for a, s in zip(p.args, sym.arg_sorts):
            if term_sort(voc, a) != s:
                raise ValueError(f"ill-sorted update argument of {p.symbol}")
        if term_sort(voc, p.rhs) != sym.result_sort:
            raise ValueError(f"ill-sorted update value for {p.symbol}")
    elif isinstance(p, If):
        if term_sort(voc, p.cond) != BOOL:
            raise ValueError("condition must be Boolean")
        check_program(voc, p.then)
        check_program(voc, p.orelse)
    elif isinstance(p, Par):
        for b in p.blocks:
            check_program(voc, b)


# ---------------------------------------------------------------------------
# Step outcomes and runs


class Outcome(NamedTuple):
    kind: str  # continue|halt|implicit-halt|fail|clash
    next_state: Optional[State] = None
    outputs: Optional[dict] = None
    reason: Optional[str] = None


def _outputs(s: State) -> dict:
    out = {}
    for sym in s.voc.outputs():
        table = s.dynamics[sym.name]
        out[sym.name] = table.get(()) if sym.arity == 0 else dict(table)
    return out


def successor(s: State, p: Program) -> Outcome:
    """One ASM step, in one walk of the program that evaluates each term
    node at most once.  An If whose condition is undefined contributes
    nothing.  Outcome precedence: fail (explicit, or an active update
    evaluating to undefined), then clash, then halt, then the empty
    active set (implicit halt), then the updated state.

    The updated state copies only the tables the step writes; every
    other table is the very dict of ``s``.  So consecutive states of a
    run share their unwritten tables, and nothing may change a state's
    table in place."""
    ev = _evaluator(s, None)
    updates: list[Update] = []
    halts = fails = False
    stack = [p]
    while stack:
        q = stack.pop()
        cls = q.__class__
        if cls is If:
            c = ev(q.cond)
            if c is True:
                stack.append(q.then)
            elif c is False:
                stack.append(q.orelse)
        elif cls is Par:
            stack.extend(reversed(q.blocks))
        elif cls is Update:
            updates.append(q)
        elif cls is HaltI:
            halts = True
        elif cls is FailI:
            fails = True
    if fails:
        return Outcome("fail", reason="explicit-fail")
    # Arguments and right-hand sides are evaluated in the current state,
    # in program order, up to the first undefined one.  A second, different
    # value at a location is a clash, reported once every update is defined.
    writes: dict[tuple, object] = {}
    clash = False
    for u in updates:
        argv = []
        for a in u.args:
            v = ev(a)
            if v is None:
                return Outcome("fail", reason="undefined-evaluation")
            argv.append(v)
        rhs = ev(u.rhs)
        if rhs is None:
            return Outcome("fail", reason="undefined-evaluation")
        if writes.setdefault((u.symbol, tuple(argv)), rhs) != rhs:
            clash = True
    if clash:
        return Outcome("clash")
    if halts:
        return Outcome("halt", outputs=_outputs(s))
    if not writes:
        return Outcome("implicit-halt", outputs=_outputs(s))
    # A table is copied at its first write.
    old = s.dynamics
    dynamics = dict(old)
    for (symbol, args), value in writes.items():
        table = dynamics[symbol]
        if table is old[symbol]:
            table = dynamics[symbol] = dict(table)
        table[args] = value
    return Outcome("continue", next_state=s.with_dynamics(dynamics))


class RunResult(NamedTuple):
    outcome: Outcome  # final outcome, or kind "diverged" at the cutoff
    trajectory: tuple[State, ...]
    steps: int

    @property
    def kind(self) -> str:
        return self.outcome.kind


def run_from_state(s: State, p: Program, max_steps: int) -> RunResult:
    trajectory = [s]
    for step in range(max_steps):
        out = successor(s, p)
        if out.kind != "continue":
            return RunResult(out, tuple(trajectory), step)
        s = out.next_state
        trajectory.append(s)
    return RunResult(Outcome("diverged"), tuple(trajectory), max_steps)


class _MachineFields(NamedTuple):
    voc: Vocabulary
    program: Program
    init: InitMap


class Machine(Checked, _MachineFields):
    """A program over a vocabulary, with the initialization rules of its
    dynamic symbols.  Built well-sorted, with one static-only rule per
    dynamic symbol, so a run need not check any of these again."""

    __slots__ = ()

    def _check(self):
        for sym in self.voc.dynamics():
            if sym.name not in self.init:
                raise ValueError(f"dynamic symbol {sym.name} has no init rule")
        check_program(self.voc, self.program)
        for name, rule in self.init.items():
            if not is_static_term(self.voc, rule.term):
                raise ValueError(f"initialization of {name} uses non-static symbols")

    def initial_state(self, base: State) -> State:
        """Fill the dynamic tables of ``base`` from the initialization
        map (base supplies carriers and statics)."""
        return base.with_dynamics(initial_dynamics(self.voc, base, self.init))


def run(machine: Machine, base: State, max_steps: int) -> RunResult:
    return run_from_state(machine.initial_state(base), machine.program, max_steps)
