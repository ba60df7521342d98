"""Abstract state machine semantics: vocabularies, states as partial
multi-sorted algebras, ground evaluation, initialization maps, programs,
active updates, clash/halt/fail detection, successor states, and runs.

Carrier elements are plain hashable payloads; sorts tag them.  Partial
interpretations return None for "undefined", which propagates strictly
through evaluation.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Optional

BOOL_SORT = "Bool"


# ---------------------------------------------------------------------------
# Vocabulary


@dataclass(frozen=True)
class Symbol:
    name: str
    kind: str  # "static" | "dynamic"
    arg_sorts: tuple[str, ...]
    result_sort: str
    is_input: bool = False
    is_output: bool = False

    @property
    def arity(self) -> int:
        return len(self.arg_sorts)


@dataclass(frozen=True)
class Vocabulary:
    sorts: tuple[str, ...]
    symbols: dict[str, Symbol]

    def __post_init__(self):
        if BOOL_SORT not in self.sorts:
            raise ValueError("vocabulary must include the Bool sort")
        for sym in self.symbols.values():
            if sym.is_input and sym.kind != "static":
                raise ValueError(f"input symbol {sym.name} must be static")
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


class TypedTerm:
    __slots__ = ()


@dataclass(frozen=True, slots=True)
class TVar(TypedTerm):
    """A term variable (used in initialization terms), with its sort."""

    name: str
    sort: str


@dataclass(frozen=True, slots=True)
class TApp(TypedTerm):
    """A symbol applied to argument terms (arity 0: a constant)."""

    head: str
    args: tuple[TypedTerm, ...] = ()


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


@dataclass(frozen=True)
class State:
    """Carriers per sort; static interpretations as partial callables on
    payloads; dynamic interpretations as finite tables (missing entry =
    undefined)."""

    voc: Vocabulary
    carriers: dict[str, tuple]
    statics: dict[str, Callable]
    dynamics: dict[str, dict[tuple, object]]

    def __post_init__(self):
        if tuple(self.carriers.get(BOOL_SORT, ())) not in ((True, False), (False, True)):
            raise ValueError("Bool carrier must be {True, False}")

    def with_dynamics(self, dynamics: dict[str, dict[tuple, object]]) -> "State":
        return State(self.voc, self.carriers, self.statics, dynamics)

    def digest(self) -> tuple:
        """Hashable snapshot of the dynamic part, for trajectory
        comparison."""
        return tuple(
            (name, tuple(sorted(self.dynamics[name].items())))
            for name in sorted(self.dynamics)
        )


def eval_ground(s: State, t: TypedTerm, env: Optional[dict[str, object]] = None):
    """Bottom-up evaluation; returns a payload or None (undefined).

    Undefined propagates strictly: any undefined argument makes the
    application undefined.
    """
    return _evaluator(s, env)(t)


def _evaluator(s: State, env: Optional[dict[str, object]]) -> Callable[[TypedTerm], object]:
    """``eval_ground`` in state ``s``, evaluating each term node at most
    once.  The memo is keyed by ``id``, so it is only valid while every
    term it has seen is alive: keep the evaluator for one term or one
    step, never longer."""
    symbol = s.voc.symbol
    statics = s.statics
    dynamics = s.dynamics
    memo: dict[int, object] = {}

    def ev(t: TypedTerm):
        v = memo.get(id(t), _UNSEEN)
        if v is not _UNSEEN:
            return v
        if isinstance(t, TVar):
            if env is None or t.name not in env:
                raise ValueError(f"unbound term variable {t.name}")
            v = env[t.name]
        else:
            sym = symbol(t.head)
            argv = []
            for a in t.args:
                # A seen argument is read here, without a call.
                v = memo.get(id(a), _UNSEEN)
                if v is _UNSEEN:
                    v = ev(a)
                if v is None:
                    break
                argv.append(v)
            else:
                if sym.kind == "static":
                    v = statics[t.head](*argv)
                else:
                    v = dynamics[t.head].get(tuple(argv))
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


@dataclass(frozen=True)
class InitRule:
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
        if not is_static_term(voc, rule.term):
            raise ValueError(f"initialization of {sym.name} uses non-static symbols")
        fn = lift_interpretation(s, rule.term, rule.sigma, sym.arity)
        table: dict[tuple, object] = {}
        for args in _carrier_grid(s, sym.arg_sorts):
            v = fn(*args)
            if v is not None:
                table[args] = v
        out[sym.name] = table
    return out


def _carrier_grid(s: State, sorts: tuple[str, ...]):
    if not sorts:
        yield ()
        return
    head, rest = sorts[0], sorts[1:]
    for v in s.carriers[head]:
        for tail in _carrier_grid(s, rest):
            yield (v,) + tail


def check_initial(voc: Vocabulary, s: State, init: InitMap) -> None:
    """Verify that the state's dynamic tables equal their initialization
    rules pointwise."""
    expected = initial_dynamics(voc, s, init)
    for name, table in expected.items():
        if s.dynamics.get(name, {}) != table:
            raise ValueError(f"state is not initial for dynamic symbol {name}")


# ---------------------------------------------------------------------------
# Programs


class Program:
    __slots__ = ()


@dataclass(frozen=True, slots=True)
class Skip(Program):
    pass


@dataclass(frozen=True, slots=True)
class HaltI(Program):
    pass


@dataclass(frozen=True, slots=True)
class FailI(Program):
    pass


@dataclass(frozen=True, slots=True)
class Update(Program):
    symbol: str
    args: tuple[TypedTerm, ...]
    rhs: TypedTerm


@dataclass(frozen=True, slots=True)
class If(Program):
    cond: TypedTerm
    then: Program
    orelse: Program = Skip()


@dataclass(frozen=True, slots=True)
class Par(Program):
    blocks: tuple[Program, ...]


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
        if term_sort(voc, p.cond) != BOOL_SORT:
            raise ValueError("condition must be Boolean")
        check_program(voc, p.then)
        check_program(voc, p.orelse)
    elif isinstance(p, Par):
        for b in p.blocks:
            check_program(voc, b)


def program_symbols(p: Program) -> Iterable[str]:
    """Every vocabulary symbol the program body mentions."""
    if isinstance(p, Update):
        yield p.symbol
        for a in p.args:
            yield from term_symbols(a)
        yield from term_symbols(p.rhs)
    elif isinstance(p, If):
        yield from term_symbols(p.cond)
        yield from program_symbols(p.then)
        yield from program_symbols(p.orelse)
    elif isinstance(p, Par):
        for b in p.blocks:
            yield from program_symbols(b)


@dataclass(frozen=True)
class EvaluatedUpdate:
    symbol: str
    args: tuple
    value: object
    source: Update


def detect_clash(updates: list[EvaluatedUpdate]):
    """A witness pair assigning different values to the same location,
    or None.  Order-independent: the lexicographically first conflicting
    location wins."""
    by_loc: dict[tuple, EvaluatedUpdate] = {}
    witnesses = []
    for u in updates:
        loc = (u.symbol, u.args)
        prev = by_loc.get(loc)
        if prev is None:
            by_loc[loc] = u
        elif prev.value != u.value:
            witnesses.append((prev, u))
    if not witnesses:
        return None
    return min(witnesses, key=lambda w: (w[0].symbol, repr(w[0].args)))


# ---------------------------------------------------------------------------
# Step outcomes and runs


@dataclass(frozen=True)
class Outcome:
    kind: str  # continue|halt|implicit-halt|fail|clash
    next_state: Optional[State] = None
    outputs: Optional[dict] = None
    reason: Optional[str] = None
    witness: Optional[tuple] = None

    @property
    def is_final(self) -> bool:
        return self.kind != "continue"


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
    active set (implicit halt), then the updated state."""
    ev = _evaluator(s, None)
    updates: list[Update] = []
    halts = fails = False
    stack = [p]
    while stack:
        q = stack.pop()
        if isinstance(q, If):
            c = ev(q.cond)
            if c is True:
                stack.append(q.then)
            elif c is False:
                stack.append(q.orelse)
        elif isinstance(q, Par):
            stack.extend(reversed(q.blocks))
        elif isinstance(q, Update):
            updates.append(q)
        elif isinstance(q, HaltI):
            halts = True
        elif isinstance(q, FailI):
            fails = True
    if fails:
        return Outcome("fail", reason="explicit-fail")
    # Arguments and right-hand sides are evaluated in the current state,
    # in program order, up to the first undefined one.
    evaluated: list[EvaluatedUpdate] = []
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
        evaluated.append(EvaluatedUpdate(u.symbol, tuple(argv), rhs, u))
    witness = detect_clash(evaluated)
    if witness is not None:
        w = tuple((u.symbol, u.args, u.value) for u in witness)
        return Outcome("clash", witness=w)
    if halts:
        return Outcome("halt", outputs=_outputs(s))
    if not evaluated:
        return Outcome("implicit-halt", outputs=_outputs(s))
    dynamics = {name: dict(table) for name, table in s.dynamics.items()}
    for u in evaluated:
        dynamics[u.symbol][u.args] = u.value
    return Outcome("continue", next_state=s.with_dynamics(dynamics))


@dataclass(frozen=True)
class RunResult:
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


@dataclass(frozen=True)
class Machine:
    voc: Vocabulary
    program: Program
    init: InitMap

    def initial_state(self, base: State) -> State:
        """Fill the dynamic tables of ``base`` from the initialization
        map (base supplies carriers and statics)."""
        return base.with_dynamics(initial_dynamics(self.voc, base, self.init))


def run(machine: Machine, base: State, max_steps: int) -> RunResult:
    check_program(machine.voc, machine.program)
    s = machine.initial_state(base)
    check_initial(machine.voc, s, machine.init)
    return run_from_state(s, machine.program, max_steps)
