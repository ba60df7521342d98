"""Compile a machine into a fixpoint combinator that simulates every
step with an exact, constant (K, L) reduction budget.

Pipeline: normalize the program into exclusive guarded clauses, lower
the vocabulary into a constant signature (statics totalized, with
definedness predicates for the partial ones, plus Boolean/equality/
selection builtins and delta-list operations for dynamic symbols of
positive arity), translate every guard, update and exit into lambda
terms over the slots, compositions of constants with no abstraction,
and hand the ordered branch list to the combinator builder.

Guard order mirrors the step semantics: fail (explicit fail, or an
active update evaluating to undefined), then clash, then halt (explicit
or empty active set), then one branch per update clause.  Branches
that can never fire are left out: those whose guard folds to false, and
all that follow a guard that folds to true.  The last branch kept is
theta's untested else-arm, its guard set to true.  Exits land on the
distinguished normal forms: success is the tuple of the numeral 1 with
the outputs, fail is the numeral 2, clash the numeral 3.
"""
from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import NamedTuple, Optional, Sequence

from .asm import (
    BUILTINS,
    FailI,
    HaltI,
    InitRule,
    Machine,
    State,
    Symbol,
    TVar,
    TypedTerm,
    Update,
    Vocabulary,
    _carrier_grid,
    lift_interpretation,
)
from .combinators import (
    Branch,
    CompiledCombinator,
    ExitBranch,
    Slot,
    UpdateBranch,
    build_branch_combinator,
    instantiate,
    decode_state,
)
from .encodings import match_nat, nat
from .lambda_f import (
    BOOL,
    FALSE_TERM,
    TRUE_TERM,
    DeltaType,
    FSignature,
    Value,
    add_connectives,
    code_term,
    install_delta,
    match_code,
)
from .normalize import Clause, normalize
from .records import Fields
from .terms import Abs, App, Const, Term, Var, app

SUCCESS_CODE, FAIL_CODE, CLASH_CODE = 1, 2, 3


# ---------------------------------------------------------------------------
# Boolean algebra over guard terms with constant folding (keeps ground
# Boolean structure out of theta, so no resident F-redexes appear).
# Besides the constants it applies complement (a and not a = false, a or
# not a = true), idempotence (a and a = a, a or a = a) and double
# negation.  These are exact because every guard evaluates, under the
# totalized semantics, to a lambda boolean.

_NOT = Const("not")


def _negates(a: Term, b: Term) -> bool:
    """Whether ``a`` is ``not(b)``."""
    return type(a) is App and a.fun == _NOT and a.arg == b


def gand(a: Term, b: Term) -> Term:
    if a == TRUE_TERM:
        return b
    if b == TRUE_TERM:
        return a
    if a == FALSE_TERM or b == FALSE_TERM:
        return FALSE_TERM
    if a == b:
        return a
    if _negates(a, b) or _negates(b, a):
        return FALSE_TERM
    return app(Const("and"), a, b)


def gor(a: Term, b: Term) -> Term:
    if a == FALSE_TERM:
        return b
    if b == FALSE_TERM:
        return a
    if a == TRUE_TERM or b == TRUE_TERM:
        return TRUE_TERM
    if a == b:
        return a
    if _negates(a, b) or _negates(b, a):
        return TRUE_TERM
    return app(Const("or"), a, b)


def gnot(a: Term) -> Term:
    if a == TRUE_TERM:
        return FALSE_TERM
    if a == FALSE_TERM:
        return TRUE_TERM
    if type(a) is App and a.fun == _NOT:
        return a.arg
    return App(_NOT, a)


_ALGEBRA = {"and": gand, "or": gor, "not": gnot}


def gconj(parts: Sequence[Term]) -> Term:
    out = TRUE_TERM
    for p in parts:
        out = gand(out, p)
    return out


def gdisj(parts: Sequence[Term]) -> Term:
    out = FALSE_TERM
    for p in parts:
        out = gor(out, p)
    return out


class CompileError(Exception):
    pass


# ---------------------------------------------------------------------------
# Signature lowering


def _static_total_on_grid(state: State, sym: Symbol) -> bool:
    fn = state.statics[sym.name]
    return all(fn(*args) is not None for args in _carrier_grid(state, sym.arg_sorts))


def _default(state: State, sort: str):
    return state.carriers[sort][0]


def lower_signature(voc: Vocabulary, state: State, slots: Sequence[Slot]) -> tuple[FSignature, set[str]]:
    """Constant signature for the compiled term: totalized statics,
    definedness predicates for partial ones, Boolean connectives,
    per-sort equality and selection, and delta operations per
    function-sorted dynamic symbol.  Returns (signature, partials)."""
    sig = FSignature()
    partials: set[str] = set()
    for sym in voc.symbols.values():
        if sym.kind != "static" or sym.is_input:
            continue
        fn = state.statics[sym.name]
        if _static_total_on_grid(state, sym):
            sig.add(sym.name, sym.arg_sorts, sym.result_sort, fn)
        else:
            partials.add(sym.name)
            dflt = _default(state, sym.result_sort)

            def totalized(*a, _fn=fn, _d=dflt):
                v = _fn(*a)
                return _d if v is None else v

            def defined(*a, _fn=fn):
                return _fn(*a) is not None

            sig.add(sym.name, sym.arg_sorts, sym.result_sort, totalized)
            sig.add("def_" + sym.name, sym.arg_sorts, BOOL, defined)
    add_connectives(sig)
    eq = BUILTINS["eq"]
    for sort in voc.sorts:
        if sig.get(f"eq_{sort}") is None:
            sig.add(f"eq_{sort}", *eq.profile(sort), eq.fn)
        if sig.get(f"ite_{sort}") is None:
            sig.add(f"ite_{sort}", (BOOL, sort, sort), sort, lambda c, a, b: a if c else b)
    for slot in slots:
        if slot.delta is not None:
            install_delta(sig, slot.delta, totalize_default=_default(state, slot.sort))
    return sig, partials


def make_slots(voc: Vocabulary) -> list[Slot]:
    """One slot per dynamic symbol: a value slot for a constant, a
    difference-list slot for a function."""
    out = []
    for sym in voc.dynamics():
        if sym.arity == 0:
            out.append(Slot(sym.name, sym.result_sort))
        else:
            d = DeltaType(sym.name, sym.arg_sorts, sym.result_sort)
            out.append(Slot(sym.name, d.list_datatype, d))
    return out


def slot_values_for_state(slots: Sequence[Slot], state: State,
                          initial: State) -> tuple[Value, ...]:
    """Slot codes describing ``state`` (delta slots: the tuples where
    the table differs from or extends the initial table, in sorted
    order)."""
    vals = []
    for slot in slots:
        table = state.dynamics[slot.name]
        if slot.delta is None:
            vals.append(Value(slot.datatype, table[()]))
        else:
            init_table = initial.dynamics[slot.name]
            seq = tuple(
                k + (v,)
                for k, v in sorted(table.items(), key=repr)
                if init_table.get(k) != v
            )
            vals.append(Value(slot.datatype, seq))
    return tuple(vals)


def _require_initial_constants(slots: Sequence[Slot], defined) -> None:
    """Raise unless ``defined(name)`` holds of every dynamic constant:
    no slot code can stand for an undefined initial value."""
    for slot in slots:
        if slot.delta is None and not defined(slot.name):
            raise CompileError(
                f"dynamic constant {slot.name} has no defined initial value")


def initial_values(slots: Sequence[Slot], initial: State) -> tuple[Value, ...]:
    """Slot codes for a freshly initialized state: plain values for
    constants (which must be defined), empty difference lists for
    function-sorted symbols."""
    _require_initial_constants(slots, lambda name: () in initial.dynamics[name])
    return slot_values_for_state(slots, initial, initial)


# ---------------------------------------------------------------------------
# Term translation: TypedTerm -> (value term, definedness term)


class Translator(Fields):
    """Translates the source terms of one compile.  A term translated
    without ``env`` is translated once: the normal form repeats each
    condition in many clause guards, and the fail and clash guards read
    the updates again.  That memo is keyed by ``id`` and holds the term,
    so no ``id`` is reused while it lives (memo functions: Michie 1968)."""

    __match_args__ = ("voc", "init", "slots", "partials", "sig")

    def __init__(self, voc: Vocabulary, init: dict[str, InitRule],
                 slots: dict[str, Slot], partials: set[str], sig: FSignature):
        self.voc = voc
        self.init = init
        self.slots = slots
        self.partials = partials
        self.sig = sig
        self._done: dict[int, tuple] = {}  # id(term) -> (term, value, definedness)

    def value_and_def(self, t: TypedTerm, env: Optional[dict[str, Term]] = None):
        if env is None:
            hit = self._done.get(id(t))
            if hit is None:
                hit = self._done[id(t)] = (t, *self._translate(t, None))
            return hit[1:]
        return self._translate(t, env)

    def _translate(self, t: TypedTerm, env: Optional[dict[str, Term]]):
        if isinstance(t, TVar):
            if env is None or t.name not in env:
                raise CompileError(f"unbound term variable {t.name}")
            return env[t.name], TRUE_TERM
        sym = self.voc.symbol(t.head)
        if sym.is_input:  # a variable of theta (CompiledMachine.with_inputs)
            return Var(sym.name), TRUE_TERM
        vals, defs = [], []
        for a in t.args:
            v, d = self.value_and_def(a, env)
            vals.append(v)
            defs.append(d)
        argdef = gconj(defs)
        if sym.kind == "static":
            mydef = (self.apply("def_" + t.head, vals)
                     if t.head in self.partials else TRUE_TERM)
            return self.apply(t.head, vals), gand(argdef, mydef)
        slot = self.slots[sym.name]
        if slot.delta is None:
            return Var(sym.name), argdef
        # function-sorted dynamic symbol: look up the delta list, fall
        # back to the initialization term
        delta = Var(sym.name)
        ival, idef = self.init_value_and_def(sym.name, vals)
        present = self.apply(slot.delta.op_name("B"), (delta, *vals))
        lookup = self.apply(slot.delta.op_name("V"), (delta, *vals))
        value = self.apply(f"ite_{slot.sort}", (present, lookup, ival))
        return value, gand(argdef, gor(present, idef))

    def init_value_and_def(self, dyn_name: str, arg_vals: Sequence[Term]):
        rule = self.init[dyn_name]
        env = {f"x{j+1}": arg_vals[rule.sigma[j] - 1] for j in range(len(rule.sigma))}
        return self.value_and_def(rule.term, env)

    def apply(self, symbol: str, args: Sequence[Term]) -> Term:
        """The constant ``symbol`` applied to ``args``, folded to its code
        when every argument is a code, so theta carries no resident
        F-redex; the fold uses the totalized semantics, which is exact
        wherever the definedness guards let the value matter.  The
        connectives go through the Boolean algebra, so a code beneath
        one simplifies it too."""
        f = self.sig.functions[symbol]
        vals = tuple(match_code(a, dt) for a, dt in zip(args, f.arg_datatypes))
        if None not in vals:
            return code_term(f.apply(vals))
        if symbol in _ALGEBRA:
            return _ALGEBRA[symbol](*args)
        return app(Const(symbol), *args)


# ---------------------------------------------------------------------------
# Compilation


@dataclass(frozen=True)
class CompiledMachine(CompiledCombinator):
    """The compiled combinator of ``machine``, one slot per dynamic
    symbol, with the output symbols that a success exit carries."""

    machine: Machine
    outputs: tuple[Symbol, ...]

    def with_inputs(self, state: State) -> CompiledMachine:
        """The instance, with its own round memo, whose theta binds each
        input to its value in ``state``; ``self`` if it binds those."""
        binding = tuple(Value(s.datatype, state.statics[s.name]()) for s in self.inputs)
        if binding == self.binding:
            return self
        codes = {s.name: code_term(v) for s, v in zip(self.inputs, binding)}
        theta, free = instantiate(self.template, codes, self.sig, self.theta_free)
        return replace(self, theta=theta, theta_free=free, binding=binding)

    def initial_term(self, state: State) -> Term:
        return self.term_of(self.machine.initial_state(state))

    def term_of(self, initial: State) -> Term:
        """Theta, bound to the inputs of the initialised state
        ``initial`` (``with_inputs``), applied to its slot codes."""
        theta = self.with_inputs(initial).theta
        return app(theta, *(code_term(v) for v in initial_values(self.slots, initial)))

    def manifest(self) -> dict:
        return {
            "K": self.K,
            "L": self.L,
            "K_total": self.K + self.L,
            "K_min": self.K_min,
            "L_min": self.L_min,
            "cost": self.cost(),
            "slots": [
                {"symbol": s.name,
                 "representation": "value" if s.delta is None else "delta",
                 "datatype": s.datatype, "sort": s.sort}
                for s in self.slots
            ],
            "outputs": [s.name for s in self.outputs],
            "exit_codes": {"success": SUCCESS_CODE, "fail": FAIL_CODE,
                           "clash": CLASH_CODE},
            "branches": len(self.branches),
            "guard_order": [b.label for b in self.branches],
        }


def _clause_guard(tr: Translator, cl: Clause) -> Term:
    """A_i: every literal defined and matching its expected value."""
    parts = []
    for cond, want in cl.literals:
        v, d = tr.value_and_def(cond)
        parts.append(gand(d, v if want else gnot(v)))
    return gconj(parts)


def _clause_updates(cl: Clause) -> list[Update]:
    return [u for u in cl.instructions if isinstance(u, Update)]


def _update_def(tr: Translator, u: Update) -> Term:
    parts = []
    for a in u.args:
        parts.append(tr.value_and_def(a)[1])
    parts.append(tr.value_and_def(u.rhs)[1])
    return gconj(parts)


def _clause_clash(tr: Translator, voc: Vocabulary, updates: list[Update]) -> Term:
    terms = []
    for i in range(len(updates)):
        for j in range(i + 1, len(updates)):
            u, v = updates[i], updates[j]
            if u.symbol != v.symbol:
                continue
            sym = voc.symbol(u.symbol)
            same_args = gconj([
                tr.apply(f"eq_{s}", (tr.value_and_def(x)[0], tr.value_and_def(y)[0]))
                for x, y, s in zip(u.args, v.args, sym.arg_sorts)
            ])
            diff_val = gnot(tr.apply(
                f"eq_{sym.result_sort}",
                (tr.value_and_def(u.rhs)[0], tr.value_and_def(v.rhs)[0]),
            ))
            terms.append(gand(same_args, diff_val))
    return gdisj(terms)


def _slot_update(tr: Translator, slot: Slot, updates: list[Update]) -> Term:
    mine = [u for u in updates if u.symbol == slot.name]
    if not mine:
        return Var(slot.name)
    if slot.delta is None:
        return tr.value_and_def(mine[0].rhs)[0]
    # delta slot: remove the currently visible tuple for each updated
    # location (read from the accumulated list, so repeated writes to
    # one location keep the list functional), then append the new one
    acc: Term = Var(slot.name)
    d = slot.delta
    for u in mine:
        arg_vals = [tr.value_and_def(a)[0] for a in u.args]
        rhs = tr.value_and_def(u.rhs)[0]
        present = tr.apply(d.op_name("B"), (acc, *arg_vals))
        lookup = tr.apply(d.op_name("V"), (acc, *arg_vals))
        ival, _ = tr.init_value_and_def(slot.name, arg_vals)
        current = tr.apply(f"ite_{slot.sort}", (present, lookup, ival))
        acc = tr.apply(d.op_name("Add"),
                       (tr.apply(d.op_name("Del"), (acc, *arg_vals, current)),
                        *arg_vals, rhs))
    return acc


def compile_machine(
    machine: Machine,
    state: State,
    K: Optional[int] = None,
    L: Optional[int] = None,
) -> CompiledMachine:
    """Compile; ``state`` supplies carriers and static semantics.  Theta
    is built once, with every input the program reads free, and the
    result is its instance for ``state``'s inputs (``with_inputs``).
    (K, L) is the requested per-step budget: L defaults to L_min, and K
    to the least K for that L."""
    voc = machine.voc
    slots = make_slots(voc)
    if not slots:
        raise CompileError("machine has no dynamic symbols")
    gp = normalize(machine.program)
    sig, partials = lower_signature(voc, state, slots)
    tr = Translator(voc, machine.init, {s.name: s for s in slots}, partials, sig)

    clause_guards = [_clause_guard(tr, cl) for cl in gp.clauses]
    update_clauses = [
        (cl, g) for cl, g in zip(gp.clauses, clause_guards) if _clause_updates(cl)
    ]

    fail_parts = []
    for cl, g in zip(gp.clauses, clause_guards):
        if any(isinstance(i, FailI) for i in cl.instructions):
            fail_parts.append(g)
    for cl, g in zip(gp.clauses, clause_guards):
        ups = _clause_updates(cl)
        if ups:
            all_def = gconj([_update_def(tr, u) for u in ups])
            fail_parts.append(gand(g, gnot(all_def)))
    rho_fail = gdisj(fail_parts)

    rho_clash = gdisj([
        gand(g, _clause_clash(tr, voc, _clause_updates(cl)))
        for cl, g in zip(gp.clauses, clause_guards)
        if len(_clause_updates(cl)) > 1
    ])

    explicit_halt = gdisj([
        g for cl, g in zip(gp.clauses, clause_guards)
        if any(isinstance(i, HaltI) for i in cl.instructions)
    ])
    implicit_halt = gnot(gdisj([g for _, g in update_clauses]))
    rho_halt = gor(explicit_halt, implicit_halt)

    outputs = tuple(voc.outputs())
    success_parts = (nat(SUCCESS_CODE), *(Var(sym.name) for sym in outputs))
    branches: list[Branch] = [
        ExitBranch(rho_fail, (nat(FAIL_CODE),), label="fail"),
        ExitBranch(rho_clash, (nat(CLASH_CODE),), label="clash"),
        ExitBranch(rho_halt, success_parts, tuple_form=True, label="halt"),
    ]
    for i, (cl, g) in enumerate(zip(gp.clauses, clause_guards)):
        ups = _clause_updates(cl)
        if ups:
            row = tuple(_slot_update(tr, slot, ups) for slot in slots)
            branches.append(UpdateBranch(g, row, label=f"clause-{i}"))
    # theta selects the first true guard, so neither a guard that folds
    # to false nor any branch after one that folds to true can fire;
    # leaving them out saves their selection and F-work on every step
    kept: list[Branch] = []
    for b in branches:
        if b.guard != FALSE_TERM:
            kept.append(b)
            if b.guard == TRUE_TERM:
                break
    # The list is exhaustive: the halt guard holds not(or of the update
    # guards), so some guard is true under every valuation, and a left
    # out branch is never the first true one.  So whenever every earlier
    # kept guard is false, the last kept guard is true, and theta can
    # take that branch as its else-arm without testing it.
    kept[-1] = kept[-1]._replace(guard=TRUE_TERM)

    # only the nullary init rules are evaluated: tabulating every
    # dynamic function over its carrier would tell nothing more here
    init = machine.init
    _require_initial_constants(slots, lambda name: lift_interpretation(
        state, init[name].term, init[name].sigma, 0)() is not None)
    inputs = [Slot(s.name, s.result_sort) for s in voc.symbols.values() if s.is_input]
    cc = build_branch_combinator(kept, slots, sig, K, L, inputs)
    return CompiledMachine(*(getattr(cc, f.name) for f in fields(cc) if f.init),
                           machine, outputs).with_inputs(state)


# ---------------------------------------------------------------------------
# Result decoding


class DecodedResult(NamedTuple):
    kind: str  # "running" | "success" | "fail" | "clash"
    values: Optional[tuple[Value, ...]] = None  # slots when running
    outputs: Optional[dict] = None  # decoded outputs on success


class DecodeError(Exception):
    """The snapshot matches no compiled shape (a compiler/engine bug)."""


def decode_result(t: Term, cm: CompiledMachine) -> DecodedResult:
    vals = decode_state(t, cm.theta, cm.slots)
    if vals is not None:
        return DecodedResult("running", values=vals)
    n = match_nat(t)
    if n == FAIL_CODE:
        return DecodedResult("fail")
    if n == CLASH_CODE:
        return DecodedResult("clash")
    out = _match_success(t, cm)
    if out is not None:
        return DecodedResult("success", outputs=out)
    raise DecodeError(f"unrecognized result shape: {t!r}")


def _match_success(t: Term, cm: CompiledMachine) -> Optional[dict]:
    if not isinstance(t, Abs):
        return None
    body = t.body
    args = []
    while isinstance(body, App):
        args.append(body.arg)
        body = body.fun
    args.reverse()
    if body != Var(t.binder) or len(args) != 1 + len(cm.outputs):
        return None
    if match_nat(args[0]) != SUCCESS_CODE:
        return None
    out = {}
    for a, sym in zip(args[1:], cm.outputs):
        slot = next(s for s in cm.slots if s.name == sym.name)
        v = match_code(a, slot.datatype)
        if v is None:
            return None
        out[sym.name] = v
    return out


def delta_as_map(v: Value) -> dict[tuple, object]:
    """Interpret a difference-list code as a finite map (later entries
    do not occur for the same key while the list stays functional)."""
    out: dict[tuple, object] = {}
    for entry in v.payload:
        out[entry[:-1]] = entry[-1]
    return out
