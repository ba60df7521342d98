"""Fixpoint and padding toolbox: the Curry fixed point, padding terms
with exact (K, L) reduction budgets, and combinators that advance a
tuple of value slots by one guarded-update step at a constant, exact
(K, L) cost per step.

Cost anatomy of one step of a branch combinator with k slots and n
branches, built with internal padding (K', L'):

    beta = 1 (fixpoint unfold) + (k+1) (argument loading)
           + 4n (branch selection) + K' (padding)
    F    = N (every constant node of every guard and every branch body,
           fired eagerly by the F-first strategy before selection)
           + L' (padding)

Because the F-work happens before the selection, both counts are
independent of the valuation and of which branch fires.  Minima are
determined by measurement, never assumed.

Measurement (``reduce_one_block``) runs the counting engine's shared
loop and stops at the first block boundary: the term is theta applied
to one code per slot, with theta compared by structural equality.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

from .encodings import case_n, identity_chain, I_TERM
from .engine import _STATUS_BOUNDARY, STATUS_NORMAL, _advance, signature_table
from .good_terms import GoodTerm, const_count, to_term
from .lambda_f import BOOL, FSignature, code_term, f_redexes, match_code
from .terms import (
    Abs,
    App,
    Term,
    Value,
    Var,
    alpha_eq,
    app,
    free_vars,
    lam,
)


def curry_fixpoint(f: Term) -> Term:
    """(λx.f(xx))(λx.f(xx)); one leftmost beta step yields f applied to
    the fixpoint itself."""
    x = "x"
    while x in free_vars(f):
        x += "'"
    half = Abs(x, App(f, App(Var(x), Var(x))))
    return App(half, half)


@dataclass(frozen=True)
class PadSpec:
    """Target beta count K and F count L for a padding term.  The pad
    work is carried by ``omega`` (a unary Boolean constant) applied to
    the code of ``nu1``."""

    K: int
    L: int
    omega: str = "not"
    nu1: Value = Value(BOOL, True)


def pad(spec: PadSpec, f_redex_free: bool = False) -> Term:
    """A term P such that leftmost reduction of P X t1...tk reaches
    X t1...tk after exactly spec.K beta steps and spec.L F-steps.

    Default variant: the F-work sits in an omega chain over the nu1
    code, so under the F-first strategy all L F-steps fire strictly
    before the K beta steps — but the pad itself contains F-redexes.

    ``f_redex_free``: the omega chain is closed under a binder, so the
    pad contains no F-redex until reduction feeds it nu1; the F-steps
    then land mid-way through the beta steps.  Needed wherever the pad
    sits under the fixpoint (a resident F-redex would be contracted out
    of band).  Requires K >= 3.
    """
    K, L = spec.K, spec.L

    def omega_chain(t: Term) -> Term:
        from .terms import Const

        for _ in range(L):
            t = App(Const(spec.omega), t)
        return t

    discard = lam(["x", "y"], Var("y"))
    if f_redex_free:
        if K < 3:
            raise ValueError("F-redex-free padding needs K >= 3")
        core = App(Abs("z", App(discard, omega_chain(Var("z")))), code_term(spec.nu1))
        return _i_apply(K - 3, core)
    if L == 0:
        if K < 1:
            raise ValueError("padding needs K >= 1")
        return _i_apply(K - 1, I_TERM)
    if K < 2:
        raise ValueError("padding with F-work needs K >= 2")
    return _i_apply(K - 2, App(discard, omega_chain(code_term(spec.nu1))))


def _i_apply(n: int, t: Term) -> Term:
    """I applied n times in front of t (n inert beta steps on arrival)."""
    for _ in range(n):
        t = App(I_TERM, t)
    return t


# ---------------------------------------------------------------------------
# Branch combinators


ExitPart = Union[GoodTerm, Term]


@dataclass(frozen=True)
class UpdateBranch:
    """Guarded simultaneous update: slot j's next value is updates[j]
    evaluated on the current slot values."""

    guard: GoodTerm
    updates: tuple[GoodTerm, ...]


@dataclass(frozen=True)
class ExitBranch:
    """Guarded exit.  ``parts`` are good terms over the slots or closed
    F-redex-free lambda terms; a single part is emitted bare unless
    ``tuple_form`` forces the tuple wrapper."""

    guard: GoodTerm
    parts: tuple[ExitPart, ...]
    tuple_form: bool = False

    def __post_init__(self):
        if not self.parts:
            raise ValueError("exit branch needs at least one part")


Branch = Union[UpdateBranch, ExitBranch]


@dataclass(frozen=True)
class Slot:
    name: str
    datatype: str


@dataclass(frozen=True)
class CompiledCombinator:
    theta: Term
    K: int
    L: int
    slots: tuple[Slot, ...]
    branches: tuple[Branch, ...]
    K_min: int
    L_min: int

    @property
    def k(self) -> int:
        return len(self.slots)


def _part_term(p: ExitPart) -> Term:
    return to_term(p) if isinstance(p, GoodTerm) else p


def _part_consts(p: ExitPart) -> int:
    return const_count(p) if isinstance(p, GoodTerm) else 0


def static_f_work(branches: Sequence[Branch]) -> int:
    """N: constant nodes over all guards and branch bodies — the F-cost
    the F-first strategy pays on every step regardless of selection."""
    n = 0
    for b in branches:
        n += const_count(b.guard)
        if isinstance(b, UpdateBranch):
            n += sum(const_count(u) for u in b.updates)
        else:
            n += sum(_part_consts(p) for p in b.parts)
    return n


def _build_theta(
    branches: Sequence[Branch],
    slots: Sequence[Slot],
    k_prime: int,
    l_prime: int,
    pad_spec_base: PadSpec,
) -> Term:
    names = [s.name for s in slots]
    w = "w"
    while w in names:
        w += "'"
    padding = pad(
        PadSpec(k_prime, l_prime, pad_spec_base.omega, pad_spec_base.nu1),
        f_redex_free=True,
    )
    branch_terms: list[Term] = []
    for b in branches:
        if isinstance(b, UpdateBranch):
            if len(b.updates) != len(slots):
                raise ValueError("update row length must equal the slot count")
            branch_terms.append(app(padding, Var(w), *(to_term(u) for u in b.updates)))
        else:
            if len(b.parts) == 1 and not b.tuple_form:
                payload = _part_term(b.parts[0])
            else:
                z = "z"
                payload = Abs(z, app(Var(z), *(_part_term(p) for p in b.parts)))
            branch_terms.append(App(padding, payload))
    guards = [to_term(b.guard) for b in branches]
    body = app(case_n(len(branches)), *branch_terms, *guards)
    g = lam([w] + names, body)
    if free_vars(g):
        raise ValueError(f"combinator body has stray free variables: {free_vars(g)}")
    return curry_fixpoint(g)


@dataclass(frozen=True)
class BlockResult:
    """One lockstep block: the term at the boundary, its exact cost,
    and whether the boundary is a new state or an exit normal form."""

    term: Term
    beta_count: int
    f_count: int
    kind: str  # "state" | "exit"
    values: Optional[tuple[Value, ...]]  # decoded slots when kind == "state"


def _peel(t: Term, slots: Sequence[Slot]) -> Optional[tuple[Term, tuple[Value, ...]]]:
    """Peel exactly one application per slot off ``t``, each argument a
    code of its slot's datatype: (what remains, slot values), else None.
    (theta itself is an application, so the full spine would
    over-unwind.)"""
    vals: list[Value] = []
    for s in reversed(slots):
        if type(t) is not App:
            return None
        v = match_code(t.arg, s.datatype)
        if v is None:
            return None
        vals.append(v)
        t = t.fun
    return t, tuple(reversed(vals))


def decode_state(t: Term, theta: Term, slots: Sequence[Slot]) -> Optional[tuple[Value, ...]]:
    """Decode ``theta code...code`` into slot values, else None.  The
    head is compared with theta structurally first and up to alpha only
    when that fails."""
    peeled = _peel(t, slots)
    if peeled is None:
        return None
    head, vals = peeled
    if head != theta and not alpha_eq(head, theta):
        return None
    return vals


def reduce_one_block(
    t: Term,
    theta: Term,
    slots: Sequence[Slot],
    sig: FSignature,
    max_steps: int = 100_000,
) -> BlockResult:
    """Reduce F-first leftmost until the term is again theta applied to
    slot codes, or until normal form (an exit).

    Runs the engine's shared loop and checks the boundary after every
    step: peel one slot code per slot, then compare what remains with
    theta by ``==``.  Structural equality is exact here because theta is
    closed: substitution never enters a closed term, so the engine never
    renames a binder inside theta's copies.  Raises RuntimeError when
    the block does not complete within ``max_steps`` and
    UndefinedApplication when a partial function is applied outside its
    domain.
    """
    def at_boundary(s: Term) -> bool:
        peeled = _peel(s, slots)
        return peeled is not None and peeled[0] == theta

    t, beta, f, status = _advance(t, signature_table(sig), max_steps, at_boundary)
    if status == STATUS_NORMAL:
        return BlockResult(t, beta, f, "exit", None)
    if status == _STATUS_BOUNDARY:
        return BlockResult(t, beta, f, "state", _peel(t, slots)[1])
    raise RuntimeError("block did not complete within the step budget")


def _measure(
    theta: Term,
    slots: Sequence[Slot],
    sig: FSignature,
    probes: Sequence[dict[str, Value]],
) -> tuple[int, int]:
    costs = set()
    for val in probes:
        start = app(theta, *(code_term(val[s.name]) for s in slots))
        block = reduce_one_block(start, theta, slots, sig)
        costs.add((block.beta_count, block.f_count))
    if len(costs) != 1:
        raise RuntimeError(f"per-step cost is not constant over probes: {sorted(costs)}")
    return costs.pop()


def build_branch_combinator(
    branches: Sequence[Branch],
    slots: Sequence[Slot],
    sig: FSignature,
    probes: Sequence[dict[str, Value]],
    K: Optional[int] = None,
    L: Optional[int] = None,
    pad_spec: PadSpec = PadSpec(3, 0),
) -> CompiledCombinator:
    """Build theta for an ordered guarded-branch list and certify its
    exact per-step (K, L) by measurement on the probe valuations.

    With K/L omitted the measured minima are used; otherwise internal
    padding is raised to land exactly on the requested budget.
    """
    if not branches:
        raise ValueError("need at least one branch")
    if not probes:
        raise ValueError("need at least one probe valuation")
    base = _build_theta(branches, slots, 3, 0, pad_spec)
    if f_redexes(base, sig):
        raise ValueError("combinator body contains a resident F-redex; "
                         "fold ground constant subterms to codes first")
    k_min, l_min = _measure(base, slots, sig, probes)
    K = k_min if K is None else K
    L = l_min if L is None else L
    if K < k_min or L < l_min:
        raise ValueError(f"requested (K,L)=({K},{L}) below measured minima ({k_min},{l_min})")
    theta = _build_theta(branches, slots, 3 + (K - k_min), L - l_min, pad_spec)
    got = _measure(theta, slots, sig, probes)
    if got != (K, L):
        raise RuntimeError(f"padding did not land on ({K},{L}): measured {got}")
    return CompiledCombinator(theta, K, L, tuple(slots), tuple(branches), k_min, l_min)


def build_update_combinator(
    phis: Sequence[GoodTerm],
    slots: Sequence[Slot],
    sig: FSignature,
    probes: Sequence[dict[str, Value]],
    K: Optional[int] = None,
    L: Optional[int] = None,
) -> CompiledCombinator:
    """Unconditional simultaneous update: one always-firing branch."""
    branch = UpdateBranch(_true_guard(), tuple(phis))
    return build_branch_combinator([branch], slots, sig, probes, K, L)


def build_conditional_combinator(
    rhos: Sequence[GoodTerm],
    phi_rows: Sequence[Sequence[GoodTerm]],
    gammas: Sequence[GoodTerm],
    slots: Sequence[Slot],
    sig: FSignature,
    probes: Sequence[dict[str, Value]],
    K: Optional[int] = None,
    L: Optional[int] = None,
) -> CompiledCombinator:
    """Guard list rho_1..rho_{p+q}: the first p guards select update
    rows, the last q select bare exits.  First true guard wins."""
    p, q = len(phi_rows), len(gammas)
    if len(rhos) != p + q:
        raise ValueError("need one guard per update row plus one per exit")
    branches: list[Branch] = [
        UpdateBranch(rhos[i], tuple(phi_rows[i])) for i in range(p)
    ] + [ExitBranch(rhos[p + j], (gammas[j],)) for j in range(q)]
    return build_branch_combinator(branches, slots, sig, probes, K, L)


def _true_guard() -> GoodTerm:
    from .good_terms import GCode

    return GCode(Value(BOOL, True))
