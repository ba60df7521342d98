"""Fixpoint and padding toolbox: the Curry fixed point, the padding term
with an exact (K, L) reduction budget, and combinators that advance a
tuple of value slots by one guarded-update step at a constant, exact
(K, L) cost per step.

The one pad, ``pad(K, L)``, keeps its F-work under a binder: it holds
no F-redex until reduction feeds it the code nu1, so the copies of it
that sit under the fixpoint stay inert, and its steps come in the order
beta^(K-2) F^L beta^2.  Its least beta count is 3.

Theta selects its branch in place (``encodings.select_first``): the
guards of branches 1..n-1 sit at the head of its body, and the last
branch is the else-arm.  Its guard must be the constant true, so the
last branch fires exactly when every earlier guard is false; the
compiler's branch list is exhaustive, which lets it set that guard.

Cost anatomy of one step of a branch combinator with k slots and n
branches, built with internal padding (K', L'):

    beta = 1 (fixpoint unfold) + (k+1) (argument loading)
           + 2(n-1) (branch selection) + K' (padding)
    F    = N (every constant node of guards 1..n-1 and of every branch
           body, fired eagerly by the F-first strategy before
           selection) + L' (padding)

Because the F-work happens before the selection, both counts are
independent of the valuation and of which branch fires.  The minima
come from this formula, at the least padding the pad allows
(K' = 3, L' = 0): K_min = k + 2n + 3 and L_min = N.  A compile
builds theta once, with the padding that lands on the requested budget,
and one measurement of that theta on the probe valuations must equal
the formula; lockstep then checks every round against it.

Measurement (``reduce_one_block``) runs the counting engine's shared
loop and stops at the first block boundary: the term is theta applied
to one code per slot, with theta compared by structural equality.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .encodings import identity_chain, select_first
from .engine import _STATUS_BOUNDARY, STATUS_NORMAL, _advance, signature_table
from .good_terms import GCode, GoodTerm, const_count, to_term
from .lambda_f import BOOL, FSignature, code_term, f_redexes, match_code
from .terms import (
    Abs,
    App,
    Const,
    Term,
    Value,
    Var,
    app,
    lam,
)


def curry_fixpoint(f: Term) -> Term:
    """(λx.f(xx))(λx.f(xx)); one leftmost beta step yields f applied to
    the fixpoint itself."""
    x = "x"
    while x in f.fv:
        x += "'"
    half = Abs(x, App(f, App(Var(x), Var(x))))
    return App(half, half)


# The pad's F-work: a chain of the unary Boolean constant omega over
# the code of nu1.
_OMEGA = "not"
_NU1 = Value(BOOL, True)


def pad(K: int, L: int) -> Term:
    """A term P such that F-first leftmost reduction of P X t1...tk
    reaches X t1...tk after exactly K beta steps and L F-steps, in the
    order beta^(K-2) F^L beta^2.

    The omega chain is closed under a binder, so the pad contains no
    F-redex until reduction feeds it nu1: theta carries copies of the
    pad under the fixpoint, where a resident F-redex would be contracted
    out of band.  Requires K >= 3.
    """
    if K < 3:
        raise ValueError("padding needs K >= 3")
    chain: Term = Var("z")
    for _ in range(L):
        chain = App(Const(_OMEGA), chain)
    discard = lam(["x", "y"], Var("y"))
    core = App(Abs("z", App(discard, chain)), code_term(_NU1))
    return identity_chain(K - 3, core)


# ---------------------------------------------------------------------------
# Branch combinators


# ``|`` unions, not typing.Union: typing caches each Union it builds, and
# that cache would keep every copy of this module a re-import leaves behind.
ExitPart = GoodTerm | Term


@dataclass(frozen=True)
class UpdateBranch:
    """Guarded simultaneous update: slot j's next value is updates[j]
    evaluated on the current slot values.  ``label`` names the branch in
    reports."""

    guard: GoodTerm
    updates: tuple[GoodTerm, ...]
    label: str = ""


@dataclass(frozen=True)
class ExitBranch:
    """Guarded exit.  ``parts`` are good terms over the slots or closed
    F-redex-free lambda terms; a single part is emitted bare unless
    ``tuple_form`` forces the tuple wrapper.  ``label`` names the branch
    in reports."""

    guard: GoodTerm
    parts: tuple[ExitPart, ...]
    tuple_form: bool = False
    label: str = ""

    def __post_init__(self):
        if not self.parts:
            raise ValueError("exit branch needs at least one part")


Branch = UpdateBranch | ExitBranch


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

    def cost(self) -> dict:
        """The parts of (K, L) by the formula in the module docstring."""
        return step_cost(self.k, self.branches,
                         _MIN_PAD_K + self.K - self.K_min, self.L - self.L_min)


def _part_term(p: ExitPart) -> Term:
    return to_term(p) if isinstance(p, GoodTerm) else p


def _part_consts(p: ExitPart) -> int:
    return const_count(p) if isinstance(p, GoodTerm) else 0


def branch_f_work(b: Branch) -> int:
    """N_i: constant nodes of one guard and its branch body.  The last
    guard is the constant true, with no constant node, and theta leaves
    it out."""
    if isinstance(b, UpdateBranch):
        body = sum(const_count(u) for u in b.updates)
    else:
        body = sum(_part_consts(p) for p in b.parts)
    return const_count(b.guard) + body


def static_f_work(branches: Sequence[Branch]) -> int:
    """N: constant nodes over all guards and branch bodies — the F-cost
    the F-first strategy pays on every step regardless of selection."""
    return sum(branch_f_work(b) for b in branches)


# The least beta count of the pad.
_MIN_PAD_K = 3

# The guard of the last branch, which theta selects as the else-arm.
_ELSE_GUARD = GCode(Value(BOOL, True))


def step_cost(k: int, branches: Sequence[Branch], pad_K: int, pad_L: int) -> dict:
    """The parts of one step's cost with k slots and internal padding
    (pad_K, pad_L): K is unfold + load + select + pad_K, and L is the
    sum of F_branches plus pad_L."""
    return {"unfold": 1, "load": k + 1, "select": 2 * (len(branches) - 1),
            "pad_K": pad_K, "F_branches": [branch_f_work(b) for b in branches],
            "pad_L": pad_L}


def _build_theta(
    branches: Sequence[Branch],
    slots: Sequence[Slot],
    k_prime: int,
    l_prime: int,
) -> Term:
    names = [s.name for s in slots]
    w = "w"
    while w in names:
        w += "'"
    padding = pad(k_prime, l_prime)
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
    guards = [to_term(b.guard) for b in branches[:-1]]
    body = select_first(guards, branch_terms)
    g = lam([w] + names, body)
    if g.fv:
        raise ValueError(f"combinator body has stray free variables: {g.fv}")
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
    head is compared with theta by ``==``, which is exact for the reason
    ``reduce_one_block`` gives."""
    peeled = _peel(t, slots)
    if peeled is None or peeled[0] != theta:
        return None
    return peeled[1]


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


def _certify(
    theta: Term,
    slots: Sequence[Slot],
    sig: FSignature,
    probes: Sequence[dict[str, Value]],
    want: tuple[int, int],
) -> None:
    """Measure one block of theta from every probe valuation; each must
    cost exactly ``want``."""
    for val in probes:
        start = app(theta, *(code_term(val[s.name]) for s in slots))
        block = reduce_one_block(start, theta, slots, sig)
        got = (block.beta_count, block.f_count)
        if got != want:
            raise RuntimeError(f"cost formula gives (K,L)={want} but theta "
                               f"measures {got} from probe {val}")


def build_branch_combinator(
    branches: Sequence[Branch],
    slots: Sequence[Slot],
    sig: FSignature,
    probes: Sequence[dict[str, Value]],
    K: Optional[int] = None,
    L: Optional[int] = None,
) -> CompiledCombinator:
    """Build theta for an ordered guarded-branch list with an exact
    per-step cost (K, L).

    The branches are in priority order, and the last one is the
    else-arm: its guard must be the constant true (ValueError
    otherwise), so the list is exhaustive and the last branch fires
    exactly when every earlier guard is false.

    The minima come from the cost formula: K_min = k + 2n + 3 and
    L_min = N (``static_f_work``).  With K/L omitted the minima are
    used; otherwise internal padding is raised to land exactly on the
    requested budget, and a request below the minima is rejected.
    Theta is built once, and one measurement of it on every probe
    valuation must equal the formula (RuntimeError otherwise); lockstep
    checks every round against the same (K, L).
    """
    if not branches:
        raise ValueError("need at least one branch")
    if branches[-1].guard != _ELSE_GUARD:
        raise ValueError("the last branch is the else-arm: its guard must "
                         "be the constant true")
    if not probes:
        raise ValueError("need at least one probe valuation")
    least = step_cost(len(slots), branches, _MIN_PAD_K, 0)
    k_min = least["unfold"] + least["load"] + least["select"] + least["pad_K"]
    l_min = static_f_work(branches)
    K = k_min if K is None else K
    L = l_min if L is None else L
    if K < k_min or L < l_min:
        raise ValueError(f"requested (K,L)=({K},{L}) below the minima ({k_min},{l_min})")
    theta = _build_theta(branches, slots, _MIN_PAD_K + K - k_min, L - l_min)
    if f_redexes(theta, sig):
        raise ValueError("combinator body contains a resident F-redex; "
                         "fold ground constant subterms to codes first")
    _certify(theta, slots, sig, probes, (K, L))
    return CompiledCombinator(theta, K, L, tuple(slots), tuple(branches), k_min, l_min)
