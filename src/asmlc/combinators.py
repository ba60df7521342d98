"""Fixpoint toolbox: the Curry fixed point, and combinators that
advance a tuple of value slots by one guarded-update step at a constant,
exact (K, L) cost per step.

Theta selects its branch in place (``encodings.select_first``): the
guards of branches 1..n-1 sit at the head of its body, and the last
branch is the else-arm.  Its guard must be the constant true, so the
last branch fires exactly when every earlier guard is false; the
compiler's branch list is exhaustive, which lets it set that guard.

Theta pads once, at the head of its body.  With internal padding
(K', 0) the body is ``I^{K'} B``, B the selection over bare branches:
an update branch is ``w u1..uk`` and an exit branch its payload.  With
L' > 0 one discard binding releases the F-steps:

    I^{K'-1} ((lambda d. B) (not^{L'-1} (e x1)))

where ``e x1`` is a Boolean test of the first slot that the signature
already holds: ``eq_<sort> x1 x1`` for a value slot, ``F_<symbol> x1``
for a difference-list slot.  x1 is bound inside theta, so the chain is
no resident F-redex; loading the slot releases its L' F-steps, and
dropping it costs one beta.  So F-padding needs K' >= 1.

Cost anatomy of one step of a branch combinator with k slots and n
branches, built with internal padding (K', L'):

    beta = 1 (fixpoint unfold) + (k+1) (argument loading)
           + 2(n-1) (branch selection) + K' (padding: the identity
           chain, plus the discard beta when L' > 0)
    F    = N (every constant node of guards 1..n-1 and of every branch
           body, fired eagerly by the F-first strategy before
           selection) + L' (padding)

Because the F-work happens before the selection, both counts are
independent of the valuation and of which branch fires.  The minima
come from this formula at K' = L' = 0: K_min = k + 2n and L_min = N;
a budget with L > L_min needs K >= K_min + 1.  A compile builds theta
once, with the padding that lands on the requested budget, and
certifies it (``certify``) by one abstract block: theta applied to one
abstract code per slot, forked at each guard it selects on, so one path
per branch.  Every path must cost exactly the formula, which then holds
from every valuation, and no machine step is run; lockstep checks every
round against the same (K, L).

One driver (``blocks``) runs every block, abstract or concrete, to the
next boundary (``decode_state``, the only boundary test) or a normal
form, forking on an abstract Boolean: the certificate runs it from
abstract codes, and a failed lockstep round's note from the round's
start.

Theta must hold no resident F-redex: one would fire once, at the first
step, and never again, so no constant per-step cost could hold.  The
builder checks this with the engine's own search (``engine.scan``),
whose memo of theta's F-free nodes the combinator keeps with its
signature.  The certificate and every lockstep round start from that
memo, so no round searches theta again; and since theta holds no
F-redex, a boundary term is F-normal, which lets the engine test the
boundary once per F-phase.  A machine's inputs are free in theta:
``instantiate`` binds them and folds the constant nodes over inputs and
codes alone, which N leaves out, and the certificate binds each input to
an abstract code.  Each memo grows from the one before it: an instance's
starts from the template's, and one copy of it serves every path of a
certificate (``blocks``), so no F-phase of a compile walks a node that
an earlier one found F-free.
"""
from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Sequence

from .encodings import _fresh_binder, identity_chain, select_first, tup
from .engine import (
    _STATUS_FORK,
    STATUS_RAN,
    _advance,
    _rebuild,
    _Reducer,
    _subst,
    _unwind,
    scan,
)
from .lambda_f import BOOL, TRUE_TERM, UNKNOWN_BOOL, DeltaType, FSignature, bool_term, match_code
from .records import Checked
from .terms import Abs, App, Const, Term, Unknown, Value, Var, app, lam, spine


def curry_fixpoint(f: Term) -> Term:
    """(λx.f(xx))(λx.f(xx)); one leftmost beta step yields f applied to
    the fixpoint itself."""
    x = _fresh_binder("x", f.fv)
    half = Abs(x, App(f, App(Var(x), Var(x))))
    return App(half, half)


# ---------------------------------------------------------------------------
# Branch combinators


class UpdateBranch(NamedTuple):
    """Guarded simultaneous update: slot j's next value is updates[j]
    evaluated on the current slot values.  ``label`` names the branch in
    reports."""

    guard: Term
    updates: tuple[Term, ...]
    label: str = ""


class _ExitBranchFields(NamedTuple):
    guard: Term
    parts: tuple[Term, ...]
    tuple_form: bool = False
    label: str = ""


class ExitBranch(Checked, _ExitBranchFields):
    """Guarded exit.  ``parts`` are good terms over the slots, or other
    lambda terms with no F-redex such as numerals; a single part is
    emitted bare unless ``tuple_form`` forces the tuple wrapper.
    ``label`` names the branch in reports."""

    __slots__ = ()

    def _check(self):
        if not self.parts:
            raise ValueError("exit branch needs at least one part")


Branch = UpdateBranch | ExitBranch


class Slot(NamedTuple):
    """One argument of theta.  A value slot (``delta`` None) holds a
    code of ``datatype``; a difference-list slot holds a code of
    ``datatype``, the list datatype of ``delta``, standing for a
    function whose values are of ``delta.result_datatype``."""

    name: str
    datatype: str
    delta: Optional[DeltaType] = None

    @property
    def sort(self) -> str:
        """The sort of the slot's symbol's values."""
        return self.datatype if self.delta is None else self.delta.result_datatype


class Certificate(NamedTuple):
    """What certifying theta's (K, L) took: the paths of its abstract
    block, one per branch that theta's selection can reach, and the
    engine steps over all of them, each shared prefix counted once."""

    paths: int
    steps: int


@dataclass(frozen=True)
class CompiledCombinator:
    """The record of one build, each fact held once: theta, its budget
    (K, L) and minima, its slots and branches, the signature it runs
    under with the scan's memo of theta, its certificate, and the inputs
    it binds.  ``compiler.CompiledMachine`` extends it with the machine
    and its outputs."""

    theta: Term
    K: int
    L: int
    slots: tuple[Slot, ...]
    branches: tuple[Branch, ...]
    K_min: int
    L_min: int
    # The signature theta was built over, and the memo of the residency
    # scan: theta's nodes with no F-redex under it.
    sig: FSignature = field(compare=False, repr=False)
    theta_free: dict = field(compare=False, repr=False)
    certificate: Certificate = field(compare=False)
    # The inputs free in theta as built (template), and their codes in theta.
    inputs: tuple[Slot, ...]
    template: Term = field(compare=False, repr=False)
    binding: tuple[Value, ...]
    # Lockstep's round memo (engine module docstring): a round's start
    # slot codes to its result and decoding, under this theta, signature
    # and budget.  Not an init field, so a record made by
    # dataclasses.replace starts with an empty one.
    round_memo: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    @property
    def k(self) -> int:
        return len(self.slots)

    def cost(self) -> dict:
        """The parts of (K, L) by the formula in the module docstring."""
        return step_cost(self.k, self.branches, self.K - self.K_min, self.L - self.L_min,
                         frozenset(s.name for s in self.inputs))


def const_count(t: Term, inputs: frozenset = frozenset()) -> int:
    """Number of constant nodes: the exact F-cost of full reduction.
    Once the variables of an abstraction-free composition of constants
    carry codes, every node's arguments reduce to codes, so leftmost
    reduction fires each node once: the cost is the node count, whatever
    the values.  A node whose variables are all in ``inputs``, one at
    least, is left out: binding the inputs folds it first
    (``instantiate``)."""
    head, args = spine(t)
    if type(head) is not Const:
        return 0
    return (not t.fv or not t.fv <= inputs) + sum(const_count(a, inputs) for a in args)


def branch_f_work(b: Branch, inputs: frozenset = frozenset()) -> int:
    """N_i: constant nodes of one guard and its branch body, less those
    over ``inputs`` and codes alone.  The last guard is the constant
    true, with no constant node, and theta leaves it out."""
    parts = b.updates if isinstance(b, UpdateBranch) else b.parts
    return sum(const_count(p, inputs) for p in (b.guard, *parts))


def static_f_work(branches: Sequence[Branch], inputs: frozenset = frozenset()) -> int:
    """N: constant nodes over all guards and branch bodies — the F-cost
    the F-first strategy pays on every step regardless of selection."""
    return sum(branch_f_work(b, inputs) for b in branches)


def step_cost(k: int, branches: Sequence[Branch], pad_K: int, pad_L: int,
              inputs: frozenset = frozenset()) -> dict:
    """The parts of one step's cost with k slots and internal padding
    (pad_K, pad_L): K is unfold + load + select + pad_K, and L is the
    sum of F_branches plus pad_L."""
    return {"unfold": 1, "load": k + 1, "select": 2 * (len(branches) - 1),
            "pad_K": pad_K, "F_branches": [branch_f_work(b, inputs) for b in branches],
            "pad_L": pad_L}


def _slot_test(slots: Sequence[Slot], sig: FSignature) -> Term:
    """``e x1``: a Boolean test of the first slot that ``sig`` holds,
    ``eq_<sort> x1 x1`` for a value slot or ``F_<symbol> x1`` for a
    difference-list slot (``lambda_f.install_delta``'s name)."""
    if slots:
        x = slots[0]
        for name in (f"eq_{x.datatype}", f"F_{x.name}"):
            f = sig.get(name)
            if f is not None and f.result_datatype == BOOL and \
                    set(f.arg_datatypes) == {x.datatype}:
                return app(Const(name), *[Var(x.name)] * f.arity)
    raise ValueError("F-padding needs a Boolean test of the first slot "
                     "in the signature")


def _build_theta(
    branches: Sequence[Branch],
    slots: Sequence[Slot],
    inputs: frozenset,
    sig: FSignature,
    k_prime: int,
    l_prime: int,
) -> Term:
    names = [s.name for s in slots]
    w = _fresh_binder("w", inputs.union(names))
    branch_terms: list[Term] = []
    for b in branches:
        if isinstance(b, UpdateBranch):
            if len(b.updates) != len(slots):
                raise ValueError("update row length must equal the slot count")
            branch_terms.append(app(Var(w), *b.updates))
        elif len(b.parts) == 1 and not b.tuple_form:
            branch_terms.append(b.parts[0])
        else:
            branch_terms.append(tup(*b.parts))
    guards = [b.guard for b in branches[:-1]]
    body = select_first(guards, branch_terms)
    if l_prime:
        chain = _slot_test(slots, sig)
        for _ in range(l_prime - 1):
            chain = App(Const("not"), chain)
        d = _fresh_binder("d", inputs.union(names, (w,)))
        body = App(Abs(d, body), chain)
        k_prime -= 1
    g = lam([w] + names, identity_chain(k_prime, body))
    if g.fv - inputs:
        raise ValueError(f"combinator body has stray free variables: {g.fv - inputs}")
    return curry_fixpoint(g)


def instantiate(template: Term, codes: dict[str, Term], sig: FSignature,
                template_free: dict) -> tuple[Term, dict]:
    """Theta with each input bound to its closed code in ``codes``, and
    a memo of its F-free nodes: one simultaneous substitution, then one
    uncounted F-phase, whose walk memoizes every constant node it
    leaves.  Both run on one ``half`` of the fixpoint ``half half``,
    which so stays shared.  The phase starts from a copy of
    ``template_free``, the template's memo: the substitution keeps every
    node that no input reaches, so those are memo hits, and the phase
    walks only the rebuilt paths.  The memo returned holds the
    template's nodes too; every one is F-free under ``sig``.  The phase
    runs to its end: a compiled signature's functions are total."""
    half = _subst(template.fun, codes)
    r = _Reducer(sig, dict(template_free))
    half = r.f_phase(half, sys.maxsize)[0]
    theta = App(half, half)
    r.f_free[id(theta)] = theta
    return theta, r.f_free


def _abstract_code(s: Slot) -> Term:
    return UNKNOWN_BOOL if s.datatype == BOOL else Unknown(s.datatype)


def decode_state(t: Term, theta: Term, slots: Sequence[Slot]) -> Optional[tuple]:
    """The slot values of ``t`` when it is theta applied to one code per
    slot, else None: the block boundary.  An abstract code of the slot's
    datatype stands for itself.  One application per slot is peeled
    (theta is an application too), and the rest compared with theta by
    ``==``, exact as theta is closed: the engine never renames a binder
    inside a copy of it."""
    vals = []
    for s in reversed(slots):
        if type(t) is not App:
            return None
        a, dt = t.arg, s.datatype
        v = match_code(a, dt)
        if v is None:
            if not (type(a) is Unknown and a.datatype == dt
                    or a is UNKNOWN_BOOL and dt == BOOL):
                return None
            v = a
        vals.append(v)
        t = t.fun
    if t != theta:
        return None
    vals.reverse()
    return tuple(vals)


def blocks(start: Term, theta: Term, slots: Sequence[Slot], sig: FSignature,
           theta_free: Optional[dict], budget: int) -> tuple[list, int]:
    """Reduce ``start`` F-first leftmost, through the engine's shared
    loop, to the next block boundary or a normal form, within ``budget``
    steps.  Where the next beta step would contract the abstract Boolean
    at the head of the term, the run forks: it goes on from FALSE and
    from TRUE in its place, rebuilding only that spine.  A concrete
    start has the one path ``()``.

    Returns the end of every path, in the order reached, as (path,
    term, beta, F, engine status: a boundary, STATUS_NORMAL, STATUS_RAN
    at the budget, or a fork off the head); and the engine steps over
    all paths, each shared prefix counted once.  ``sig`` and
    ``theta_free`` are the combinator's (``engine.scan``).  The paths
    share one copy of ``theta_free``: every path fills it and reads what
    the others found, so a fork's first F-phase walks only the spine it
    rebuilt, not the whole forked term.  Raises UndefinedApplication
    where the engine does."""
    def at_boundary(s: Term) -> bool:
        return decode_state(s, theta, slots) is not None

    ends = []
    todo = [(start, 0, 0, ())]
    steps = 0
    f_free = dict(theta_free) if theta_free else {}
    while todo:
        t, beta, f, path = todo.pop()
        t, b, g, status = _advance(t, sig, budget - beta - f, at_boundary, f_free)
        beta, f, steps = beta + b, f + g, steps + b + g
        if status == _STATUS_FORK:
            spine, head = _unwind(t)
            if head is UNKNOWN_BOOL:
                for choice in (False, True):
                    todo.append((_rebuild(spine, len(spine), bool_term(choice)), beta, f,
                                 path + (choice,)))
                continue
        ends.append((path, t, beta, f, status))
    return ends, steps


def _path_name(path: tuple[bool, ...], labels: Sequence[str]) -> str:
    """The fork choices of a path, and the branch of ``labels`` they
    select when they have the shape of theta's selection: false i times
    then true selects branch i, false before every guard the last."""
    text = "path (" + ", ".join("true" if c else "false" for c in path) + ")"
    i = path.index(True) if True in path else len(path)
    if (i == len(path) - 1 or i == len(path) == len(labels) - 1) \
            and i < len(labels) and labels[i]:
        text += f", branch {labels[i]}"
    return text


def certify(
    theta: Term,
    slots: Sequence[Slot],
    want: tuple[int, int],
    sig: FSignature,
    theta_free: dict,
    labels: Sequence[str] = (),
) -> Certificate:
    """Certify that one block of theta costs exactly ``want`` = (K, L)
    from every valuation of its slots, by one abstract block.

    The block runs through ``blocks`` from theta applied to one
    abstract code per slot (abstract interpretation, Cousot and Cousot
    1977).  A constant with an abstract argument fires as one F-step to
    an abstract code, and the run forks where a concrete block contracts
    TRUE or FALSE, so theta's in-place selection gives one path per
    branch it can reach.  Every concrete block follows one of the paths,
    so they cover every valuation on which each firing is defined.

    Each path must reach a boundary or a normal form at exactly
    ``want``, forking only at the head; a RuntimeError names the first
    path that does not, with the branch of ``labels`` (the branches in
    theta's order) that it selects.
    """
    budget = want[0] + want[1]
    start = app(theta, *map(_abstract_code, slots))
    ends, steps = blocks(start, theta, slots, sig, theta_free, budget)
    for path, _, beta, f, status in ends:
        if status == _STATUS_FORK:
            error = "theta selects on an unknown Boolean off the head of the term"
        elif status == STATUS_RAN:
            error = f"cost formula gives (K,L)={want} but theta takes more than {budget} steps"
        elif (beta, f) != want:
            error = f"cost formula gives (K,L)={want} but theta measures {(beta, f)}"
        else:
            continue
        raise RuntimeError(f"{error} on {_path_name(path, labels)}")
    return Certificate(len(ends), steps)


def build_branch_combinator(
    branches: Sequence[Branch],
    slots: Sequence[Slot],
    sig: FSignature,
    K: Optional[int] = None,
    L: Optional[int] = None,
    inputs: Sequence[Slot] = (),
) -> CompiledCombinator:
    """Build theta for an ordered guarded-branch list with an exact
    per-step cost (K, L), free in the ``inputs`` that the branches read.

    The branches are in priority order, and the last one is the
    else-arm: its guard must be the constant true (ValueError
    otherwise), so the list is exhaustive and the last branch fires
    exactly when every earlier guard is false.

    The minima come from the cost formula: K_min = k + 2n and
    L_min = N (``static_f_work``).  L defaults to L_min, and K to the
    least K for that L: K_min, plus the discard beta when L > L_min.
    Internal padding lands exactly on the requested budget; a request
    below the minima, or with L > L_min at K = K_min, is rejected.
    Theta is built once and must hold no resident F-redex (ValueError
    otherwise).  Its abstract block (``certify``) must cost exactly the
    formula's (K, L) on every path, so from every valuation and every
    input binding (RuntimeError otherwise, naming the branch); lockstep
    checks every round against the same (K, L).
    """
    if not branches:
        raise ValueError("need at least one branch")
    if branches[-1].guard != TRUE_TERM:
        raise ValueError("the last branch is the else-arm: its guard must "
                         "be the constant true")
    names = frozenset(s.name for s in inputs)
    # unfold 1, load k+1 and select 2(n-1) of step_cost, without the
    # F-work of every branch, which static_f_work counts once
    k_min = len(slots) + 2 * len(branches)
    l_min = static_f_work(branches, names)
    L = l_min if L is None else L
    k_least = k_min + (L > l_min)
    K = k_least if K is None else K
    if K < k_min or L < l_min:
        raise ValueError(f"requested (K,L)=({K},{L}) below the minima ({k_min},{l_min})")
    if K < k_least:
        raise ValueError(f"requested (K,L)=({K},{L}): the least K for L={L} is {k_least}")
    theta = _build_theta(branches, slots, names, sig, K - k_min, L - l_min)
    resident, theta_free = scan(theta, sig)
    if resident:
        raise ValueError("combinator body contains a resident F-redex; "
                         "fold ground constant subterms to codes first")
    inputs = tuple(s for s in inputs if s.name in theta.fv)
    abstract, free = (instantiate(theta, {s.name: _abstract_code(s) for s in inputs}, sig,
                                  theta_free)
                      if inputs else (theta, theta_free))
    cert = certify(abstract, slots, (K, L), sig, free, [b.label for b in branches])
    return CompiledCombinator(theta, K, L, tuple(slots), tuple(branches), k_min, l_min,
                              sig, theta_free, cert, inputs, theta, ())
