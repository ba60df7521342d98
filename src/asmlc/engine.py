"""Counting engine: F-first leftmost reduction on Term trees.

One step contracts the leftmost F-redex anywhere in the term, or, when
there is none, the leftmost beta redex.  The engine records counts
only.  It is the package's one reducer: lockstep and certification run
it, and ``asmlc trace`` runs it one step at a time, reading each step's
kind from its counts.  The traced reducer in ``tests/traced.py``, which
records the address of every step, is the reference implementation,
and the test suite checks step-for-step agreement.

Importing the engine raises the recursion limit to 100,000: its walks,
and the traced reducer's, recurse once per level of the term.

Redex search unwinds each application spine ``h a1 ... an`` once.  In
prefix order the spine nodes come first, outermost first, then the head,
then the arguments left to right.  Of the spine nodes, the only F-redex
candidate is the prefix carrying exactly ``arity`` arguments (so an
over-applied ``(f a b) c`` still fires), and the only beta candidate is
``h a1`` when ``h`` is an abstraction.

F-phases in one walk.  Under the F-first strategy the F-steps come in
phases: every F-redex of the term, and every one those contractions
create, is contracted before the next beta step.  An F-contraction
replaces a constant applied to codes by a code, so it erases and copies
no other redex, and the only redex it can create is a constant
application at an ancestor that now has codes for all its arguments.
F-redexes never nest, since a redex's arguments are codes, so the
redexes of a term are disjoint (the F-rules are orthogonal: Klop,
*Combinatory Reduction Systems*, 1980).  ``_Reducer.f_phase`` walks the
term once in leftmost order: on each spine an abstraction head's body
first; for a constant head the ``arity`` arguments it needs, then the
head, which fires when they are codes, then the extra arguments; else
the arguments left to right.  A redex is leftmost when the walk reaches
it: every redex before it is contracted, its contractum is a code, and
a redex that contractum completes is an ancestor, reached when the walk
returns there, before any argument to its right.  An over-applied head
fires before its extra arguments, as the prefix carrying ``arity``
arguments precedes them in prefix order.  So the walk fires exactly the
traced reducer's F-steps in its order, one F-step per contraction, and
it can stop after any of them: at the remaining budget, or before an
undefined firing.  After a stop it fires and memoizes nothing more and
rebuilds only the path to the root, so the term, the counts,
STATUS_UNDEFINED and ``reached`` are those of the traced reducer.  A
complete phase leaves the term F-normal, so the beta step follows
without a second search.

A stop predicate (``boundary``) is tested once after a phase, not after
each of its steps.  That is exact as long as the predicate holds only of
F-normal terms, since every term inside a phase holds an F-redex.
Certification's boundary, theta applied to slot codes, is one: theta
holds no resident F-redex (the builder checks with ``scan``), and
neither the application of theta nor a code is an F-redex.

Head runs.  Say the leftmost beta redex is the first of a head run
``(lambda x1 ... xj. B) a1 ... aj``, j >= 2, every argument closed and
every binder distinct, as in the argument load of theta applied to
slot codes.  Then ``_advance`` contracts the whole run at once:
``_beta_step`` substitutes every argument in one walk of ``B``, the loop
runs one F-phase, limited to the budget left after the j beta steps,
and counts j beta steps.  That is exact.  Each contractum in the run is
an abstraction applied to the run's next argument, so until the last
beta step the leftmost redex stays the run's next one, and an F-phase
between them fires only inside the substituted body.  The arguments
are closed and F-normal, and F-redexes never nest, so an F-step neither
erases nor copies a variable occurrence or another redex: the F-steps
fired between the loads are those a single F-phase fires after them, in
another order, to the same F-normal term (Klop 1980, orthogonal rules;
simultaneous substitution as in Abadi, Cardelli, Curien & Levy 1991,
"Explicit substitutions").  The loop keeps the batched term only when
its F-phase is complete.  When that phase stops, at the budget or
before an undefined firing, the loop discards it and takes the single
beta step from the saved term, as without batching, so a stop, its
counts and ``reached`` are exact.  A run is batched only when no
``boundary`` is given, because the boundary is tested after every beta
step: lockstep rounds and ``advance_term`` batch, certification steps
one redex at a time.  With closed arguments the substitution renames
nothing; an open argument ends the run, and its single step renames a
capturing binder as the traced reducer does.

Substitution.  Theta only ever receives closed arguments: slot codes,
the Curry fixed point's half, the closed branch terms, and the input
codes that ``combinators.instantiate`` binds.  A closed replacement has
no free variable that a binder of the body could capture (Barendregt's
variable convention, *The Lambda Calculus*, 1984), so a substitution
whose replacements are all closed needs no capture set and renames no
binder.  ``_subst`` tests each replacement's ``fv`` once; when all are
empty its walk, the module-level ``_walk``, which takes the
environment, its name set and the capture set as arguments, runs with
an empty capture set and never takes the renaming branch.  Lockstep
rounds, certificate paths and input bindings substitute only closed
terms (``benchmarks/bench_engine.py`` counts the closed share).  An
open replacement, as in a term that ``asmlc trace`` reduces or in the
renaming substitution ``{binder: Var(fresh)}``, runs the same walk with
the free variables of the replacements as its capture set, so it
renames exactly the binders that the traced reducer's ``substitute``
renames.

The search prunes by the facts each node carries (``terms``): a node
without ``beta`` holds no beta redex, and a node without ``const`` holds
no F-redex.  A constant whose prefix of ``arity`` arguments has a free
variable is not tried either: a redex's arguments are codes or lambda
booleans, all closed, so no F-step makes that prefix a redex.
Substitution returns every subterm in which no substituted variable is
in ``fv`` unchanged, closed terms included.  Whether a node with
``const`` holds an F-redex depends on the signature, so a call keeps
one memo, keyed by ``id``, of the subterms already found to contain no
F-redex under its signature.  That property is inherited by
every subterm, and a step rebuilds only the path from the root to the
redex plus the contractum, so a memo hit covers a whole subtree the step
left untouched.  The memo stores the node itself, so no ``id`` is reused
while it lives.  Whether a node holds an F-redex depends on the node and
the signature alone, so an entry stays true in every reduction under
that signature.  Each top-level reduction owns one memo: it copies the
nodes its caller passes as ``f_free`` once and fills the copy.
``advance_term``, one lockstep round, copies per call, and the copy dies
with the call.  A certificate (``combinators.blocks``) copies once for
all its forks, so a fork starts from the memo its shared prefix filled.
The loop ``_advance`` and ``_Reducer`` copy nothing: they fill the dict
they are given.  The compiled machine keeps theta's memo (``scan``'s, or
that of ``combinators.instantiate``), so no round or certificate path
searches theta again.

Abstract codes.  The certificate of a compiled term
(``combinators.certify``) reduces theta applied to abstract codes
(``terms.Unknown``, and ``lambda_f.UNKNOWN_BOOL`` for Booleans).  A
constant applied to codes of which one at least is abstract fires as one
F-step without calling its function; its contractum is an abstract code
of the result datatype.  The beta step whose leftmost redex applies the
abstract Boolean is not taken: ``_advance`` stops before it with a fork,
at the step where a concrete term contracts TRUE or FALSE applied to
its arguments.  Both checks sit where a concrete term does not go, past
``_fire``'s failed match and on a head that is an abstraction, so they
cost concrete reduction one type or identity test.

Round memo.  The result of ``advance_term`` is a function of its
arguments: the reduction is deterministic, and ``fresh_name`` renames a
binder by the terms involved alone, so a structurally equal start term
ends in an equal term with equal counts and status (the builtin
functions give equal results on equal payloads).  A caller that
advances many terms under one signature and one budget, as lockstep does
under a compiled machine, can pass a ``memo`` dict and a ``key`` that
determines the start term under that memo; a repeated round is then one
dict lookup (memo functions: Michie 1968, "Memo functions and machine
learning").  The engine never hashes the start term: lockstep's key is
the round's slot arguments, the ``Code`` nodes and lambda booleans that
``combinators.decode_state`` peels off theta, compared by ``==``.  Under
one compiled instance theta is fixed, so equal keys mean structurally
equal start terms, and a key costs the hash of k small codes where the
term would cost theta's.  A hit returns the stored entry, whose first
four items are the result; a caller may store the entry again extended
by what it derives from the result (lockstep keeps the round's decoded
state there), and a hit returns that too.  The memo sits inside
``advance_term``, not in its callers, so a wrapper around
``advance_term`` (a tracer counting its calls and steps) still sees one
call per round with that round's counts.  The memo holds one entry per
distinct key and lives as long as its owner; the compiled machine owns
lockstep's (``compiler.CompiledMachine``), and a record derived by
``dataclasses.replace`` starts with an empty one.

``KERNEL_NAME`` names the implementation for benchmark records.
"""
from __future__ import annotations

import sys
from typing import Optional

from .lambda_f import (
    BOOL,
    FALSE_TERM,
    TRUE_TERM,
    UNKNOWN_BOOL,
    FFunction,
    FSignature,
    UndefinedApplication,
    match_bool,
)
from .terms import Abs, App, Code, Const, Term, Unknown, Value, Var

sys.setrecursionlimit(100_000)

KERNEL_NAME = "pure-python"

STATUS_NORMAL = 0
STATUS_RAN = 1
STATUS_UNDEFINED = 2
_STATUS_BOUNDARY = 3
_STATUS_FORK = 4


class _Fork(Exception):
    """The leftmost beta redex applies the abstract Boolean."""


def _rebuild(spine: list, i: int, new: Term) -> Term:
    """The spine's root with ``spine[i]`` (the head when ``i`` is the
    spine length) replaced by ``new``; nodes below it are kept."""
    for j in range(i - 1, -1, -1):
        new = App(new, spine[j].arg)
    return new


def _unwind(t: App) -> tuple[list, Term]:
    """Spine nodes outermost first, and the head."""
    spine = []
    while type(t) is App:
        spine.append(t)
        t = t.fun
    return spine, t


def fresh_name(base: str, avoid: frozenset[str]) -> str:
    """The first ``base$k`` (k = 0, 1, ...) not in ``avoid``, where
    ``base`` drops any ``$k`` suffix.  Renaming a binder to it is
    deterministic: it depends only on the terms involved."""
    base = base.split("$")[0]
    k = 0
    while f"{base}${k}" in avoid:
        k += 1
    return f"{base}${k}"


_CLOSED: frozenset = frozenset()


def _subst(t: Term, env: dict) -> Term:
    """Capture-avoiding simultaneous substitution: ``t`` with every free
    ``Var`` named in ``env`` replaced by its term.  A binder free in one
    of those terms is renamed to ``fresh_name`` of the body's and their
    free variables, first in a substitution of its own, so a single
    substitution names its binders as the traced reducer's
    ``substitute`` does.  With closed terms (module docstring,
    "Substitution") the capture set is empty and nothing is renamed.
    Every subterm that holds no variable named in ``env`` is returned
    unchanged, closed terms included."""
    names = frozenset(env)
    if t.fv.isdisjoint(names):
        return t
    avoid = _CLOSED
    for r in env.values():
        if r.fv:
            avoid = avoid.union(*(r.fv for r in env.values()))
            break
    return _walk(t, env, names, avoid)


def _walk(t: Term, env: dict, names: frozenset, avoid: frozenset) -> Term:
    """``_subst``'s walk of a ``t`` whose free variables meet ``names``,
    the keys of ``env``; ``avoid`` holds the free variables of its
    terms."""
    tp = type(t)
    if tp is Var:
        return env[t.name]
    if tp is App:
        fun, arg = t.fun, t.arg
        if not fun.fv.isdisjoint(names):
            fun = _walk(fun, env, names, avoid)
        if not arg.fv.isdisjoint(names):
            arg = _walk(arg, env, names, avoid)
        return App(fun, arg)
    binder, body = t.binder, t.body
    if binder in names:
        return _subst(t, {name: r for name, r in env.items() if name != binder})
    if binder in avoid:
        fresh = fresh_name(binder, body.fv | avoid)
        body = _subst(body, {binder: Var(fresh)})
        binder = fresh
    return Abs(binder, _walk(body, env, names, avoid))


def _beta_step(t: Term, most: int = 1) -> tuple[Term, int]:
    """``t``, which holds a beta redex, with its leftmost one contracted,
    and the number of redexes contracted.  Up to ``most`` - 1 more are
    contracted with it when it starts a head run (module docstring,
    "Head runs"): each next argument closed, each next binder new."""
    path = []  # the Abs nodes and (spine, index) pairs above the redex
    while True:
        if type(t) is Abs:
            path.append(t)
            t = t.body
            continue
        spine, head = _unwind(t)
        i = len(spine) - 1
        if type(head) is Abs:
            break
        # The head is no abstraction, so some argument holds the redex.
        while not spine[i].arg.beta:
            i -= 1
        path.append((spine, i))
        t = spine[i].arg
    if head is UNKNOWN_BOOL:
        raise _Fork
    a = spine[i].arg
    env = {head.binder: a}
    body = head.body
    if not a.fv:
        while (i and len(env) < most and type(body) is Abs and body is not UNKNOWN_BOOL
               and body.binder not in env and not spine[i - 1].arg.fv):
            i -= 1
            env[body.binder] = spine[i].arg
            body = body.body
    new = _rebuild(spine, i, _subst(body, env))
    for above in reversed(path):
        if type(above) is Abs:
            new = Abs(above.binder, new)
        else:
            spine, i = above
            new = _rebuild(spine, i, App(spine[i].fun, new))
    return new, len(env)


class _Reducer:
    """The F-redex walk over one signature, with the F-redex-free memo
    it is given (the caller's own, which it fills), or a new one.  It
    reads each ``FFunction`` by index: arity at 0,
    argument datatypes at 1, result datatype at 2, function at 3."""

    def __init__(self, sig: FSignature, f_free: Optional[dict] = None):
        self.functions = sig.functions
        self.f_free: dict = {} if f_free is None else f_free  # id -> node with no F-redex
        self.fired = self.limit = 0
        self.stop = None

    def _fire(self, head: Const, entry: FFunction, args: list):
        """The contractum of ``head`` applied to the first ``arity`` of
        ``args``, counted in ``fired``; None when one of them is not a
        code of its datatype, or when the walk stops here (``stop``):
        at ``limit``, or outside the function's domain."""
        payloads = []
        for a, dt in zip(args, entry[1]):
            if dt == BOOL:
                if type(a) is not Abs or type(a.body) is not Abs or type(a.body.body) is not Var:
                    return self._fire_unknown(entry, args) if a is UNKNOWN_BOOL else None
                v = a.body.body.name
                if v == a.body.binder:
                    payloads.append(False)
                elif v == a.binder:
                    payloads.append(True)
                else:
                    return None
            elif type(a) is Code and a.value.datatype == dt:
                payloads.append(a.value.payload)
            else:
                return self._fire_unknown(entry, args) if type(a) is Unknown else None
        if self.fired == self.limit:
            self.stop = STATUS_RAN
            return None
        out = entry[3](*payloads)
        if out is None:
            self.stop = UndefinedApplication(head.symbol, tuple(payloads))
            return None
        self.fired += 1
        if entry[2] == BOOL:
            return TRUE_TERM if out else FALSE_TERM
        return Code(Value(entry[2], out))

    def _fire_unknown(self, entry: FFunction, args: list):
        """``_fire`` when an argument is an abstract code: when every
        argument is a code or an abstract code of its datatype, one
        counted firing to an abstract code of the result datatype,
        without calling the function; else None."""
        for a, dt in zip(args, entry[1]):
            if type(a) is Unknown:
                if a.datatype != dt:
                    return None
            elif dt == BOOL:
                if a is not UNKNOWN_BOOL and match_bool(a) is None:
                    return None
            elif type(a) is not Code or a.value.datatype != dt:
                return None
        if self.fired == self.limit:
            self.stop = STATUS_RAN
            return None
        self.fired += 1
        return UNKNOWN_BOOL if entry[2] == BOOL else Unknown(entry[2])

    def f_phase(self, t: Term, limit: int):
        """Contract the F-redexes of ``t`` in leftmost order, those the
        contractions create included, firing at most ``limit``.

        Returns (term, fired, stop).  ``stop`` is None when the phase is
        complete, STATUS_RAN when a redex remains at the limit, and the
        UndefinedApplication when the next firing falls outside its
        function's domain; the term is then the one after ``fired``
        steps."""
        self.fired, self.limit, self.stop = 0, limit, None
        if t.const and id(t) not in self.f_free:
            t = self._contract(t)
        return t, self.fired, self.stop

    def _contract(self, t: Term) -> Term:
        """``f_phase``'s walk from a node with ``const`` that the memo
        lacks (module docstring).  It prunes each child the same way
        before it descends, and memoizes each node it finishes before a
        stop."""
        f_free = self.f_free
        tp = type(t)
        if tp is App:
            spine, head = _unwind(t)
            n = len(spine)
            ht = type(head)
            new = head
            fire = -1  # how many arguments the head fires on
            if ht is Abs:
                body = head.body
                if body.const and id(body) not in f_free:
                    body = self._contract(body)
                    if body is not head.body:
                        new = Abs(head.binder, body)
            elif ht is Const:
                # a prefix with a free variable has an argument that no
                # F-step turns into a code, so the head cannot fire
                entry = self.functions.get(head.symbol)
                if entry is not None and entry[0] <= n and (
                        entry[0] == 0 or not spine[n - entry[0]].fv):
                    fire = entry[0]
            at = n - 1 - fire  # the spine index of the first extra argument
            same, first, walk = new is head, 0, self.stop is None
            args = []
            for i in range(n - 1, -1, -1):
                if i == at and walk:
                    out = self._fire(head, entry, args)
                    if out is not None:
                        new, first, same = out, fire, False
                    walk = self.stop is None
                a = spine[i].arg
                if walk and a.const and id(a) not in f_free:
                    b = self._contract(a)
                    if b is not a:
                        same = False
                        a = b
                    walk = self.stop is None
                args.append(a)
            if fire == n and walk:
                out = self._fire(head, entry, args)
                if out is not None:
                    new, first, same = out, fire, False
            if not same:
                for i in range(first, n):
                    new = App(new, args[i])
                t = new
        elif tp is Abs:
            body = t.body
            if body.const and id(body) not in f_free:
                body = self._contract(body)
                if body is not t.body:
                    t = Abs(t.binder, body)
        elif tp is Const:
            entry = self.functions.get(t.symbol)
            if entry is not None and entry[0] == 0:
                out = self._fire(t, entry, [])
                if out is not None:
                    return out
        if t.const and self.stop is None:
            f_free[id(t)] = t
        return t


def scan(t: Term, sig: FSignature) -> tuple[bool, dict]:
    """Search ``t`` once for an F-redex under ``sig``: whether it holds
    one (an undefined one included), and the memo of its nodes found to
    hold none, by ``id``, for ``advance_term``'s ``f_free``."""
    r = _Reducer(sig)
    stop = r.f_phase(t, 0)[2]
    return stop is not None, r.f_free


def _advance(t: Term, sig: FSignature, max_steps: int, boundary=None,
             f_free: Optional[dict] = None):
    """The shared reduction loop: up to ``max_steps`` F-first leftmost
    steps, stopping early at a normal form or, when ``boundary`` is
    given, at the first term after a step for which it holds.  The
    boundary is tested after each F-phase and each beta step, so it must
    hold only of F-normal terms; without one, head runs are contracted
    at once (module docstring).  ``f_free`` holds
    nodes known to contain no F-redex under ``sig``, by ``id``; the loop
    reads and fills that dict itself, so a caller that must keep its
    memo passes a copy.

    Returns (term, beta_count, f_count, status); the status is
    ``_STATUS_FORK`` when the next step would contract the abstract
    Boolean applied to an argument, and the term is the one before it.
    An undefined leftmost F-redex within the budget raises
    UndefinedApplication carrying ``reached`` = (term before it,
    beta_count, f_count).
    """
    r = _Reducer(sig, f_free)
    beta = f = 0
    while True:
        t, count, stop = r.f_phase(t, max_steps - beta - f)
        f += count
        if stop == STATUS_RAN:
            return t, beta, f, STATUS_RAN
        if stop is not None:
            stop.reached = (t, beta, f)
            raise stop
        if count and boundary is not None and boundary(t):
            return t, beta, f, _STATUS_BOUNDARY
        # the term is F-normal now, so without a beta redex it is normal
        if not t.beta:
            return t, beta, f, STATUS_NORMAL
        left = max_steps - beta - f
        if not left:
            return t, beta, f, STATUS_RAN
        try:
            new, j = _beta_step(t, left if boundary is None else 1)
        except _Fork:
            return t, beta, f, _STATUS_FORK
        if j > 1:
            # a head run: kept only when its one F-phase is complete
            out, count, stop = r.f_phase(new, left - j)
            if stop is None:
                t, beta, f = out, beta + j, f + count
                continue
            new = _beta_step(t)[0]
        t = new
        beta += 1
        if boundary is not None and boundary(t):
            return t, beta, f, _STATUS_BOUNDARY


def advance_term(t: Term, sig: FSignature, max_steps: int, f_free: Optional[dict] = None,
                 memo: Optional[dict] = None, key=None):
    """Advance ``t`` by up to ``max_steps`` F-first leftmost steps.
    ``f_free`` maps ``id`` to nodes known to hold no F-redex under
    ``sig`` (``scan``'s memo); the call reads a copy of it.

    Returns (term, beta_count, f_count, status): STATUS_NORMAL when a
    normal form was reached within the budget, STATUS_RAN when the
    budget was consumed and a redex remains, STATUS_UNDEFINED when the
    next step applies a partial function outside its domain (the term
    is the one before that step).

    ``memo``, when given, maps the caller's ``key`` for ``t`` to its
    entry (module docstring, "Round memo"): a key found there returns
    its stored entry without a step, and a new one is reduced once and
    stored.  One memo serves one ``sig``, one ``max_steps``, and keys
    each of which determines its start term.
    """
    if memo is not None:
        hit = memo.get(key)
        if hit is not None:
            return hit
    try:
        out = _advance(t, sig, max_steps, f_free=dict(f_free) if f_free else None)
    except UndefinedApplication as exc:
        out = (*exc.reached, STATUS_UNDEFINED)
    if memo is not None:
        memo[key] = out
    return out
