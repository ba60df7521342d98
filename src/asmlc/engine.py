"""Counting engine: F-first leftmost reduction on Term trees.

One step contracts the leftmost F-redex anywhere in the term, or, when
there is none, the leftmost beta redex.  The engine records counts
only; the traced reducer in ``reduction``/``lambda_f`` is the reference
implementation and the test suite checks step-for-step agreement.

Redex search unwinds each application spine ``h a1 ... an`` once.  In
prefix order the spine nodes come first, outermost first, then the head,
then the arguments left to right.  Of the spine nodes, the only F-redex
candidate is the prefix carrying exactly ``arity`` arguments (so an
over-applied ``(f a b) c`` still fires), and the only beta candidate is
``h a1`` when ``h`` is an abstraction.

The search prunes by the facts each node carries (``terms``): a node
without ``beta`` holds no beta redex, and a node without ``const`` holds
no F-redex.  Substitution returns every subterm in which the variable
is not in ``fv`` unchanged, closed terms included.  Whether a node with
``const`` holds an F-redex depends on the signature table, so within one
call the engine keeps one memo, keyed by ``id``, of the subterms already
found to contain no F-redex.  That property is inherited by every
subterm, and a step rebuilds only the path from the root to the redex
plus the contractum, so a memo hit covers a whole subtree the step left
untouched.  The memo stores the node itself, so no ``id`` is reused
while it lives, and it lives for one call only.

``KERNEL_NAME`` names the implementation for benchmark records.
"""
from __future__ import annotations

from .lambda_f import BOOL, FALSE_TERM, TRUE_TERM, FSignature, UndefinedApplication
from .reduction import fresh_name
from .terms import Abs, App, Code, Const, Term, Value, Var

KERNEL_NAME = "pure-python"

STATUS_NORMAL = 0
STATUS_RAN = 1
STATUS_UNDEFINED = 2
_STATUS_BOUNDARY = 3


def signature_table(sig: FSignature) -> dict:
    """Lower an FSignature to the engine's dict form
    ``name -> (arity, arg_datatypes, result_datatype, fn)``."""
    return {
        name: (f.arity, f.arg_datatypes, f.result_datatype, f.fn)
        for name, f in sig.functions.items()
    }


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


def _subst(t: Term, name: str, repl: Term) -> Term:
    """Capture-avoiding ``t[repl/name]``."""
    if name not in t.fv:
        return t
    tp = type(t)
    if tp is Var:
        return repl
    if tp is App:
        return App(_subst(t.fun, name, repl), _subst(t.arg, name, repl))
    binder, body = t.binder, t.body
    if binder in repl.fv:
        fresh = fresh_name(binder, body.fv | repl.fv)
        body = _subst(body, binder, Var(fresh))
        binder = fresh
    return Abs(binder, _subst(body, name, repl))


def _beta_step(t: Term):
    """``t`` with its leftmost beta redex contracted, or None."""
    if not t.beta:
        return None
    if type(t) is Abs:
        return Abs(t.binder, _beta_step(t.body))
    spine, head = _unwind(t)
    n = len(spine)
    if type(head) is Abs:
        return _rebuild(spine, n - 1, _subst(head.body, head.binder, spine[n - 1].arg))
    # The head is no abstraction, so some argument holds the redex.
    for i in range(n - 1, -1, -1):
        node = spine[i]
        if node.arg.beta:
            return _rebuild(spine, i, App(node.fun, _beta_step(node.arg)))


class _Reducer:
    """Leftmost F-step over one signature table, with the F-redex-free
    memo of one call."""

    def __init__(self, table: dict):
        self.table = table
        self.f_free: dict = {}  # id -> node with no F-redex inside

    def _fire(self, head: Const, entry: tuple, spine: list, n: int):
        """The contractum of the prefix ``head a1 ... a_arity`` of the
        spine, or None when an argument is not a code of its datatype.
        Raises UndefinedApplication outside the function's domain."""
        payloads = []
        for k, dt in enumerate(entry[1], 1):
            a = spine[n - k].arg
            if dt == BOOL:
                if type(a) is not Abs or type(a.body) is not Abs or type(a.body.body) is not Var:
                    return None
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
                return None
        out = entry[3](*payloads)
        if out is None:
            raise UndefinedApplication(head.symbol, tuple(payloads))
        if entry[2] == BOOL:
            return TRUE_TERM if out else FALSE_TERM
        return Code(Value(entry[2], out))

    def f_step(self, t: Term):
        """``t`` with its leftmost F-redex contracted, or None."""
        if not t.const or id(t) in self.f_free:
            return None
        tp = type(t)
        if tp is App:
            spine, head = _unwind(t)
            n = len(spine)
            ht = type(head)
            if ht is Const:
                entry = self.table.get(head.symbol)
                if entry is not None and entry[0] <= n:
                    new = self._fire(head, entry, spine, n)
                    if new is not None:
                        return _rebuild(spine, n - entry[0], new)
            elif ht is Abs:
                new = self.f_step(head.body)
                if new is not None:
                    return _rebuild(spine, n, Abs(head.binder, new))
            for i in range(n - 1, -1, -1):
                node = spine[i]
                new = self.f_step(node.arg)
                if new is not None:
                    return _rebuild(spine, i, App(node.fun, new))
            f_free = self.f_free
            for node in spine:
                f_free[id(node)] = node
            return None
        if tp is Abs:
            new = self.f_step(t.body)
            if new is not None:
                return Abs(t.binder, new)
        elif tp is Const:
            entry = self.table.get(t.symbol)
            if entry is not None and entry[0] == 0:
                return self._fire(t, entry, [], 0)
        self.f_free[id(t)] = t
        return None


def _advance(t: Term, sig_table: dict, max_steps: int, boundary=None):
    """The shared reduction loop: up to ``max_steps`` F-first leftmost
    steps, stopping early at a normal form or, when ``boundary`` is
    given, at the first term after a step for which it holds.

    Returns (term, beta_count, f_count, status).  An undefined leftmost
    F-redex within the budget raises UndefinedApplication carrying
    ``reached`` = (term before it, beta_count, f_count).
    """
    r = _Reducer(sig_table)
    beta = f = 0
    while True:
        try:
            new = r.f_step(t)
        except UndefinedApplication as exc:
            if beta + f == max_steps:
                return t, beta, f, STATUS_RAN
            exc.reached = (t, beta, f)
            raise
        is_beta = new is None
        if is_beta:
            new = _beta_step(t)
            if new is None:
                return t, beta, f, STATUS_NORMAL
        if beta + f == max_steps:
            return t, beta, f, STATUS_RAN
        t = new
        if is_beta:
            beta += 1
        else:
            f += 1
        if boundary is not None and boundary(t):
            return t, beta, f, _STATUS_BOUNDARY


def advance_term(t: Term, sig_table: dict, max_steps: int):
    """Advance ``t`` by up to ``max_steps`` F-first leftmost steps.

    Returns (term, beta_count, f_count, status): STATUS_NORMAL when a
    normal form was reached within the budget, STATUS_RAN when the
    budget was consumed and a redex remains, STATUS_UNDEFINED when the
    next step applies a partial function outside its domain (the term
    is the one before that step).
    """
    try:
        return _advance(t, sig_table, max_steps)
    except UndefinedApplication as exc:
        return (*exc.reached, STATUS_UNDEFINED)
