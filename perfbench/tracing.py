"""Span tracing of the asmlc layers, from outside the package.

``Tracer.install`` replaces each target function, in every ``asmlc``
module that binds it, with a wrapper that records a span: name, start,
end, parent span and case id.  ``uninstall`` puts the originals back,
so untraced runs execute the package's own functions.  A target that no
longer exists is recorded as absent instead of failing the run.
"""
from __future__ import annotations

import itertools
import statistics
import sys
from collections import Counter, defaultdict
from time import perf_counter
from types import SimpleNamespace


def _advance(counts, result):
    counts["engine.calls"] += 1
    counts["engine.beta_steps"] += result[1]
    counts["engine.f_steps"] += result[2]


def _block(counts, result):
    counts["combinators.certify_blocks"] += 1
    counts["combinators.certify_steps"] += result.beta_count + result.f_count


def _normal_form(counts, result):
    counts["normalize.conditions"] += len(result.conditions)
    counts["normalize.clauses"] += len(result.clauses)


def _asm_run(counts, result):
    counts["asm.runs"] += 1
    counts["asm.steps"] += result.steps


def _lockstep(counts, result):
    counts["cosim.rounds"] += len(result.rounds)


def _decode(counts, result):
    counts["compiler.decode_calls"] += 1


# (span name, home module, function, result hook, recursive).  A
# recursive target is unwrapped while it runs, so only its outermost
# call becomes a span.
TARGETS = (
    ("sourcefmt.parse", "asmlc.sourcefmt", "parse_source", None, False),
    ("compiler.compile", "asmlc.compiler", "compile_machine", None, False),
    ("compiler.decode", "asmlc.compiler", "decode_result", _decode, False),
    ("normalize.normalize", "asmlc.normalize", "normalize", _normal_form, False),
    ("normalize.to_program", "asmlc.normalize", "to_program", None, False),
    ("normalize.check", "asmlc.normalize", "check_equivalence", None, False),
    ("combinators.build", "asmlc.combinators", "build_branch_combinator", None, False),
    ("combinators.certify", "asmlc.combinators", "reduce_one_block", _block, False),
    ("combinators.decode_state", "asmlc.combinators", "decode_state", None, False),
    ("lambda_f.f_search", "asmlc.lambda_f", "leftmost_f_redex", None, False),
    ("lambda_f.f_contract", "asmlc.lambda_f", "f_step", None, False),
    ("reduction.beta_search", "asmlc.reduction", "leftmost_redex", None, False),
    ("reduction.beta_contract", "asmlc.reduction", "beta_step", None, False),
    ("engine.advance", "asmlc.engine", "advance_term", _advance, False),
    ("engine.to_tuple", "asmlc.engine", "to_tuple", None, True),
    ("engine.from_tuple", "asmlc.engine", "from_tuple", None, True),
    ("asm.run", "asmlc.asm", "run_from_state", _asm_run, False),
    ("cosim.lockstep", "asmlc.cosim", "lockstep", _lockstep, False),
)

ROOT = "bench.case"

# Per-layer metrics that are reported as absent when a span is.
NEEDS = {
    "sourcefmt.parse": ("sourcefmt.parse_s",),
    "compiler.compile": ("compiler.compile_s", "compiler.self_s"),
    "compiler.decode": ("compiler.decode_s", "compiler.decode_calls"),
    "normalize.normalize": ("normalize.s", "normalize.conditions", "normalize.clauses"),
    "combinators.build": ("combinators.build_s",),
    "combinators.certify": ("combinators.certify_s", "combinators.certify_blocks",
                            "combinators.certify_steps", "combinators.boundary_check_s",
                            "lambda_f.f_search_s", "lambda_f.f_contract_s",
                            "reduction.beta_search_s", "reduction.beta_contract_s"),
    "combinators.decode_state": ("combinators.boundary_check_s",),
    "lambda_f.f_search": ("lambda_f.f_search_s",),
    "lambda_f.f_contract": ("lambda_f.f_contract_s",),
    "reduction.beta_search": ("reduction.beta_search_s",),
    "reduction.beta_contract": ("reduction.beta_contract_s",),
    "engine.advance": ("engine.advance_s", "engine.kernel_s", "engine.calls",
                       "engine.beta_steps", "engine.f_steps", "engine.steps_per_s"),
    "engine.to_tuple": ("engine.convert_s",),
    "engine.from_tuple": ("engine.convert_s",),
    "asm.run": ("asm.run_s", "asm.runs", "asm.steps", "asm.steps_per_s"),
    "cosim.lockstep": ("cosim.lockstep_s", "cosim.self_s", "cosim.rounds"),
}


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (id, parent, case, name, start, end)
        self.total = defaultdict(float)  # name -> summed duration
        self.self_time = defaultdict(float)  # name -> summed self time
        self.under = defaultdict(float)  # (parent name, name) -> duration
        self.counts = defaultdict(int)
        self.absent: list[str] = []
        self.case = None
        self._stack: list[list] = []  # [id, name, child time]
        self._ids = itertools.count()
        self._patches: list[tuple] = []
        self._unwraps: dict[str, int] = {}  # name -> modules its wrapper rebinds

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        asmlc_modules = [m for n, m in sorted(sys.modules.items())
                         if m is not None and (n == "asmlc" or n.startswith("asmlc."))]
        self.absent = []
        for name, home, attr, hook, recursive in TARGETS:
            fn = getattr(sys.modules.get(home), attr, None)
            if not callable(fn):
                self.absent.append(name)
                continue
            homes = [m for m in asmlc_modules if getattr(m, attr, None) is fn]
            self._unwraps[name] = len(homes) if recursive else 0
            wrapper = self._wrap(name, fn, attr, hook, homes if recursive else ())
            for m in homes:
                self._patches.append((m, attr, fn))
                setattr(m, attr, wrapper)

    def uninstall(self) -> None:
        for m, attr, fn in reversed(self._patches):
            setattr(m, attr, fn)
        self._patches.clear()

    # -- spans ------------------------------------------------------------

    def _wrap(self, name, fn, attr, hook, unwrap_in):
        stack = self._stack
        ids = self._ids

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [next(ids), name, 0.0]
            stack.append(frame)
            for m in unwrap_in:
                setattr(m, attr, fn)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                for m in unwrap_in:
                    setattr(m, attr, traced)
                stack.pop()
                self._close(frame, parent, start, end)
            if hook is not None:
                hook(self.counts, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _close(self, frame, parent, start, end):
        sid, name, child = frame
        dur = end - start
        self.total[name] += dur
        self.self_time[name] += dur - child
        if parent is not None:
            parent[2] += dur
            self.under[(parent[1], name)] += dur
        self.spans.append((sid, parent[0] if parent else None, self.case,
                           name, start, end))

    def root(self, case, fn, *args):
        """Run ``fn(*args)`` as the root span of one case."""
        self.case = case
        frame = [next(self._ids), ROOT, 0.0]
        self._stack.append(frame)
        start = perf_counter()
        try:
            return fn(*args)
        finally:
            end = perf_counter()
            self._stack.pop()
            self._close(frame, None, start, end)

    # -- overhead ---------------------------------------------------------

    def overhead(self) -> float:
        """Seconds the spans added: each span name's span count times the
        cost of one wrapper like its own, timed on a no-op function."""
        spans = Counter(span[3] for span in self.spans)
        cost = {k: wrapper_cost(k) for k in {*self._unwraps.values(), 0}}
        return sum(n * cost[self._unwraps.get(name, 0)] for name, n in spans.items())

    # -- per-layer metrics ------------------------------------------------

    def layer_metrics(self, traced_s: float) -> dict[str, float]:
        t, c, under = self.total, self.counts, self.under
        cert = "combinators.certify"
        advance = t["engine.advance"]
        convert = t["engine.to_tuple"] + t["engine.from_tuple"]
        m = {
            "engine.advance_s": advance,
            "engine.convert_s": convert,
            "engine.kernel_s": advance - convert,
            "engine.calls": c["engine.calls"],
            "engine.beta_steps": c["engine.beta_steps"],
            "engine.f_steps": c["engine.f_steps"],
            "engine.steps_per_s": _rate(c["engine.beta_steps"] + c["engine.f_steps"], advance),
            "combinators.build_s": self.self_time["combinators.build"],
            "combinators.certify_s": t[cert],
            "combinators.certify_blocks": c["combinators.certify_blocks"],
            "combinators.certify_steps": c["combinators.certify_steps"],
            "combinators.boundary_check_s": under[(cert, "combinators.decode_state")],
            "lambda_f.f_search_s": under[(cert, "lambda_f.f_search")],
            "lambda_f.f_contract_s": under[(cert, "lambda_f.f_contract")],
            "reduction.beta_search_s": under[(cert, "reduction.beta_search")],
            "reduction.beta_contract_s": under[(cert, "reduction.beta_contract")],
            "compiler.compile_s": t["compiler.compile"],
            "compiler.self_s": self.self_time["compiler.compile"],
            "compiler.decode_s": t["compiler.decode"],
            "compiler.decode_calls": c["compiler.decode_calls"],
            "normalize.s": t["normalize.normalize"],
            "normalize.conditions": c["normalize.conditions"],
            "normalize.clauses": c["normalize.clauses"],
            "asm.run_s": t["asm.run"],
            "asm.runs": c["asm.runs"],
            "asm.steps": c["asm.steps"],
            "asm.steps_per_s": _rate(c["asm.steps"], t["asm.run"]),
            "cosim.lockstep_s": t["cosim.lockstep"],
            "cosim.self_s": self.self_time["cosim.lockstep"],
            "cosim.rounds": c["cosim.rounds"],
            "sourcefmt.parse_s": t["sourcefmt.parse"],
        }
        for layer, share in self.layer_shares(traced_s).items():
            m[f"{layer}.share"] = share
        return m

    def absent_metrics(self) -> list[str]:
        return sorted({m for span in self.absent for m in NEEDS.get(span, ())})

    def layer_shares(self, traced_s: float) -> dict[str, float]:
        """Self time of each layer (span-name prefix) over the traced time
        of the cases; the root span's self time is the benchmark's own."""
        shares = defaultdict(float)
        for name, s in self.self_time.items():
            if name != ROOT and name != "sourcefmt.parse":
                shares[name.split(".")[0]] += s
        layers = sorted({n.split(".")[0] for n, *_ in TARGETS} - {"sourcefmt"})
        return {layer: shares[layer] / traced_s if traced_s else 0.0
                for layer in layers}


def _noop():
    return None


def wrapper_cost(unwraps: int, calls: int = 20_000, repeats: int = 5) -> float:
    """Seconds one span adds to a call, for a wrapper that rebinds
    ``unwraps`` modules; the median of ``repeats`` timings of ``calls``
    wrapped and bare no-op calls, in a scratch tracer."""
    scratch = Tracer()
    homes = [SimpleNamespace() for _ in range(unwraps)]
    traced = scratch._wrap("noop", _noop, "noop", None, homes)
    loop = range(calls)

    def timed(fn):
        t0 = perf_counter()
        for _ in loop:
            fn()
        return perf_counter() - t0

    diffs = []
    for _ in range(repeats):
        scratch.spans.clear()
        diffs.append(scratch.root(None, timed, traced) - timed(_noop))
    return max(statistics.median(diffs), 0.0) / calls


def _rate(count, seconds):
    return count / seconds if seconds > 0 else 0.0
