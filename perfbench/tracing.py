"""Per-layer spans recorded from outside the library.

`install()` wraps the public functions of each layer wherever a caller looks
them up: every loaded `muaut` module attribute bound to the original function
is replaced by one wrapper, so callers that imported the name directly (for
example `automata.core.solve`) are traced too.  Spans stay in memory with
their parent's id and are summarized once the pass has ended.  Per-element
evaluators such as `eval_finite` are never wrapped.
"""
from __future__ import annotations

import functools
import importlib
import sys
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)


def _arena_counts(ag, args):
    return {"positions": ag.game.n, "moves": sum(len(m) for m in ag.game.moves)}


def _positions(eg, args):
    return {"positions": eg.game.n}


def _solve_counts(sol, args):
    return {"positions": args[0].n}


def _out_states(aut, args):
    return {"out_states": aut.n}


def _out_disjuncts(bf, args):
    return {"out_disjuncts": len(bf.disjuncts)}


def _valuation_key(vals, args):
    return {"keys": (args[0], len(args[1]))}


# (module, function, per-call counts); the module is the layer's name.
LAYERS = (
    ("onestep", "to_basic_form", _out_disjuncts),
    ("onestep", "min_valuations", _valuation_key),
    ("onestep", "equivalent", None),
    ("automata", "acceptance_game", _arena_counts),
    ("automata", "finitary_construct", _out_states),
    ("automata", "noetherian_construct", _out_states),
    ("automata", "classify_automaton", None),
    ("automata", "from_formula", None),
    ("mucalc", "build_eval_game", _positions),
    ("mucalc", "semantics_eval", None),
    ("paritygame", "solve", _solve_counts),
    ("lts", "quotient", None),
    ("lts", "bisimilar", None),
    ("mso", "compile_mso", None),
    ("mso", "eval_mso", None),
    ("fixpoint", "lfp", None),
    ("fixpoint", "brute_force_witness", None),
)

# extra statistics per layer, beyond calls and self_s
EXTRA = {
    "onestep.to_basic_form": ("max_call_s", "cache_hit_share", "out_disjuncts"),
    "onestep.min_valuations": ("distinct_share",),
    "automata.acceptance_game": ("positions", "moves"),
    "automata.finitary_construct": ("out_states",),
    "automata.noetherian_construct": ("out_states",),
    "mucalc.build_eval_game": ("positions",),
    "paritygame.solve": ("positions", "max_call_s"),
}

UNITS = {"calls": "count", "self_s": "s", "max_call_s": "s", "cache_hit_share": "share",
         "out_disjuncts": "count", "distinct_share": "share", "positions": "count",
         "moves": "count", "out_states": "count"}


def metric_names() -> list[str]:
    """Every per-layer metric name, in report order."""
    names = []
    for module, fn, _ in LAYERS:
        layer = "%s.%s" % (module, fn)
        names += ["%s.%s" % (layer, s) for s in ("calls", "self_s") + EXTRA.get(layer, ())]
    return names + ["trace.covered_share", "trace.overhead_share"]


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self._lru = None
        self._lru_start = (0, 0)

    def wrap(self, name: str, fn, counts=None):
        spans, stack, clock = self.spans, self._open, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, stack[-1] if stack else None, clock())
            spans.append(span)
            stack.append(len(spans) - 1)
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if counts is not None:
                span.counts = counts(out, args)
            return out
        return traced

    def install(self):
        layers = {m: importlib.import_module("muaut." + m) for m, _, _ in LAYERS}
        self._lru = layers["onestep"].to_basic_form
        info = self._lru.cache_info()
        self._lru_start = (info.hits, info.misses)
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "muaut" or n.startswith("muaut."))]
        for module, fn_name, counts in LAYERS:
            original = getattr(layers[module], fn_name)
            wrapper = self.wrap("%s.%s" % (module, fn_name), original, counts)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        self._patched.append((m, attr, original))
                        setattr(m, attr, wrapper)

    def uninstall(self):
        for m, attr, original in reversed(self._patched):
            setattr(m, attr, original)
        self._patched.clear()

    def cache_hit_share(self) -> float:
        info = self._lru.cache_info()
        hits, misses = info.hits - self._lru_start[0], info.misses - self._lru_start[1]
        return hits / (hits + misses) if hits + misses else 0.0


def summarize(spans: list[Span], wall_s: float, cache_hit_share: float = 0.0) -> dict:
    """Per-layer statistics from a span list.

    Self time is a span's duration minus its children's durations; children
    of one span run one after another, so they never overlap.
    """
    child_time = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] += s.end - s.start
    out: dict[str, float] = {}
    keys: dict[str, set] = {}
    covered = 0.0
    for i, s in enumerate(spans):
        dur = s.end - s.start
        if s.parent is None:
            covered += dur
        p = s.name + "."
        out[p + "calls"] = out.get(p + "calls", 0) + 1
        out[p + "self_s"] = out.get(p + "self_s", 0.0) + dur - child_time[i]
        out[p + "max_call_s"] = max(out.get(p + "max_call_s", 0.0), dur)
        for k, v in s.counts.items():
            if k == "keys":
                keys.setdefault(s.name, set()).add(v)
            else:
                out[p + k] = out.get(p + k, 0) + v
    for name, ks in keys.items():
        out[name + ".distinct_share"] = len(ks) / out[name + ".calls"]
    out["onestep.to_basic_form.cache_hit_share"] = cache_hit_share
    out["trace.covered_share"] = covered / wall_s if wall_s > 0 else 0.0
    return {name: out.get(name, 0) for name in metric_names() if name != "trace.overhead_share"}
